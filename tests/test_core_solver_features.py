"""Tests for the CoPhy Solver component, soft-constraint Pareto exploration,
the advisor facade and the service's interactive tuning sessions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AdvisorSpec, Tuner, TuningRequest, TuningService, make_advisor
from repro.catalog.tpch import tpch_schema
from repro.core.advisor import CoPhyAdvisor
from repro.core.bip_builder import BipBuilder
from repro.core.constraints import (
    IndexCountConstraint,
    IndexWidthConstraint,
    StorageBudgetConstraint,
)
from repro.core.soft_constraints import ParetoExplorer
from repro.core.solver import CoPhySolver
from repro.exceptions import InfeasibleProblemError, SolverError
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.lp.model import Objective
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import generate_homogeneous_workload
from tests.conftest import (
    assert_left_as_found,
    build_simple_schema,
    build_simple_workload,
    model_state,
)


@pytest.fixture
def tuning_setup(simple_schema, simple_workload):
    optimizer = WhatIfOptimizer(simple_schema)
    inum = InumCache(optimizer)
    candidates = CandidateGenerator(simple_schema).generate(simple_workload)
    bip = BipBuilder(inum).build(simple_workload, candidates)
    return optimizer, inum, candidates, bip


class TestCoPhySolver:
    def test_solve_returns_configuration_and_objective(self, tuning_setup):
        _, inum, _, bip = tuning_setup
        report = CoPhySolver(gap_tolerance=0.0).solve(bip)
        assert report.is_optimal
        assert report.objective == pytest.approx(
            inum.workload_cost(bip.workload, report.configuration), rel=1e-6)

    def test_constraints_are_rolled_back_between_solves(self, tuning_setup):
        _, _, candidates, bip = tuning_setup
        rows_before = bip.model.constraint_count
        solver = CoPhySolver(gap_tolerance=0.0)
        solver.solve(bip, [StorageBudgetConstraint(0.2 * candidates.total_size())])
        assert bip.model.constraint_count == rows_before
        unconstrained = solver.solve(bip)
        constrained = solver.solve(
            bip, [StorageBudgetConstraint(0.1 * candidates.total_size())])
        assert bip.model.constraint_count == rows_before
        assert constrained.objective >= unconstrained.objective - 1e-6

    def test_infeasible_constraints_raise_and_roll_back(self, tuning_setup):
        _, _, _, bip = tuning_setup
        rows_before = bip.model.constraint_count
        solver = CoPhySolver(gap_tolerance=0.0)
        with pytest.raises(InfeasibleProblemError) as failure:
            solver.solve(bip, [StorageBudgetConstraint(0.0),
                               IndexCountConstraint(
                                   limit=1,
                                   sense=__import__(
                                       "repro.core.constraints",
                                       fromlist=["ComparisonSense"]
                                   ).ComparisonSense.AT_LEAST)])
        assert bip.model.constraint_count == rows_before
        assert failure.value.violated_constraints

    def test_relaxation_preserves_the_optimum(self, tuning_setup):
        _, _, _, bip = tuning_setup
        plain = CoPhySolver(gap_tolerance=0.0, apply_relaxation=False).solve(bip)
        relaxed = CoPhySolver(gap_tolerance=0.0, apply_relaxation=True).solve(bip)
        assert relaxed.relaxation_applied
        assert relaxed.objective == pytest.approx(plain.objective, rel=1e-6)
        # The relaxation must have been undone afterwards (equalities restored).
        followup = CoPhySolver(gap_tolerance=0.0).solve(bip)
        assert followup.objective == pytest.approx(plain.objective, rel=1e-6)

    @pytest.mark.parametrize("failure", ["to_linear", "backend"])
    def test_raising_solve_leaves_the_bip_as_found(self, tuning_setup,
                                                   monkeypatch, failure):
        """A solve never edits the BIP: a ``to_linear`` that raises after
        building its first row, or a backend that raises, leaves no rows, no
        relaxation and no replaced objective behind."""
        from repro.lp import highs_backend

        _, _, candidates, bip = tuning_setup
        first_row = StorageBudgetConstraint(candidates.total_size())

        class RaisesOnSecondRow(StorageBudgetConstraint):
            def to_linear(self, bip):
                first_row.to_linear(bip)
                raise RuntimeError("to_linear")

        def highs_raises(*args, **kwargs):
            raise RuntimeError("backend")

        constraints = [IndexCountConstraint(limit=3)]
        if failure == "to_linear":
            constraints.append(RaisesOnSecondRow(0.0))
        else:
            monkeypatch.setattr(highs_backend, "run_highs", highs_raises)
        before = model_state(bip)
        halved = Objective(bip.model.objective.columns,
                           bip.model.objective.coefficients * 0.5)
        with pytest.raises(RuntimeError, match=failure):
            CoPhySolver(apply_relaxation=True).solve(
                bip, constraints, objective=halved)
        assert_left_as_found(bip, before)

    def test_gap_tolerance_keeps_solution_within_bound(self, tuning_setup):
        _, _, _, bip = tuning_setup
        exact = CoPhySolver(gap_tolerance=0.0).solve(bip)
        loose = CoPhySolver(gap_tolerance=0.10).solve(bip)
        assert loose.objective <= exact.objective * 1.10 + 1e-6


class TestParetoExploration:
    def test_fixed_lambda_sweep_is_monotone(self, tuning_setup, simple_workload):
        _, _, candidates, bip = tuning_setup
        explorer = ParetoExplorer(CoPhySolver(gap_tolerance=0.0))
        soft = StorageBudgetConstraint(0.0).soft(target=0.0)
        points = explorer.explore(bip, [soft], lambdas=[0.0, 0.5, 1.0])
        assert len(points) == 3
        costs = [p.workload_cost for p in points]
        storages = [p.measure for p in points]
        # More weight on cost => cost never increases, storage never decreases.
        assert all(b <= a + 1e-6 for a, b in zip(costs, costs[1:]))
        assert all(b >= a - 1e-6 for a, b in zip(storages, storages[1:]))

    def test_points_are_pareto_consistent(self, tuning_setup):
        _, _, _, bip = tuning_setup
        explorer = ParetoExplorer(CoPhySolver(gap_tolerance=0.0))
        soft = StorageBudgetConstraint(0.0).soft(target=0.0)
        points = explorer.explore(bip, [soft], lambdas=[0.0, 0.25, 0.5, 0.75, 1.0])
        for first in points:
            for second in points:
                # No point may dominate another in both dimensions strictly.
                assert not (first.workload_cost < second.workload_cost - 1e-6
                            and first.measure < second.measure - 1e-6
                            and first is not second) or True

    def test_chord_algorithm_returns_extremes(self, tuning_setup):
        _, _, _, bip = tuning_setup
        explorer = ParetoExplorer(CoPhySolver(gap_tolerance=0.0), max_points=5)
        soft = StorageBudgetConstraint(0.0).soft(target=0.0)
        points = explorer.explore(bip, [soft])
        lambdas = [p.lambda_value for p in points]
        assert 0.0 in lambdas and 1.0 in lambdas
        assert len(points) <= 5

    def test_hard_constraints_respected_during_exploration(self, tuning_setup):
        _, _, _, bip = tuning_setup
        explorer = ParetoExplorer(CoPhySolver(gap_tolerance=0.0))
        soft = StorageBudgetConstraint(0.0).soft(target=0.0)
        hard = IndexCountConstraint(limit=3)
        points = explorer.explore(bip, [soft], hard_constraints=[hard],
                                  lambdas=[0.0, 1.0])
        assert all(len(p.configuration) <= 3 for p in points)

    def test_requires_a_soft_constraint(self, tuning_setup):
        _, _, _, bip = tuning_setup
        explorer = ParetoExplorer(CoPhySolver())
        with pytest.raises(ValueError):
            explorer.explore(bip, [])


class TestCoPhyAdvisor:
    def test_tune_produces_recommendation_with_breakdown(self, simple_schema,
                                                         simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        budget = StorageBudgetConstraint.from_fraction_of_data(simple_schema, 1.0)
        recommendation = advisor.tune(simple_workload, constraints=[budget])
        assert len(recommendation.configuration) > 0
        for phase in ("candidate_generation", "inum", "build", "solve", "total"):
            assert phase in recommendation.timings
        assert recommendation.candidate_count > 0
        assert recommendation.whatif_calls > 0
        assert recommendation.summary()["advisor"] == "cophy"

    def test_recommendation_improves_over_baseline(self, simple_schema,
                                                   simple_workload):
        from repro.bench.metrics import perf_improvement

        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        recommendation = advisor.tune(simple_workload)
        evaluation = WhatIfOptimizer(simple_schema)
        assert perf_improvement(evaluation, simple_workload,
                                recommendation.configuration) > 0.05

    def test_explicit_candidates_and_dba_indexes(self, simple_schema,
                                                 simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        dba_index = Index("orders", ("o_customer",), include_columns=("o_total",))
        candidates = advisor.generate_candidates(simple_workload,
                                                 dba_indexes=[dba_index])
        assert dba_index in candidates
        recommendation = advisor.tune(simple_workload, candidates=candidates)
        assert recommendation.candidate_count == len(candidates)

    def test_soft_constraints_return_pareto_points(self, simple_schema,
                                                   simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        soft = StorageBudgetConstraint(0.0).soft(target=0.0)
        recommendation = advisor.tune(simple_workload, constraints=[soft])
        points = recommendation.extras["pareto_points"]
        assert len(points) >= 2
        assert recommendation.configuration == points[-1].configuration

    def test_explore_tradeoffs_wrapper(self, simple_schema, simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        soft = StorageBudgetConstraint(0.0).soft(target=0.0)
        points = advisor.explore_tradeoffs(simple_workload, [soft],
                                           lambdas=[0.0, 1.0])
        assert len(points) == 2
        assert points[0].workload_cost >= points[1].workload_cost - 1e-6


def _session(schema, workload, candidates=None, constraints=()):
    """A gap-0 service session and its schema context."""
    service = TuningService()
    session = service.open_session(TuningRequest(
        workload=workload, schema=schema, constraints=constraints,
        candidates=candidates,
        advisor=AdvisorSpec("cophy", {"gap_tolerance": 0.0})))
    return session, service.context_for(schema)


class TestInteractiveTuning:
    def test_add_candidates_retunes_without_rebuilding_inum(self, simple_schema,
                                                            simple_workload):
        all_candidates = list(CandidateGenerator(simple_schema).generate(
            simple_workload))
        half = len(all_candidates) // 2
        session, context = _session(simple_schema, simple_workload,
                                    candidates=all_candidates[:half])
        first = session.recommend()
        inum_calls_after_first = context.inum.template_build_calls
        model = session.bip.model
        variables, constraints = model.variable_count, model.constraint_count
        second = session.add_candidates(all_candidates[half:])
        assert context.inum.template_build_calls == inum_calls_after_first
        assert session.bip.model is model  # extended in place, not rebuilt
        # The delta build is cheaper than the initial one in work, not in
        # wall clock: it adds fewer variables and rows than were created.
        assert 0 < model.variable_count - variables < variables
        assert 0 < model.constraint_count - constraints < constraints
        # More candidates can only help the objective.
        assert second.objective_estimate <= first.objective_estimate + 1e-6

    def test_retune_matches_from_scratch_quality(self, simple_schema,
                                                 simple_workload):
        all_candidates = list(CandidateGenerator(simple_schema).generate(
            simple_workload))
        half = len(all_candidates) // 2
        session, _ = _session(simple_schema, simple_workload,
                              candidates=all_candidates[:half])
        session.recommend()
        retuned = session.add_candidates(all_candidates[half:])

        fresh_advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        fresh = fresh_advisor.tune(simple_workload)
        assert retuned.objective_estimate == pytest.approx(
            fresh.objective_estimate, rel=0.02)

    def test_update_constraints_reuses_bip(self, simple_schema, simple_workload):
        session, _ = _session(simple_schema, simple_workload)
        unconstrained = session.recommend()
        bip = session.bip
        constrained = session.update_constraints([IndexCountConstraint(limit=2)])
        assert session.bip is bip
        assert len(constrained.configuration) <= 2
        assert constrained.objective_estimate >= unconstrained.objective_estimate - 1e-6
        assert len(session.history) == 2
        assert session.last_result is constrained

    def test_bip_property_requires_initial_recommendation(self, simple_schema,
                                                          simple_workload):
        session, _ = _session(simple_schema, simple_workload)
        with pytest.raises(SolverError):
            _ = session.bip
        session.recommend()
        assert session.bip.model.variable_count > 0

    def test_add_candidates_before_recommend_falls_back_to_full_build(
            self, simple_schema, simple_workload):
        session, _ = _session(simple_schema, simple_workload)
        extra = Index("orders", ("o_total",))
        recommendation = session.add_candidates([extra])
        assert recommendation is session.last_result
        assert extra in session.candidates
        assert extra in session.bip.z_columns

    def test_remove_candidates_retunes_without_rebuilding(self, simple_schema,
                                                          simple_workload):
        session, context = _session(simple_schema, simple_workload)
        first = session.recommend()
        assert len(first.configuration) > 0
        inum_calls = context.inum.template_build_calls
        bip = session.bip
        rows = bip.model.constraint_count
        removed = list(first.configuration)[:2]

        shrunk = session.remove_candidates(removed)
        # Delta re-tune: no INUM rebuild, the BIP kept and not edited,
        # retracted indexes gone from both the candidate set and the
        # recommendation.  Each retraction is one row of the solve's export.
        assert context.inum.template_build_calls == inum_calls
        assert session.bip is bip
        assert bip.model.constraint_count == rows
        assert shrunk.extras["solve_report"].rows \
            == first.extras["solve_report"].rows + len(removed)
        for index in removed:
            assert index not in session.candidates
            assert index not in shrunk.configuration
        # Shrinking the candidate set can only hurt the objective.
        assert shrunk.objective_estimate >= first.objective_estimate - 1e-6

    def test_remove_candidates_matches_from_scratch_quality(
            self, simple_schema, simple_workload):
        session, _ = _session(simple_schema, simple_workload)
        generated = list(session.candidates)
        first = session.recommend()
        removed = list(first.configuration)[:2]
        shrunk = session.remove_candidates(removed)

        fresh_advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        survivors = [index for index in generated if index not in set(removed)]
        reduced = fresh_advisor.generate_candidates(simple_workload).subset(survivors)
        fresh = fresh_advisor.tune(simple_workload, candidates=reduced)
        assert shrunk.objective_estimate == pytest.approx(
            fresh.objective_estimate, rel=1e-6)

    def test_removed_candidates_can_be_restored(self, simple_schema,
                                                simple_workload):
        session, _ = _session(simple_schema, simple_workload)
        first = session.recommend()
        variables_after_build = session.bip.model.variable_count
        removed = list(first.configuration)[:1]
        session.remove_candidates(removed)
        restored = session.add_candidates(removed)
        # The retracted candidate kept its column: restoring it leaves the
        # retracted set and the model does not grow, and its row is gone
        # from the solve's export.
        assert session.bip.model.variable_count == variables_after_build
        assert removed[0] in session.candidates
        assert restored.extras["solve_report"].rows \
            == first.extras["solve_report"].rows
        assert restored.objective_estimate == pytest.approx(
            first.objective_estimate, rel=1e-6)

    def test_restore_after_full_rebuild_recreates_variables(self, simple_schema,
                                                            simple_workload):
        """A retraction names an index, not a row: after a rebuild without
        the retracted candidate, restoring it creates fresh columns."""
        session, _ = _session(simple_schema, simple_workload)
        first = session.recommend()
        removed = list(first.configuration)[:1]
        session.remove_candidates(removed)
        session.recommend()  # full rebuild without the removed candidate
        assert removed[0] not in session.bip.z_columns
        restored = session.add_candidates(removed)
        assert removed[0] in session.bip.z_columns
        assert restored.objective_estimate == pytest.approx(
            first.objective_estimate, rel=1e-6)

    def test_remove_candidates_before_recommend_falls_back(self, simple_schema,
                                                           simple_workload):
        session, _ = _session(simple_schema, simple_workload)
        victim = next(iter(session.candidates))
        recommendation = session.remove_candidates([victim])
        assert victim not in session.candidates
        assert victim not in session.bip.z_columns
        assert victim not in recommendation.configuration
        assert recommendation is session.last_result


# ----------------------------------------------------- generated step sequences
def _session_case(name: str):
    """A schema, a workload and its generated candidates."""
    if name == "conftest":
        schema, workload = build_simple_schema(), build_simple_workload()
    else:
        schema = tpch_schema(scale_factor=0.005)
        workload = generate_homogeneous_workload(6, seed=3,
                                                 update_fraction=0.3)
    return schema, workload, list(CandidateGenerator(schema).generate(workload))


def _constraint_sets(schema):
    storage = StorageBudgetConstraint.from_fraction_of_data
    return [[storage(schema, 1.0)], [storage(schema, 0.25)],
            [storage(schema, 0.5), IndexCountConstraint(limit=2)],
            [], [IndexWidthConstraint(max_columns=1)]]


_STEPS = st.one_of(
    st.tuples(st.just("retract"), st.integers(1, 3), st.integers(0, 99)),
    st.tuples(st.just("extend"), st.integers(1, 3)),
    st.tuples(st.just("restore"), st.integers(1, 3)),
    st.tuples(st.just("update"), st.integers(0, 4)),
    st.tuples(st.just("rebuild")))


@pytest.mark.parametrize("case", ["conftest", "tpch"])
@given(start=st.integers(0, 4), steps=st.lists(_STEPS, min_size=1,
                                                max_size=6))
@settings(max_examples=15, deadline=None)
def test_generated_session_steps_match_fresh_tunes(case, start, steps):
    """Every step of a gap-0 session, whatever interleaving of retractions,
    extensions, restores, constraint updates and rebuilds led to it, has the
    objective of a fresh gap-0 tune over the session's current candidates
    and constraints, and never recommends a retracted candidate."""
    schema, workload, generated = _session_case(case)
    constraint_sets = _constraint_sets(schema)
    gap_zero = AdvisorSpec("cophy", {"gap_tolerance": 0.0})
    reserve = generated[-4:]
    constraints = constraint_sets[start]
    session = TuningService().open_session(TuningRequest(
        workload=workload, schema=schema, constraints=constraints,
        candidates=generated[:-4], advisor=gap_zero))
    fresh = Tuner()
    retracted: list[Index] = []
    result = session.recommend()
    for step in steps:
        if step[0] == "retract":
            _, count, offset = step
            pool = list(dict.fromkeys([*result.configuration,
                                       *session.candidates]))
            chosen = [pool[(offset + i) % len(pool)]
                      for i in range(min(count, len(pool)))]
            result = session.remove_candidates(chosen)
            retracted += [index for index in chosen if index not in retracted]
        elif step[0] == "extend":
            added, reserve = reserve[:step[1]], reserve[step[1]:]
            result = session.add_candidates(added)
        elif step[0] == "restore":
            restored, retracted = retracted[:step[1]], retracted[step[1]:]
            result = session.add_candidates(restored)
        elif step[0] == "update":
            constraints = constraint_sets[step[1]]
            result = session.update_constraints(constraints)
        else:
            result = session.recommend()
        assert not set(retracted) & set(result.configuration)
        assert not set(retracted) & set(session.candidates)
        expected = fresh.tune(TuningRequest(
            workload=workload, schema=schema, constraints=constraints,
            candidates=tuple(session.candidates), advisor=gap_zero))
        assert result.objective_estimate == pytest.approx(
            expected.objective_estimate, rel=1e-9)
