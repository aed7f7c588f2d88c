"""Tests for the CoPhy Solver component, soft-constraint Pareto exploration,
the advisor facade and interactive tuning sessions."""

from __future__ import annotations

import pytest

from repro.api import make_advisor
from repro.core.advisor import CoPhyAdvisor
from repro.core.bip_builder import BipBuilder
from repro.core.constraints import IndexCountConstraint, StorageBudgetConstraint
from repro.core.soft_constraints import ParetoExplorer
from repro.core.solver import CoPhySolver
from repro.exceptions import InfeasibleProblemError
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.lp.model import Objective
from repro.optimizer.whatif import WhatIfOptimizer
from tests.conftest import assert_left_as_found, model_state


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
        yielding its first row, or a backend that raises, leaves no rows, no
        relaxation and no replaced objective behind."""
        from repro.lp import highs_backend

        _, _, candidates, bip = tuning_setup
        first_row = StorageBudgetConstraint(candidates.total_size())

        class RaisesOnSecondRow(StorageBudgetConstraint):
            def to_linear(self, bip):
                yield from first_row.to_linear(bip)
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


class TestInteractiveTuning:
    def test_add_candidates_retunes_without_rebuilding_inum(self, simple_schema,
                                                            simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        all_candidates = list(advisor.generate_candidates(simple_workload))
        initial = advisor.candidate_generator.generate(simple_workload)
        initial = initial.subset(all_candidates[: len(all_candidates) // 2])
        session = advisor.create_session(simple_workload, candidates=initial)
        first = session.recommend()
        inum_calls_after_first = advisor.inum.template_build_calls
        model = session.bip.model
        variables, constraints = model.variable_count, model.constraint_count
        second = session.add_candidates(all_candidates[len(all_candidates) // 2:])
        assert advisor.inum.template_build_calls == inum_calls_after_first
        assert session.bip.model is model  # extended in place, not rebuilt
        # The delta build is cheaper than the initial one in work, not in
        # wall clock: it adds fewer variables and rows than were created.
        assert 0 < model.variable_count - variables < variables
        assert 0 < model.constraint_count - constraints < constraints
        # More candidates can only help the objective.
        assert second.objective_estimate <= first.objective_estimate + 1e-6

    def test_retune_matches_from_scratch_quality(self, simple_schema,
                                                 simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        all_candidates = list(advisor.generate_candidates(simple_workload))
        half = advisor.generate_candidates(simple_workload).subset(
            all_candidates[: len(all_candidates) // 2])
        session = advisor.create_session(simple_workload, candidates=half)
        session.recommend()
        retuned = session.add_candidates(
            all_candidates[len(all_candidates) // 2:])

        fresh_advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        fresh = fresh_advisor.tune(simple_workload)
        assert retuned.objective_estimate == pytest.approx(
            fresh.objective_estimate, rel=0.02)

    def test_update_constraints_reuses_bip(self, simple_schema, simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        session = advisor.create_session(simple_workload)
        unconstrained = session.recommend()
        constrained = session.update_constraints([IndexCountConstraint(limit=2)])
        assert len(constrained.configuration) <= 2
        assert constrained.objective_estimate >= unconstrained.objective_estimate - 1e-6
        assert len(session.history) == 2
        assert session.last_recommendation is constrained

    def test_bip_property_requires_initial_recommendation(self, simple_schema,
                                                          simple_workload):
        advisor = make_advisor("cophy", simple_schema)
        session = advisor.create_session(simple_workload)
        with pytest.raises(Exception):
            _ = session.bip
        session.recommend()
        assert session.bip.model.variable_count > 0

    def test_add_candidates_before_recommend_falls_back_to_full_build(
            self, simple_schema, simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        session = advisor.create_session(simple_workload)
        extra = Index("orders", ("o_total",))
        recommendation = session.add_candidates([extra])
        assert recommendation is session.last_recommendation
        assert extra in session.candidates

    def test_remove_candidates_retunes_without_rebuilding(self, simple_schema,
                                                          simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        session = advisor.create_session(simple_workload)
        first = session.recommend()
        assert len(first.configuration) > 0
        inum_calls = advisor.inum.template_build_calls
        bip = session.bip
        removed = list(first.configuration)[:2]

        shrunk = session.remove_candidates(removed)
        # Delta re-tune: no INUM rebuild, the BIP kept, retracted indexes
        # gone from both the candidate set and the recommendation.
        assert advisor.inum.template_build_calls == inum_calls
        assert session.bip is bip
        for index in removed:
            assert index not in session.candidates
            assert index not in shrunk.configuration
        # Shrinking the candidate set can only hurt the objective.
        assert shrunk.objective_estimate >= first.objective_estimate - 1e-6

    def test_remove_candidates_matches_from_scratch_quality(
            self, simple_schema, simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        session = advisor.create_session(simple_workload)
        first = session.recommend()
        removed = list(first.configuration)[:2]
        shrunk = session.remove_candidates(removed)

        fresh_advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        survivors = [index for index in advisor.generate_candidates(simple_workload)
                     if index not in set(removed)]
        reduced = fresh_advisor.generate_candidates(simple_workload).subset(survivors)
        fresh = fresh_advisor.tune(simple_workload, candidates=reduced)
        assert shrunk.objective_estimate == pytest.approx(
            fresh.objective_estimate, rel=1e-6)

    def test_removed_candidates_can_be_restored(self, simple_schema,
                                                simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        session = advisor.create_session(simple_workload)
        first = session.recommend()
        variables_after_build = session.bip.model.variable_count
        removed = list(first.configuration)[:1]
        session.remove_candidates(removed)
        restored = session.add_candidates(removed)
        # Restoring drops the pin rows instead of growing the model.
        assert session.bip.model.variable_count == variables_after_build
        assert removed[0] in session.candidates
        assert restored.objective_estimate == pytest.approx(
            first.objective_estimate, rel=1e-6)

    def test_restore_after_full_rebuild_recreates_variables(self, simple_schema,
                                                            simple_workload):
        """A rebuild clears the pin registry: re-adding a candidate that was
        removed before the rebuild must create fresh variables, not no-op on
        the discarded model."""
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        session = advisor.create_session(simple_workload)
        first = session.recommend()
        removed = list(first.configuration)[:1]
        session.remove_candidates(removed)
        session.recommend()  # full rebuild without the removed candidate
        assert removed[0] not in session.bip.z_variables
        restored = session.add_candidates(removed)
        assert removed[0] in session.bip.z_variables
        assert restored.objective_estimate == pytest.approx(
            first.objective_estimate, rel=1e-6)

    def test_remove_candidates_before_recommend_falls_back(self, simple_schema,
                                                           simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        session = advisor.create_session(simple_workload)
        victim = next(iter(session.candidates))
        recommendation = session.remove_candidates([victim])
        assert victim not in session.candidates
        assert victim not in recommendation.configuration
        assert recommendation is session.last_recommendation
