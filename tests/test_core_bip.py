"""Tests for BIPGen (Theorem 1): structure, equivalence with brute force, deltas."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.bip_builder import BipBuilder
from repro.core.constraints import StorageBudgetConstraint
from repro.core.solver import CoPhySolver, SolverBackend
from repro.exceptions import SolverError
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.lp.highs_backend import MilpBackend
from repro.lp.model import RowKind
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import (
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
)
from repro.workload.workload import Workload
from tests.conftest import assert_same_matrices, reference_bip_matrices


@pytest.fixture
def inum(simple_schema) -> InumCache:
    return InumCache(WhatIfOptimizer(simple_schema))


@pytest.fixture
def builder(inum) -> BipBuilder:
    return BipBuilder(inum)


def brute_force_best(inum: InumCache, workload: Workload,
                     candidates: CandidateSet,
                     max_size: int | None = None,
                     storage_budget: float | None = None) -> tuple[float, set]:
    """Exhaustively search every candidate subset for the cheapest workload cost."""
    best_cost = float("inf")
    best_subset: set = set()
    indexes = list(candidates)
    for size in range(0, len(indexes) + 1):
        if max_size is not None and size > max_size:
            break
        for subset in itertools.combinations(indexes, size):
            if storage_budget is not None:
                storage = sum(candidates.size_of(index) for index in subset)
                if storage > storage_budget:
                    continue
            cost = inum.workload_cost(workload, Configuration(subset))
            if cost < best_cost - 1e-9:
                best_cost = cost
                best_subset = set(subset)
    return best_cost, best_subset


class TestBipStructure:
    def test_variable_families_present(self, builder, simple_workload,
                                       simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        assert len(bip.z_variables) == len(candidates)
        assert len(bip.templates.columns) >= len(simple_workload)
        assert bip.accesses.columns.size, "expected slot variables"
        assert bip.model.variable_count == (
            len(bip.z_variables) + len(bip.templates.columns)
            + len(bip.accesses.columns))

    def test_one_template_constraint_per_statement(self, builder, simple_workload,
                                                   simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        template_rows = np.flatnonzero(bip.rows.kinds == RowKind.EQUAL)
        assert len(template_rows) == len(simple_workload)
        # Each one covers exactly its statement's y columns.
        for ordinal, row in enumerate(template_rows):
            columns = bip.rows.indices[bip.rows.indptr[row]:
                                       bip.rows.indptr[row + 1]]
            assert columns.tolist() == bip.templates.columns[
                bip.templates.statements == ordinal].tolist()

    def test_slot_constraints_cover_every_slot(self, builder, simple_workload,
                                               simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        assert set(bip.accesses.slot_rows.tolist()) == set(
            np.flatnonzero(bip.rows.kinds == RowKind.RELAXABLE).tolist())

    def test_statistics_capture_beta_and_gamma(self, builder, simple_workload,
                                               simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        assert bip.templates.betas.size == bip.templates.columns.size
        assert bip.accesses.gammas.size == bip.accesses.columns.size
        assert set(bip.statistics) == {"variables", "constraints", "candidates"}
        assert bip.statistics["variables"] == float(bip.model.variable_count)

    def test_update_costs_attached_to_z_variables(self, builder, simple_workload,
                                                  simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        assert bip.updates.costs.size, "expected update-maintenance coefficients"
        assert set(bip.updates.columns.tolist()) <= {
            variable.index for variable in bip.z_variables.values()}
        update_expression = bip.update_cost_expression()
        assert not update_expression.is_empty()

    def test_storage_expression_uses_candidate_sizes(self, builder, simple_workload,
                                                     simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        expression = bip.storage_expression()
        full_selection = {variable: 1.0 for variable in bip.z_variables.values()}
        assert expression.evaluate(full_selection) == pytest.approx(
            candidates.total_size())

    def test_query_cost_expression_for_known_statement(self, builder,
                                                       simple_workload,
                                                       simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        query = simple_workload.statements[0].query
        expression = bip.query_cost_expression(query)
        assert not expression.is_empty()

    def test_unknown_index_variable_lookup_raises(self, builder, simple_workload,
                                                  simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        with pytest.raises(SolverError):
            bip.index_variable(Index("orders", ("o_id", "o_total", "o_status")))


class TestTheoremOneEquivalence:
    """The heart of the reproduction: the BIP optimum equals the true optimum."""

    def _small_instance(self, simple_schema, simple_workload):
        # A hand-picked, diverse candidate set small enough for brute force.
        candidates = CandidateSet(simple_schema, [
            Index("orders", ("o_customer",), include_columns=("o_total",)),
            Index("orders", ("o_date",)),
            Index("orders", ("o_status", "o_date")),
            Index("items", ("i_shipdate",)),
            Index("items", ("i_order",)),
            Index("items", ("i_shipdate",), include_columns=("i_price",)),
        ])
        return candidates

    def test_unconstrained_optimum_matches_brute_force(self, simple_schema,
                                                       simple_workload, inum,
                                                       builder):
        candidates = self._small_instance(simple_schema, simple_workload)
        bip = builder.build(simple_workload, candidates)
        solution = MilpBackend().solve(bip.model)
        chosen = bip.extract_configuration(solution)
        bip_cost = inum.workload_cost(simple_workload, chosen)
        brute_cost, _ = brute_force_best(inum, simple_workload, candidates)
        assert bip_cost == pytest.approx(brute_cost, rel=1e-6)
        # The BIP objective itself must equal the INUM cost of its own solution.
        assert solution.objective == pytest.approx(bip_cost, rel=1e-6)

    def test_storage_constrained_optimum_matches_brute_force(self, simple_schema,
                                                             simple_workload, inum,
                                                             builder):
        from repro.core.constraints import StorageBudgetConstraint

        candidates = self._small_instance(simple_schema, simple_workload)
        budget = 0.4 * candidates.total_size()
        bip = builder.build(simple_workload, candidates)
        solver = CoPhySolver(backend=SolverBackend.MILP, gap_tolerance=0.0)
        report = solver.solve(bip, [StorageBudgetConstraint(budget)])
        chosen_cost = inum.workload_cost(simple_workload, report.configuration)
        chosen_storage = sum(candidates.size_of(i) for i in report.configuration)
        brute_cost, brute_subset = brute_force_best(
            inum, simple_workload, candidates, storage_budget=budget)
        assert chosen_storage <= budget * (1 + 1e-9)
        assert chosen_cost == pytest.approx(brute_cost, rel=1e-6)

    def test_branch_and_bound_agrees_with_milp(self, simple_schema, simple_workload,
                                               builder):
        candidates = self._small_instance(simple_schema, simple_workload)
        bip = builder.build(simple_workload, candidates)
        milp = CoPhySolver(backend=SolverBackend.MILP, gap_tolerance=0.0).solve(bip)
        bnb = CoPhySolver(backend=SolverBackend.BRANCH_AND_BOUND,
                          gap_tolerance=0.0).solve(bip)
        assert bnb.objective == pytest.approx(milp.objective, rel=1e-6)


class TestIncrementalExtension:
    def test_extend_adds_variables_and_preserves_existing(self, simple_schema,
                                                          simple_workload, builder):
        generator = CandidateGenerator(simple_schema)
        all_candidates = list(generator.generate(simple_workload))
        initial = CandidateSet(simple_schema, all_candidates[:6])
        bip = builder.build(simple_workload, initial)
        variables_before = bip.model.variable_count
        added = all_candidates[6:10]
        builder.extend(bip, added)
        assert bip.model.variable_count > variables_before
        for index in added:
            assert index in bip.candidates
            assert index in bip.z_variables

    def test_extend_is_equivalent_to_building_from_scratch(self, simple_schema,
                                                           simple_workload):
        generator = CandidateGenerator(simple_schema)
        all_candidates = list(generator.generate(simple_workload))
        subset, added = all_candidates[:6], all_candidates[6:12]

        shared_inum = InumCache(WhatIfOptimizer(simple_schema))
        incremental_builder = BipBuilder(shared_inum)
        incremental = incremental_builder.build(
            simple_workload, CandidateSet(simple_schema, subset))
        incremental_builder.extend(incremental, added)
        incremental_solution = MilpBackend().solve(incremental.model)

        fresh_inum = InumCache(WhatIfOptimizer(simple_schema))
        fresh_builder = BipBuilder(fresh_inum)
        fresh = fresh_builder.build(simple_workload,
                                    CandidateSet(simple_schema, subset + added))
        fresh_solution = MilpBackend().solve(fresh.model)

        assert incremental_solution.objective == pytest.approx(
            fresh_solution.objective, rel=1e-6)

    def test_extend_with_duplicates_is_a_no_op(self, simple_schema, simple_workload,
                                               builder):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        variables_before = bip.model.variable_count
        builder.extend(bip, list(candidates)[:3])
        assert bip.model.variable_count == variables_before

    def test_warm_start_from_configuration_is_feasible(self, simple_schema,
                                                       simple_workload, builder):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        solution = MilpBackend().solve(bip.model)
        configuration = bip.extract_configuration(solution)
        warm = bip.warm_start_from(configuration)
        assert bip.model.is_feasible_assignment(warm)
        # The warm start selects exactly the indexes of the configuration.
        for index, variable in bip.z_variables.items():
            expected = 1.0 if index in configuration else 0.0
            assert warm[variable.index] == expected


def _tpch_with_updates(tpch, size=8, seed=3):
    workload = generate_homogeneous_workload(size, seed=seed,
                                             update_fraction=0.4)
    assert workload.update_statements(), "expected UPDATE statements"
    return workload, CandidateGenerator(tpch).generate(workload)


class TestExportParity:
    """``to_matrices()`` of a built BIP equals the scalar triplet oracle
    bit for bit — the parity contract of the array assembly."""

    def test_conftest_workload(self, simple_schema, simple_workload, inum,
                               builder):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        assert_same_matrices(
            bip.model.to_matrices(),
            reference_bip_matrices(inum, simple_workload, candidates))

    def test_tpch_workload_with_updates(self, tpch):
        workload, candidates = _tpch_with_updates(tpch)
        inum = InumCache(WhatIfOptimizer(tpch))
        bip = BipBuilder(inum).build(workload, candidates)
        assert_same_matrices(bip.model.to_matrices(),
                             reference_bip_matrices(inum, workload, candidates))

    def test_statement_weights(self, tpch):
        workload, candidates = _tpch_with_updates(tpch, seed=5)
        weights = {statement.query.name: 0.5 + position
                   for position, statement in enumerate(workload)
                   if position % 2 == 0}
        inum = InumCache(WhatIfOptimizer(tpch))
        bip = BipBuilder(inum).build(workload, candidates,
                                     statement_weights=weights)
        assert_same_matrices(
            bip.model.to_matrices(),
            reference_bip_matrices(inum, workload, candidates,
                                   statement_weights=weights))


@pytest.mark.parametrize("kind,updates,seed", [
    ("homogeneous", 0.0, 11), ("homogeneous", 0.5, 12),
    ("heterogeneous", 0.0, 15), ("heterogeneous", 0.5, 14)])
def test_solvers_agree_with_brute_force_on_generated_bips(tpch, kind, updates,
                                                          seed):
    """Theorem 1 against brute force on generated workloads: at gap 0, B&B
    and HiGHS reach one objective, and it is the cheapest INUM workload
    cost over every storage-feasible subset of (at most six) candidates."""
    if kind == "homogeneous":
        workload = generate_homogeneous_workload(5, seed=seed,
                                                 update_fraction=updates)
    else:
        workload = generate_heterogeneous_workload(5, seed=seed,
                                                   update_fraction=updates,
                                                   schema=tpch)
    generated = list(CandidateGenerator(tpch).generate(workload))
    step = max(1, len(generated) // 6)
    candidates = CandidateSet(tpch, generated[::step][:6])
    budget = 0.4 * candidates.total_size()
    inum = InumCache(WhatIfOptimizer(tpch))
    bip = BipBuilder(inum).build(workload, candidates)
    objectives = [
        CoPhySolver(backend=backend, gap_tolerance=0.0).solve(
            bip, [StorageBudgetConstraint(budget)]).objective
        for backend in (SolverBackend.MILP, SolverBackend.BRANCH_AND_BOUND)]
    brute_cost, _ = brute_force_best(inum, workload, candidates,
                                     storage_budget=budget)
    assert objectives[1] == pytest.approx(objectives[0], rel=1e-9)
    assert objectives[0] == pytest.approx(brute_cost, rel=1e-9)


def reference_warm_start(bip, configuration: Configuration) -> np.ndarray:
    """Scalar oracle for ``CophyBip.warm_start_from``: per statement, each
    template costs beta plus, slot by slot in table order, its cheapest
    allowed access (the heap or a chosen index; the first on ties); the
    first cheapest feasible template is switched on with its picks."""
    values = np.zeros(bip.model.variable_count)
    chosen = {bip.z_variables[index].index for index in configuration.indexes}
    for column in chosen:
        values[column] = 1.0
    templates, accesses = bip.templates, bip.accesses
    for statement in sorted(set(templates.statements.tolist())):
        best = None
        for template in np.flatnonzero(templates.statements == statement):
            total, picks = float(templates.betas[template]), []
            for slot_row in sorted(set(
                    accesses.slot_rows[accesses.templates == template].tolist())):
                options = [(float(accesses.gammas[k]), int(accesses.columns[k]))
                           for k in np.flatnonzero(accesses.slot_rows == slot_row)
                           if accesses.indexes[k] < 0
                           or int(accesses.indexes[k]) in chosen]
                if not options:
                    break
                gamma, column = min(options, key=lambda option: option[0])
                total += gamma
                picks.append(column)
            else:
                if best is None or total < best[0]:
                    best = (total, int(templates.columns[template]), picks)
        if best is not None:
            values[[best[1], *best[2]]] = 1.0
    return values


def test_warm_start_matches_the_scalar_oracle(tpch):
    workload, candidates = _tpch_with_updates(tpch, size=10, seed=7)
    inum = InumCache(WhatIfOptimizer(tpch))
    builder = BipBuilder(inum)
    indexes = list(candidates)
    bip = builder.build(workload, CandidateSet(tpch, indexes[::2]))
    for extended in (False, True):
        if extended:
            builder.extend(bip, indexes[1::2])
        present = list(bip.candidates)
        for configuration in (Configuration(()), Configuration(present[::3]),
                              Configuration(present[1::2]),
                              Configuration(present)):
            warm = bip.warm_start_from(configuration)
            assert np.array_equal(warm, reference_warm_start(bip, configuration))
            assert bip.model.is_feasible_assignment(warm)
