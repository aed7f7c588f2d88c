"""Tests for BIPGen (Theorem 1): structure, equivalence with brute force, deltas."""

from __future__ import annotations

import functools
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.tpch import tpch_schema
from repro.core.bip_builder import BipBuilder
from repro.core.constraints import StorageBudgetConstraint
from repro.core.solver import CoPhySolver
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
from repro.workload.query import UpdateQuery
from repro.workload.workload import Workload
from tests.conftest import (
    assert_same_matrices,
    build_simple_schema,
    build_simple_workload,
    reference_bip_matrices,
)


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


def x_entries(bip) -> list[tuple]:
    """Per ``x`` column (entry of ``bip.accesses``): its statement ordinal,
    template position, table, index name (``None`` for the heap) and
    gamma."""
    names = {column: index.name for index, column in bip.z_columns.items()}
    statements = list(bip.workload)
    accesses, templates = bip.accesses, bip.templates
    entries = []
    for template, slot_row, column, gamma in zip(
            accesses.templates.tolist(), accesses.slot_rows.tolist(),
            accesses.indexes.tolist(), accesses.gammas.tolist()):
        statement = templates.statements[template]
        query = statements[statement].query
        shell = query.query_shell() if isinstance(query, UpdateQuery) else query
        # A template's slots have ascending rows, in its shell's table order.
        slot_rows = sorted(set(
            accesses.slot_rows[accesses.templates == template].tolist()))
        entries.append((int(statement), int(templates.positions[template]),
                        shell.tables[slot_rows.index(slot_row)],
                        names.get(column), gamma))
    return entries


class TestBipStructure:
    def test_variable_families_present(self, builder, simple_workload,
                                       simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        assert len(bip.z_columns) == len(candidates)
        assert len(bip.templates.columns) >= len(simple_workload)
        assert bip.accesses.columns.size, "expected slot variables"
        assert bip.model.variable_count == (
            len(bip.z_columns) + len(bip.templates.columns)
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
        assert set(bip.updates.columns.tolist()) <= set(
            bip.z_columns.values())
        assert bip.update_cost_measure().columns.size

    def test_storage_expression_uses_candidate_sizes(self, builder, simple_workload,
                                                     simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        full_selection = np.zeros(bip.model.variable_count)
        full_selection[list(bip.z_columns.values())] = 1.0
        assert bip.storage_measure().value(full_selection) == pytest.approx(
            candidates.total_size())

    def test_query_cost_expression_for_known_statement(self, builder,
                                                       simple_workload,
                                                       simple_schema):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        query = simple_workload.statements[0].query
        assert bip.query_cost_measure(query).columns.size

    @pytest.mark.parametrize("overridden", [False, True])
    def test_update_cost_expression_matches_the_objective(self, tpch,
                                                          overridden):
        workload, candidates = _tpch_with_updates(tpch, seed=5)
        weights = ({statement.query.name: 0.5 + position
                    for position, statement in enumerate(workload)
                    if position % 2 == 0} if overridden else None)
        bip = BipBuilder(InumCache(WhatIfOptimizer(tpch))).build(
            workload, candidates, statement_weights=weights)
        costs = bip.model.objective.cost_vector(bip.model.variable_count)
        measure = bip.update_cost_measure()
        assert measure.columns.size
        z = list(bip.z_columns.values())
        assert (measure.cost_vector(bip.model.variable_count)[z]
                == costs[z]).all()

    def test_no_index_access_is_dominated_by_the_heap(self, tpch,
                                                      simple_schema,
                                                      simple_workload):
        """No ``x`` column has a gamma at or above its slot's heap gamma,
        read from INUM, on a fresh or an extended build."""
        tpch_workload, tpch_candidates = _tpch_with_updates(tpch)
        indexes = list(tpch_candidates)
        builds = []
        for schema, workload, candidates, added in (
                (simple_schema, simple_workload,
                 CandidateGenerator(simple_schema).generate(simple_workload),
                 ()),
                (tpch, tpch_workload, tpch_candidates, ()),
                (tpch, tpch_workload,
                 CandidateSet(tpch, indexes[:len(indexes) // 2]),
                 indexes[len(indexes) // 2:])):
            inum = InumCache(WhatIfOptimizer(schema))
            builder = BipBuilder(inum)
            bip = builder.extend(builder.build(workload, candidates), added)
            builds.append((inum, bip))
        for inum, bip in builds:
            tensor = inum.workload_tensor(bip.workload)
            queries = [statement.query for statement in bip.workload]
            indexed = 0
            for statement, position, table, index, gamma in x_entries(bip):
                if index is None:
                    continue
                indexed += 1
                query = queries[statement]
                shell = (query.query_shell() if isinstance(query, UpdateQuery)
                         else query)
                heap = tensor.view(shell.name).value(position, table, None)
                assert gamma < heap, (statement, position, table, index)
            assert indexed, "expected index accesses"


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
        solution = MilpBackend().solve(bip.model.to_matrices())
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
        solver = CoPhySolver(gap_tolerance=0.0)
        report = solver.solve(bip, [StorageBudgetConstraint(budget)])
        chosen_cost = inum.workload_cost(simple_workload, report.configuration)
        chosen_storage = sum(candidates.size_of(i) for i in report.configuration)
        brute_cost, brute_subset = brute_force_best(
            inum, simple_workload, candidates, storage_budget=budget)
        assert chosen_storage <= budget * (1 + 1e-9)
        assert chosen_cost == pytest.approx(brute_cost, rel=1e-6)


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
            assert index in bip.z_columns

    def test_extend_is_equivalent_to_building_from_scratch(self, simple_schema,
                                                           simple_workload,
                                                           tpch):
        """An extended BIP holds a fresh build's templates and accesses
        (with their gammas) and reaches its optimum under a storage budget,
        also when the added candidates make a template usable."""
        tpch_workload, tpch_candidates = _tpch_with_updates(tpch)
        simple = list(CandidateGenerator(simple_schema).generate(
            simple_workload))
        tpch_indexes = list(tpch_candidates)
        half = len(tpch_indexes) // 2
        for schema, workload, subset, added in (
                (simple_schema, simple_workload, simple[:6], simple[6:12]),
                (tpch, tpch_workload, tpch_indexes[:half],
                 tpch_indexes[half:])):
            incremental_builder = BipBuilder(
                InumCache(WhatIfOptimizer(schema)))
            incremental = incremental_builder.build(
                workload, CandidateSet(schema, subset))
            incremental_builder.extend(incremental, added)
            fresh = BipBuilder(InumCache(WhatIfOptimizer(schema))).build(
                workload, CandidateSet(schema, subset + added))

            assert Counter(x_entries(incremental)) == Counter(x_entries(fresh))
            assert sorted(zip(incremental.templates.statements.tolist(),
                              incremental.templates.positions.tolist())) == (
                sorted(zip(fresh.templates.statements.tolist(),
                           fresh.templates.positions.tolist())))
            assert incremental.model.variable_count == fresh.model.variable_count
            assert (incremental.model.constraint_count
                    == fresh.model.constraint_count)
            budget = [StorageBudgetConstraint(
                0.3 * CandidateSet(schema, subset + added).total_size())]
            objectives = [
                CoPhySolver(gap_tolerance=0.0).solve(bip, budget).objective
                for bip in (incremental, fresh)]
            assert objectives[0] == pytest.approx(objectives[1], rel=1e-9)

    def test_extend_adds_one_column_per_candidate(self, simple_schema,
                                                  simple_workload, builder):
        """A candidate named twice in one call gets one ``z`` column, and
        every column the extension adds appears in a row or in the
        objective."""
        candidates = list(CandidateGenerator(simple_schema).generate(
            simple_workload))
        bip = builder.build(simple_workload,
                            CandidateSet(simple_schema, candidates[:4]))
        before = bip.model.variable_count
        reference = builder.build(simple_workload,
                                  CandidateSet(simple_schema, candidates[:5]))
        builder.extend(bip, [candidates[4], candidates[4]])
        assert bip.model.variable_count == reference.model.variable_count
        assert [column for column in bip.z_columns.values()
                if column >= before] == [before]
        matrices = bip.model.to_matrices()
        used = np.zeros(bip.model.variable_count, dtype=bool)
        for block in ("A_ub", "A_eq"):
            if matrices[block] is not None:
                used[matrices[block].nonzero()[1]] = True
        used[np.flatnonzero(matrices["c"])] = True
        assert used[before:].all()

    def test_extend_with_duplicates_is_a_no_op(self, simple_schema, simple_workload,
                                               builder):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = builder.build(simple_workload, candidates)
        variables_before = bip.model.variable_count
        builder.extend(bip, list(candidates)[:3])
        assert bip.model.variable_count == variables_before


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
    """Theorem 1 against brute force on generated workloads: at gap 0,
    HiGHS reaches the cheapest INUM workload cost over every
    storage-feasible subset of (at most six) candidates."""
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
    objective = CoPhySolver(gap_tolerance=0.0).solve(
        bip, [StorageBudgetConstraint(budget)]).objective
    brute_cost, _ = brute_force_best(inum, workload, candidates,
                                     storage_budget=budget)
    assert objective == pytest.approx(brute_cost, rel=1e-9)


@functools.cache
def _theorem_case(name: str) -> tuple[InumCache, object]:
    """The conftest or the TPC-H-with-UPDATEs BIP, built once, with its INUM."""
    if name == "conftest":
        schema, workload = build_simple_schema(), build_simple_workload()
        candidates = CandidateGenerator(schema).generate(workload)
    else:
        schema = tpch_schema(scale_factor=0.005)
        workload, candidates = _tpch_with_updates(schema)
    inum = InumCache(WhatIfOptimizer(schema))
    return inum, BipBuilder(inum).build(workload, candidates)


@pytest.mark.parametrize("case", ["conftest", "tpch"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_theorem_one_holds_per_configuration(case, data):
    """Theorem 1 for every configuration, not only the optimum: with the
    ``z`` bounds of the export fixed to a candidate subset X, the gap-0
    objective is INUM's workload cost of X."""
    inum, bip = _theorem_case(case)
    indexes = list(bip.candidates)
    chosen = data.draw(st.lists(st.sampled_from(indexes), unique=True,
                                max_size=len(indexes)))
    matrices = dict(bip.model.to_matrices())
    bounds = matrices["bounds"].copy()
    for index, column in bip.z_columns.items():
        bounds[column] = 1.0 if index in chosen else 0.0
    matrices["bounds"] = bounds
    solution = MilpBackend(gap_tolerance=0.0).solve(matrices)
    assert solution.objective == pytest.approx(
        inum.workload_cost(bip.workload, Configuration(chosen)), rel=1e-9)
