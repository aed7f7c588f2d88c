"""Tests for the DBA constraint language and its linear translation."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from scipy import sparse

from repro.catalog.tpch import tpch_schema
from repro.core.bip_builder import BipBuilder
from repro.core.constraints import (
    ClusteredIndexConstraint,
    ComparisonSense,
    IndexCountConstraint,
    IndexWidthConstraint,
    QueryCostConstraint,
    QuerySpeedupGenerator,
    SoftConstraint,
    StorageBudgetConstraint,
    UpdateCostConstraint,
    split_constraints,
)
from repro.core.solver import CoPhySolver
from repro.exceptions import ConstraintError, InfeasibleProblemError
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import generate_homogeneous_workload
from repro.workload.query import SelectQuery, StatementKind, UpdateQuery
from tests.conftest import (assert_same_matrices, build_simple_schema,
                            build_simple_workload)


@pytest.fixture
def tuning_setup(simple_schema, simple_workload):
    optimizer = WhatIfOptimizer(simple_schema)
    inum = InumCache(optimizer)
    candidates = CandidateGenerator(simple_schema).generate(simple_workload)
    bip = BipBuilder(inum).build(simple_workload, candidates)
    return optimizer, inum, candidates, bip


def _solve(bip, constraints, gap=0.0):
    solver = CoPhySolver(gap_tolerance=gap)
    return solver.solve(bip, hard_constraints=constraints)


class TestStorageBudgetConstraint:
    def test_budget_respected(self, tuning_setup):
        _, _, candidates, bip = tuning_setup
        budget = 0.25 * candidates.total_size()
        report = _solve(bip, [StorageBudgetConstraint(budget)])
        used = sum(candidates.size_of(index) for index in report.configuration)
        assert used <= budget * (1 + 1e-9)

    def test_tighter_budget_never_improves_cost(self, tuning_setup):
        _, _, candidates, bip = tuning_setup
        loose = _solve(bip, [StorageBudgetConstraint(candidates.total_size())])
        tight = _solve(bip, [StorageBudgetConstraint(0.1 * candidates.total_size())])
        assert tight.objective >= loose.objective - 1e-6

    def test_from_fraction_of_data(self, simple_schema):
        constraint = StorageBudgetConstraint.from_fraction_of_data(simple_schema, 0.5)
        assert constraint.budget_bytes == pytest.approx(
            0.5 * simple_schema.total_size_bytes)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConstraintError):
            StorageBudgetConstraint(-1.0)

    def test_zero_budget_selects_nothing(self, tuning_setup):
        _, _, _, bip = tuning_setup
        report = _solve(bip, [StorageBudgetConstraint(0.0)])
        assert len(report.configuration) == 0


class TestIndexCountConstraint:
    def test_limits_total_indexes(self, tuning_setup):
        _, _, _, bip = tuning_setup
        report = _solve(bip, [IndexCountConstraint(limit=2)])
        assert len(report.configuration) <= 2

    def test_per_table_selector(self, tuning_setup):
        _, _, _, bip = tuning_setup
        constraint = IndexCountConstraint(
            limit=1, selector=lambda index: index.table == "items",
            name="items_limit")
        report = _solve(bip, [constraint])
        assert len(report.configuration.indexes_on("items")) <= 1

    def test_at_least_sense(self, tuning_setup):
        _, _, _, bip = tuning_setup
        constraint = IndexCountConstraint(limit=3, sense=ComparisonSense.AT_LEAST)
        report = _solve(bip, [constraint])
        assert len(report.configuration) >= 3

    def test_unsatisfiable_at_least_on_empty_selector(self, tuning_setup):
        _, _, _, bip = tuning_setup
        constraint = IndexCountConstraint(
            limit=1, selector=lambda index: index.table == "no_such_table",
            sense=ComparisonSense.AT_LEAST)
        with pytest.raises(ConstraintError):
            constraint.to_linear(bip)


class TestWidthAndClusteredConstraints:
    def test_width_constraint_excludes_wide_indexes(self, tuning_setup):
        _, _, _, bip = tuning_setup
        report = _solve(bip, [IndexWidthConstraint(max_columns=1)])
        assert all(index.width <= 1 for index in report.configuration)

    def test_clustered_constraint_allows_one_per_table(self, tuning_setup):
        _, _, _, bip = tuning_setup
        report = _solve(bip, [ClusteredIndexConstraint()])
        for table in ("orders", "items"):
            assert len(report.configuration.clustered_indexes_on(table)) <= 1

    def test_clustered_rows_only_for_tables_with_multiple_candidates(self,
                                                                     tuning_setup):
        _, _, _, bip = tuning_setup
        rows = ClusteredIndexConstraint().to_linear(bip)
        # Every generated row must involve at least two clustered candidates.
        assert (np.diff(rows.indptr) >= 2).all()


class TestQueryCostConstraints:
    def test_single_query_constraint_enforced(self, tuning_setup, simple_workload):
        optimizer, inum, _, bip = tuning_setup
        query = simple_workload.statements[0].query
        baseline_cost = inum.cost(query, Configuration())
        constraint = QueryCostConstraint(query=query, reference_cost=baseline_cost,
                                         factor=0.6)
        report = _solve(bip, [constraint])
        achieved = inum.cost(query, report.configuration)
        assert achieved <= 0.6 * baseline_cost * (1 + 1e-6)

    def test_unknown_query_rejected(self, tuning_setup):
        _, _, _, bip = tuning_setup
        foreign = SelectQuery(tables=("orders",), name="not_in_workload")
        constraint = QueryCostConstraint(query=foreign, reference_cost=10.0)
        with pytest.raises(ConstraintError):
            constraint.to_linear(bip)

    def test_invalid_parameters_rejected(self, simple_workload):
        query = simple_workload.statements[0].query
        with pytest.raises(ConstraintError):
            QueryCostConstraint(query=query, reference_cost=-1.0)
        with pytest.raises(ConstraintError):
            QueryCostConstraint(query=query, reference_cost=1.0, factor=0.0)

    def test_generator_expands_to_all_selects(self, tuning_setup, simple_workload):
        optimizer, inum, _, bip = tuning_setup
        references = {
            statement.query.name: inum.statement_cost(statement.query, Configuration())
            for statement in simple_workload.select_statements()}
        generator = QuerySpeedupGenerator(reference_costs=references, factor=0.9)
        rows = generator.to_linear(bip)
        assert rows.row_count == len(simple_workload.select_statements())

    def test_generator_with_filter(self, tuning_setup, simple_workload):
        optimizer, inum, _, bip = tuning_setup
        references = {
            statement.query.name: inum.statement_cost(statement.query, Configuration())
            for statement in simple_workload.select_statements()}
        generator = QuerySpeedupGenerator(
            reference_costs=references, factor=0.9,
            statement_filter=lambda q: "join" in q.name)
        assert generator.to_linear(bip).row_count == 1

    def test_generator_with_no_matches_rejected(self, tuning_setup):
        _, _, _, bip = tuning_setup
        generator = QuerySpeedupGenerator(reference_costs={}, factor=0.9)
        with pytest.raises(ConstraintError):
            generator.to_linear(bip)

    def test_infeasible_speedup_raises(self, tuning_setup, simple_workload):
        _, inum, _, bip = tuning_setup
        query = simple_workload.statements[1].query  # full-scan aggregate query
        baseline_cost = inum.cost(query, Configuration())
        impossible = QueryCostConstraint(query=query, reference_cost=baseline_cost,
                                         factor=1e-9)
        with pytest.raises(InfeasibleProblemError):
            _solve(bip, [impossible])


class TestUpdateCostConstraint:
    def test_bounds_total_maintenance(self, tuning_setup, simple_workload):
        optimizer, _, _, bip = tuning_setup
        report = _solve(bip, [UpdateCostConstraint(limit=0.0)])
        # With a zero maintenance budget no index on the updated table that
        # stores a written column may be selected.
        update = simple_workload.statements[3].query
        for index in report.configuration.indexes_on("orders"):
            assert optimizer.update_maintenance_cost(index, update) == 0.0

    def test_negative_limit_rejected(self):
        with pytest.raises(ConstraintError):
            UpdateCostConstraint(limit=-5.0)


class TestSoftConstraintWrapper:
    def test_soft_wrapper_exposes_measure_and_target(self, tuning_setup):
        _, _, candidates, bip = tuning_setup
        soft = StorageBudgetConstraint(12345.0).soft()
        assert isinstance(soft, SoftConstraint)
        assert soft.target_value() == pytest.approx(12345.0)
        assert soft.measure(bip).columns.size
        assert "soft" in soft.name

    def test_explicit_target_overrides_bound(self):
        soft = StorageBudgetConstraint(100.0).soft(target=5.0)
        assert soft.target_value() == pytest.approx(5.0)

    def test_unsupported_soft_constraint_rejected(self, tuning_setup):
        _, _, _, bip = tuning_setup
        soft = ClusteredIndexConstraint().soft(target=1.0)
        with pytest.raises(ConstraintError):
            soft.measure(bip)

    def test_split_constraints(self):
        hard = StorageBudgetConstraint(10.0)
        soft = StorageBudgetConstraint(10.0).soft()
        hard_list, soft_list = split_constraints([hard, soft])
        assert hard_list == [hard]
        assert soft_list == [soft]
        with pytest.raises(ConstraintError):
            split_constraints(["not a constraint"])  # type: ignore[list-item]


# ------------------------------------------------- every hard kind, by hand
@functools.cache
def _rows_case(name: str):
    """The conftest or the TPC-H-with-UPDATEs BIP, with two clustered
    candidates on one table and one on another, built once."""
    if name == "conftest":
        schema, workload = build_simple_schema(), build_simple_workload()
    else:
        schema = tpch_schema(scale_factor=0.005)
        workload = generate_homogeneous_workload(8, seed=3,
                                                 update_fraction=0.4)
    candidates = CandidateGenerator(schema).generate(workload)
    first, second = sorted({index.table for index in candidates})[:2]
    columns = [column.name for column in schema.table(first).columns]
    candidates.add_all([
        Index(first, (columns[0],), clustered=True),
        Index(first, (columns[1],), clustered=True),
        Index(second, (schema.table(second).columns[0].name,),
              clustered=True)])
    inum = InumCache(WhatIfOptimizer(schema))
    return inum, candidates, BipBuilder(inum).build(workload, candidates)


def _query_cost_row(bip, query, bound):
    """``cost(q, X*) <= bound``: the betas of the ``y`` columns and the
    gammas of the ``x`` columns of the last statement costed as ``q``."""
    def shell(statement_query):
        return (statement_query.query_shell()
                if isinstance(statement_query, UpdateQuery)
                else statement_query)

    ordinal = [position for position, statement in enumerate(bip.workload)
               if shell(statement.query).name == shell(query).name][-1]
    templates, accesses = bip.templates, bip.accesses
    row = {}
    for template in np.flatnonzero(templates.statements == ordinal):
        row[int(templates.columns[template])] = float(templates.betas[template])
        for access in np.flatnonzero(accesses.templates == template):
            row[int(accesses.columns[access])] = float(accesses.gammas[access])
    return ({column: value for column, value in row.items() if value != 0.0},
            bound)


def _hand_rows(kind, inum, candidates, bip):
    """A hard constraint of ``kind`` and its ``<=`` rows, each
    ``({column: coefficient}, rhs)`` with no zero coefficient."""
    z = bip.z_columns
    indexes = list(z)
    selects = [statement.query for statement in bip.workload
               if statement.query.kind is StatementKind.SELECT]
    references = {query.name: inum.statement_cost(query, Configuration())
                  for query in selects}
    if kind == "storage":
        budget = 0.3 * candidates.total_size()
        return StorageBudgetConstraint(budget), [
            ({z[a]: candidates.size_of(a) for a in indexes}, budget)]
    if kind == "count_at_most":
        table = indexes[0].table
        return IndexCountConstraint(
            limit=2, selector=lambda a: a.table == table,
            weight=lambda a: float(a.width)), [
            ({z[a]: float(a.width) for a in indexes if a.table == table},
             2.0)]
    if kind.startswith("count_at_least"):
        zero = indexes[1]
        limit = 0 if kind.endswith("zero") else 2
        # ``>=`` rows are stored negated; a zero limit is ``-0.0``.
        return IndexCountConstraint(
            limit=limit, sense=ComparisonSense.AT_LEAST,
            weight=lambda a: 0.0 if a == zero else 1.5), [
            ({z[a]: -1.5 for a in indexes if a != zero},
             -0.0 if limit == 0 else -2.0)]
    if kind == "width":
        return IndexWidthConstraint(max_columns=1), [
            ({z[a]: 1.0}, -0.0) for a in indexes if a.width > 1]
    if kind == "clustered":
        by_table = {}
        for a in indexes:
            if a.clustered:
                by_table.setdefault(a.table, []).append(z[a])
        return ClusteredIndexConstraint(), [
            ({column: 1.0 for column in columns}, 1.0)
            for columns in by_table.values() if len(columns) >= 2]
    if kind == "query_cost":
        query = selects[0]
        return QueryCostConstraint(query=query, reference_cost=100.0,
                                   factor=0.7), [
            _query_cost_row(bip, query, 0.7 * 100.0)]
    if kind == "speedup":
        return QuerySpeedupGenerator(reference_costs=references,
                                     factor=0.9), [
            _query_cost_row(bip, query, 0.9 * references[query.name])
            for query in selects]
    assert kind == "update_cost"
    coefficients = {}
    statements = list(bip.workload)
    for ordinal, column, cost in zip(bip.updates.statements.tolist(),
                                     bip.updates.columns.tolist(),
                                     bip.updates.costs.tolist()):
        weight = bip.weight_of(statements[ordinal])
        coefficients[column] = coefficients.get(column, 0.0) + weight * cost
    return UpdateCostConstraint(limit=1234.5), [(coefficients, 1234.5)]


def _with_rows(matrices, rows):
    """``matrices`` with ``rows`` after its own ``<=`` rows, written out
    entry by entry (columns ascending)."""
    a_ub = matrices["A_ub"]
    indptr, indices, data = [list(getattr(a_ub, part))
                             for part in ("indptr", "indices", "data")]
    for coefficients, _ in rows:
        for column in sorted(coefficients):
            indices.append(column)
            data.append(coefficients[column])
        indptr.append(len(indices))
    matrix = sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64),
         np.array(indptr, dtype=np.int64)),
        shape=(a_ub.shape[0] + len(rows), a_ub.shape[1]))
    return {**matrices, "A_ub": matrix,
            "b_ub": np.concatenate((matrices["b_ub"],
                                    np.array([rhs for _, rhs in rows])))}


@pytest.mark.parametrize("case", ["conftest", "tpch"])
@pytest.mark.parametrize("kind", [
    "storage", "count_at_most", "count_at_least", "count_at_least_zero",
    "width", "clustered", "query_cost", "speedup", "update_cost"])
def test_hard_rows_match_their_definition(case, kind):
    """Each hard kind's rows, derived by hand from the BIP's column tables,
    candidate sizes and weights, are what the export appends: values,
    dtypes, no zero coefficient and the sign of every zero right-hand
    side."""
    inum, candidates, bip = _rows_case(case)
    constraint, rows = _hand_rows(kind, inum, candidates, bip)
    assert rows and all(coefficients for coefficients, _ in rows)
    assert_same_matrices(bip.model.to_matrices(rows=constraint.to_linear(bip)),
                         _with_rows(bip.model.to_matrices(), rows))
