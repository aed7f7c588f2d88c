"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.catalog.column import Column, ColumnType
from repro.catalog.schema import Schema
from repro.catalog.statistics import ColumnStatistics
from repro.catalog.table import Table
from repro.catalog.tpch import tpch_schema
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.inum.cache import InumCache
from repro.inum.gamma_matrix import slot_gamma
from repro.inum.template_plan import INFEASIBLE_COST
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.predicates import ColumnRef, ComparisonOperator, JoinPredicate, SimplePredicate
from repro.workload.query import Aggregate, AggregateFunction, Query, SelectQuery, UpdateQuery
from repro.workload.workload import Workload, WorkloadStatement


def build_simple_schema() -> Schema:
    """A small two-table schema (orders/items style) used by fast unit tests."""
    orders = Table(
        "orders",
        columns=(
            Column("o_id", ColumnType.INTEGER),
            Column("o_customer", ColumnType.INTEGER),
            Column("o_date", ColumnType.DATE),
            Column("o_total", ColumnType.DECIMAL),
            Column("o_status", ColumnType.CHAR, width=1),
        ),
        row_count=50_000,
        statistics={
            "o_id": ColumnStatistics.for_key_column(50_000),
            "o_customer": ColumnStatistics.for_numeric_range(0, 5_000, 5_000),
            "o_date": ColumnStatistics.for_numeric_range(0, 2_000, 2_000),
            "o_total": ColumnStatistics.for_numeric_range(1, 10_000, 9_000),
            "o_status": ColumnStatistics.for_categorical(3),
        },
        primary_key=("o_id",),
    )
    items = Table(
        "items",
        columns=(
            Column("i_order", ColumnType.INTEGER),
            Column("i_product", ColumnType.INTEGER),
            Column("i_quantity", ColumnType.INTEGER),
            Column("i_price", ColumnType.DECIMAL),
            Column("i_shipdate", ColumnType.DATE),
        ),
        row_count=200_000,
        statistics={
            "i_order": ColumnStatistics.for_numeric_range(0, 50_000, 50_000,
                                                          correlation=1.0),
            "i_product": ColumnStatistics.for_numeric_range(0, 1_000, 1_000),
            "i_quantity": ColumnStatistics.for_numeric_range(1, 50, 50),
            "i_price": ColumnStatistics.for_numeric_range(1, 1_000, 900),
            "i_shipdate": ColumnStatistics.for_numeric_range(0, 2_000, 2_000),
        },
        primary_key=("i_order",),
    )
    return Schema([orders, items], name="simple")


def build_simple_workload() -> Workload:
    """A small mixed workload over the simple schema."""
    point_query = SelectQuery(
        tables=("orders",),
        projections=(ColumnRef("orders", "o_total"),),
        predicates=(SimplePredicate(ColumnRef("orders", "o_customer"),
                                    ComparisonOperator.EQ, 42),),
        name="point#1",
    )
    range_query = SelectQuery(
        tables=("items",),
        predicates=(SimplePredicate(ColumnRef("items", "i_shipdate"),
                                    ComparisonOperator.BETWEEN, (100, 200)),),
        aggregates=(Aggregate(AggregateFunction.SUM, ColumnRef("items", "i_price")),),
        name="range#1",
    )
    join_query = SelectQuery(
        tables=("orders", "items"),
        projections=(ColumnRef("orders", "o_date"),),
        predicates=(SimplePredicate(ColumnRef("orders", "o_status"),
                                    ComparisonOperator.EQ, 1,
                                    selectivity_hint=0.3),),
        joins=(JoinPredicate(ColumnRef("orders", "o_id"),
                             ColumnRef("items", "i_order")),),
        group_by=(ColumnRef("orders", "o_date"),),
        aggregates=(Aggregate(AggregateFunction.COUNT, None),),
        name="join#1",
    )
    update_query = UpdateQuery(
        table="orders",
        set_columns=(ColumnRef("orders", "o_status"),),
        predicates=(SimplePredicate(ColumnRef("orders", "o_date"),
                                    ComparisonOperator.BETWEEN, (1900, 1910),
                                    selectivity_hint=0.005),),
        name="upd#1",
    )
    return Workload(
        [WorkloadStatement(point_query, 2.0),
         WorkloadStatement(range_query, 1.0),
         WorkloadStatement(join_query, 1.0),
         WorkloadStatement(update_query, 1.0)],
        name="simple-workload",
    )


def reference_statement_cost(inum: InumCache, query: Query,
                             configuration: Configuration) -> float:
    """Scalar oracle for ``InumCache.statement_cost``: ``min_k (beta_qk +
    sum_i min_a gamma_qkia)`` plus the update terms, accumulated in the
    production order (beta, then slots in ``shell.tables`` order), so the
    vectorised path must match it with ``==``."""
    optimizer = inum.optimizer
    shell = query.query_shell() if isinstance(query, UpdateQuery) else query
    best = INFEASIBLE_COST
    for template in inum.templates(shell):
        total = template.internal_cost
        for table in shell.tables:
            total += min(slot_gamma(optimizer, shell, template, table, access)
                         for access in [None, *configuration.indexes_on(table)])
        best = min(best, total)
    if isinstance(query, UpdateQuery):
        maintenance = sum(optimizer.update_maintenance_cost(index, query)
                          for index in configuration.indexes_on(query.table))
        best = best + maintenance + optimizer.base_update_cost(query)
    return best


def reference_greedy_knapsack(inum: InumCache, workload: Workload, candidates,
                              constraints=(), name: str = "anytime-greedy"):
    """Oracle of ``greedy_knapsack``: the lazy benefit-density loop with every
    probe a full ``InumCache.workload_cost``.

    Same queue order, tie-breaking (position), ``fits`` rules and probe
    count as the production pass, without a deadline; the production pass
    must match it with ``==`` on the configuration *order*, ``objective``,
    ``lower_bound``, ``gap`` and ``probes``.
    """
    import heapq

    from repro.core.constraints import (
        ClusteredIndexConstraint,
        IndexCountConstraint,
        IndexWidthConstraint,
        StorageBudgetConstraint,
    )
    from repro.core.heuristics import HeuristicResult, ideal_lower_bound

    storage_limits = [c.budget_bytes for c in constraints
                      if isinstance(c, StorageBudgetConstraint)]
    width_limits = [c.max_columns for c in constraints
                    if isinstance(c, IndexWidthConstraint)]
    count_rules = [c for c in constraints
                   if isinstance(c, IndexCountConstraint)]
    clustered_rule = any(isinstance(c, ClusteredIndexConstraint)
                         for c in constraints)

    probes = 0

    def cost_of(configuration):
        nonlocal probes
        probes += 1
        return inum.workload_cost(workload, configuration)

    empty = Configuration((), name=name)
    base_cost = cost_of(empty)
    lower_bound = ideal_lower_bound(inum, workload, candidates)

    admissible = [index for index in candidates
                  if not any(index.width > limit for limit in width_limits)]

    def fits(index, chosen, used_bytes):
        size = candidates.size_of(index)
        if any(used_bytes + size > limit + 1e-6 for limit in storage_limits):
            return False
        for rule in count_rules:
            if rule.selector is not None and not rule.selector(index):
                continue
            total = 1.0 if rule.weight is None else float(rule.weight(index))
            for picked in chosen:
                if rule.selector is not None and not rule.selector(picked):
                    continue
                total += (1.0 if rule.weight is None
                          else float(rule.weight(picked)))
            if total > rule.limit + 1e-9:
                return False
        if (clustered_rule and index.clustered
                and chosen.clustered_indexes_on(index.table)):
            return False
        return True

    scored = []
    for position, index in enumerate(admissible):
        benefit = base_cost - cost_of(Configuration((index,)))
        if benefit <= 0.0:
            continue
        size = max(candidates.size_of(index), 1.0)
        heapq.heappush(scored, (-benefit / size, position, index, benefit, 0))

    chosen = empty
    objective = base_cost
    used_bytes = 0.0
    pick_round = 0
    while scored:
        _, position, index, benefit, scored_round = heapq.heappop(scored)
        if index in chosen or not fits(index, chosen, used_bytes):
            continue
        if scored_round != pick_round:
            benefit = objective - cost_of(chosen.union((index,)))
            if benefit <= 0.0:
                continue
            density = benefit / max(candidates.size_of(index), 1.0)
            if scored and density < -scored[0][0]:
                heapq.heappush(scored, (-density, position, index,
                                        benefit, pick_round))
                continue
        chosen = chosen.union((index,))
        objective -= benefit
        used_bytes += candidates.size_of(index)
        pick_round += 1
    objective = cost_of(chosen)
    if not np.isfinite(objective) or not np.isfinite(lower_bound):
        gap = float("inf")
    else:
        gap = max(0.0, (objective - lower_bound) / max(abs(objective), 1e-9))
    return HeuristicResult(configuration=chosen, objective=objective,
                           lower_bound=lower_bound, gap=gap, probes=probes,
                           timed_out=False)


def reference_bip_matrices(inum: InumCache, workload: Workload, candidates,
                           statement_weights=None) -> dict:
    """Scalar oracle for ``BipBuilder.build(...).model.to_matrices()``.

    Walks the workload one statement, template, slot and access at a time,
    reading each gamma from the workload tensor's per-query view, and emits
    the Theorem-1 program as ``(row, column, value)`` triplets in the
    builder's column order (z, then per statement its y's and x's) and row
    order (per statement: the one-template row, then per template and slot
    the ``x <= z`` select rows and the one-access slot row).  scipy builds
    the CSR blocks, so the export must match it bit for bit: values, index
    dtypes, and the sign of every zero (slot and select rows have
    ``b = -0.0``).
    """
    optimizer = inum.optimizer
    tensor = inum.workload_tensor(workload)
    tensor.ensure_columns(tuple(candidates))
    z = {index: column for column, index in enumerate(candidates)}
    columns = len(z)
    cost: dict[int, float] = {}
    rows: dict[bool, list[tuple[dict[int, float], float]]] = {True: [],
                                                              False: []}
    constant = 0.0
    for statement in workload:
        query = statement.query
        weight = statement.weight
        if statement_weights is not None:
            weight = statement_weights.get(query.name, weight)
        shell = query.query_shell() if isinstance(query, UpdateQuery) else query
        view = tensor.view(shell.name)
        templates = inum.templates(shell)
        usable = []
        for position in range(len(templates)):
            slots = {}
            for table in shell.tables:
                referenced = {c.column for c in shell.referenced_columns_on(table)}
                accesses = [None] + [
                    index for index in candidates.for_table(table)
                    if referenced and (index.leading_column in referenced
                                       or index.covers(referenced))]
                slots[table] = [
                    (access, gamma) for access in accesses
                    if (gamma := view.value(position, table, access))
                    != INFEASIBLE_COST]
            if all(slots.values()):
                usable.append((position, slots))
        y = {}
        for position, _ in usable:
            y[position] = columns
            columns += 1
            cost[y[position]] = 0.0 + weight * templates[position].internal_cost
        rows[True].append(({column: 1.0 for column in y.values()}, 1.0))
        for position, slots in usable:
            for table, pairs in slots.items():
                xs = []
                for access, gamma in pairs:
                    xs.append(columns)
                    cost[columns] = 0.0 + weight * gamma
                    if access is not None:
                        rows[False].append(
                            ({z[access]: -1.0, columns: 1.0}, -0.0))
                    columns += 1
                rows[True].append(
                    ({y[position]: -1.0, **dict.fromkeys(xs, 1.0)}, -0.0))
        if isinstance(query, UpdateQuery):
            for index in candidates.for_table(query.table):
                ucost = optimizer.update_maintenance_cost(index, query)
                if ucost > 0.0:
                    cost[z[index]] = cost.get(z[index], 0.0) + weight * ucost
            constant += weight * optimizer.base_update_cost(query)

    def block(entries):
        if not entries:
            return None, None
        data, row_ids, column_ids = [], [], []
        for row, (coefficients, _) in enumerate(entries):
            for column, value in coefficients.items():
                data.append(value)
                row_ids.append(row)
                column_ids.append(column)
        matrix = sparse.csr_matrix((data, (row_ids, column_ids)),
                                   shape=(len(entries), columns))
        return matrix, np.array([rhs for _, rhs in entries])

    c = np.zeros(columns)
    for column, value in cost.items():
        c[column] = value
    bounds = np.zeros((columns, 2))
    bounds[:, 1] = 1.0
    a_ub, b_ub = block(rows[False])
    a_eq, b_eq = block(rows[True])
    return {"c": c, "A_ub": a_ub, "b_ub": b_ub, "A_eq": a_eq, "b_eq": b_eq,
            "bounds": bounds, "integrality": np.ones(columns, dtype=np.int8),
            "objective_constant": constant}


def assert_same_matrices(actual: dict, expected: dict) -> None:
    """Two matrix exports are bit-equal: values, dtypes and zero signs."""

    def same(left, right):
        assert (left is None) == (right is None)
        if left is None:
            return
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)
        if left.dtype.kind == "f":
            assert np.array_equal(np.signbit(left), np.signbit(right))

    assert actual.keys() == expected.keys()
    for key in ("c", "b_ub", "b_eq", "bounds", "integrality"):
        same(actual[key], expected[key])
    for key in ("A_ub", "A_eq"):
        assert (actual[key] is None) == (expected[key] is None)
        if expected[key] is not None:
            assert actual[key].shape == expected[key].shape
            for part in ("data", "indices", "indptr"):
                same(getattr(actual[key], part), getattr(expected[key], part))
    same(np.array([actual["objective_constant"]]),
         np.array([expected["objective_constant"]]))


def model_state(bip) -> tuple:
    """Everything a solver backend reads off a BIP's model, copied: the
    matrix export (cost vector, CSR parts of both row blocks, right-hand
    sides, bounds, integrality), the objective's terms, the row count and
    the objective constant."""
    matrices = bip.model.to_matrices()
    arrays = [matrices[key]
              for key in ("c", "b_ub", "b_eq", "bounds", "integrality")]
    for key in ("A_ub", "A_eq"):
        arrays += [matrices[key].data, matrices[key].indices,
                   matrices[key].indptr]
    objective = bip.model.objective
    arrays += [objective.columns, objective.coefficients]
    return ([np.array(array, copy=True) for array in arrays],
            bip.model.constraint_count, objective.constant)


def assert_left_as_found(bip, before: tuple) -> None:
    """``bip``'s model is the one :func:`model_state` recorded in ``before``."""
    arrays, *rest = model_state(bip)
    assert all(map(np.array_equal, before[0], arrays))
    assert tuple(rest) == before[1:]


@pytest.fixture
def simple_schema() -> Schema:
    return build_simple_schema()


@pytest.fixture
def simple_workload() -> Workload:
    return build_simple_workload()


@pytest.fixture
def simple_optimizer(simple_schema) -> WhatIfOptimizer:
    return WhatIfOptimizer(simple_schema)


@pytest.fixture
def simple_candidates(simple_schema, simple_workload):
    return CandidateGenerator(simple_schema).generate(simple_workload)


@pytest.fixture(scope="session")
def tpch() -> Schema:
    """A small TPC-H catalog shared across integration tests."""
    return tpch_schema(scale_factor=0.005)


@pytest.fixture(scope="session")
def tpch_skewed() -> Schema:
    return tpch_schema(scale_factor=0.005, skew=2.0)
