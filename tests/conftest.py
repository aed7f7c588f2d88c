"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

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


def model_state(bip) -> tuple:
    """Everything a solver backend reads off a BIP's model, copied: the
    matrix export (cost vector, CSR parts of both row blocks, right-hand
    sides, bounds, integrality), the row count and the objective."""
    matrices = bip.model.to_matrices()
    arrays = [matrices[key]
              for key in ("c", "b_ub", "b_eq", "bounds", "integrality")]
    for key in ("A_ub", "A_eq"):
        arrays += [matrices[key].data, matrices[key].indices,
                   matrices[key].indptr]
    objective = bip.model.objective
    return ([np.array(array, copy=True) for array in arrays],
            bip.model.constraint_count, objective.terms, objective.constant)


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
