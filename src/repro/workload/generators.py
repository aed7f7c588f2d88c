"""Workload generators reproducing the paper's ``W_hom`` and ``W_het`` workloads.

* :class:`HomogeneousWorkloadGenerator` — random instantiations of the fifteen
  TPC-H templates (``W_hom``): few distinct query shapes, which is the regime
  where workload-compression-based advisors (Tool-B) do well.
* :class:`HeterogeneousWorkloadGenerator` — randomly structured SPJ queries
  with group-by and aggregation in the spirit of the online index-selection
  benchmark's C2 suite (``W_het``): many distinct shapes, which defeats
  compression by sampling.

Both generators are deterministic given a seed, mix in UPDATE statements at a
configurable rate and attach per-statement weights.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.catalog.schema import Schema
from repro.catalog.tpch import tpch_schema
from repro.exceptions import WorkloadError
from repro.workload.predicates import (
    ColumnRef,
    ComparisonOperator,
    JoinPredicate,
    SimplePredicate,
    column_ref,
)
from repro.workload.query import Aggregate, AggregateFunction, SelectQuery, UpdateQuery

from repro.workload.templates_tpch import (
    SELECT_TEMPLATES,
    UPDATE_TEMPLATES,
    instantiate_template,
)
from repro.workload.workload import Workload, WorkloadStatement

__all__ = [
    "HomogeneousWorkloadGenerator",
    "HeterogeneousWorkloadGenerator",
    "generate_homogeneous_workload",
    "generate_heterogeneous_workload",
]

#: Equi-join edges of the TPC-H schema used to build random join paths.
_TPCH_JOIN_GRAPH: tuple[tuple[str, str, str, str], ...] = (
    ("customer", "c_custkey", "orders", "o_custkey"),
    ("orders", "o_orderkey", "lineitem", "l_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("partsupp", "ps_partkey", "part", "p_partkey"),
    ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("nation", "n_regionkey", "region", "r_regionkey"),
)

#: Columns preferred for filters / projections in the heterogeneous generator.
_FILTERABLE_COLUMNS: dict[str, tuple[str, ...]] = {
    "lineitem": ("l_shipdate", "l_receiptdate", "l_commitdate", "l_quantity",
                 "l_discount", "l_extendedprice", "l_returnflag", "l_shipmode",
                 "l_linestatus", "l_tax"),
    "orders": ("o_orderdate", "o_totalprice", "o_orderpriority", "o_orderstatus",
               "o_clerk", "o_shippriority"),
    "customer": ("c_acctbal", "c_mktsegment", "c_nationkey", "c_phone"),
    "part": ("p_size", "p_brand", "p_type", "p_container", "p_retailprice",
             "p_mfgr"),
    "partsupp": ("ps_availqty", "ps_supplycost"),
    "supplier": ("s_acctbal", "s_nationkey", "s_phone"),
    "nation": ("n_nationkey", "n_regionkey", "n_name"),
    "region": ("r_regionkey", "r_name"),
}

_UPDATABLE_COLUMNS: dict[str, tuple[str, ...]] = {
    "lineitem": ("l_discount", "l_tax", "l_quantity"),
    "orders": ("o_orderstatus", "o_totalprice"),
    "customer": ("c_acctbal",),
    "partsupp": ("ps_availqty", "ps_supplycost"),
    "supplier": ("s_acctbal",),
    "part": ("p_retailprice",),
}


class HomogeneousWorkloadGenerator:
    """Generates ``W_hom``-style workloads from the fifteen TPC-H templates.

    Args:
        seed: Random seed; the same seed always produces the same workload.
        update_fraction: Fraction of statements drawn from the update templates.
        templates: Optional subset of template ids to draw from.
    """

    def __init__(self, seed: int = 0, update_fraction: float = 0.1,
                 templates: Sequence[str] | None = None):
        if not 0.0 <= update_fraction <= 1.0:
            raise WorkloadError("update_fraction must lie in [0, 1]")
        self._seed = seed
        self._update_fraction = update_fraction
        self._templates = tuple(templates or SELECT_TEMPLATES.keys())
        unknown = [t for t in self._templates if t not in SELECT_TEMPLATES]
        if unknown:
            raise WorkloadError(f"Unknown templates: {unknown}")

    def generate(self, size: int, name: str | None = None) -> Workload:
        """Generate a workload with ``size`` statements."""
        if size <= 0:
            raise WorkloadError("Workload size must be positive")
        rng = random.Random(self._seed)
        update_templates = tuple(UPDATE_TEMPLATES.keys())
        statements: list[WorkloadStatement] = []
        for position in range(size):
            draw_update = (self._update_fraction > 0
                           and rng.random() < self._update_fraction)
            if draw_update:
                template_id = rng.choice(update_templates)
            else:
                template_id = rng.choice(self._templates)
            query = instantiate_template(template_id, rng, position + 1)
            weight = float(rng.randint(1, 4))
            statements.append(WorkloadStatement(query, weight))
        return Workload(statements, name=name or f"W_hom_{size}")


class HeterogeneousWorkloadGenerator:
    """Generates ``W_het``-style workloads of random SPJ + aggregation queries.

    Every generated query has its own structural signature (random join path,
    random filter columns, random group-by), so the number of distinct
    "templates" grows with the workload — the regime in which the paper shows
    workload compression by sampling breaks down (Figure 9).

    Args:
        schema: Catalog to draw tables/columns from (defaults to TPC-H).
        seed: Random seed.
        update_fraction: Fraction of UPDATE statements.
        max_tables: Maximum number of joined tables per query.
    """

    def __init__(self, schema: Schema | None = None, seed: int = 0,
                 update_fraction: float = 0.1, max_tables: int = 4):
        if not 0.0 <= update_fraction <= 1.0:
            raise WorkloadError("update_fraction must lie in [0, 1]")
        if max_tables < 1:
            raise WorkloadError("max_tables must be at least 1")
        self._schema = schema or tpch_schema()
        self._seed = seed
        self._update_fraction = update_fraction
        self._max_tables = max_tables

    # ------------------------------------------------------------------- public
    def generate(self, size: int, name: str | None = None) -> Workload:
        """Generate a workload with ``size`` statements."""
        if size <= 0:
            raise WorkloadError("Workload size must be positive")
        rng = random.Random(self._seed)
        statements: list[WorkloadStatement] = []
        for position in range(size):
            if self._update_fraction > 0 and rng.random() < self._update_fraction:
                query = self._random_update(rng, position + 1)
            else:
                query = self._random_select(rng, position + 1)
            weight = float(rng.randint(1, 4))
            statements.append(WorkloadStatement(query, weight))
        return Workload(statements, name=name or f"W_het_{size}")

    # ------------------------------------------------------------------ helpers
    def _random_select(self, rng: random.Random, instance: int) -> SelectQuery:
        tables, joins = self._random_join_path(rng)
        predicates = self._random_filters(rng, tables)
        group_by, order_by, aggregates, projections = self._random_shape(rng, tables)
        signature = "-".join(sorted(tables))
        return SelectQuery(
            tables=tables,
            projections=projections,
            predicates=predicates,
            joins=joins,
            group_by=group_by,
            order_by=order_by,
            aggregates=aggregates,
            name=f"C2_{signature}_{instance}#1",
        )

    def _random_update(self, rng: random.Random, instance: int) -> UpdateQuery:
        table = rng.choice([t for t in _UPDATABLE_COLUMNS if t in self._schema])
        set_column = rng.choice(_UPDATABLE_COLUMNS[table])
        filter_column = rng.choice(_FILTERABLE_COLUMNS[table])
        predicate = SimplePredicate(
            column_ref(table, filter_column), ComparisonOperator.LE,
            rng.uniform(1, 1000), selectivity_hint=rng.uniform(0.002, 0.02))
        return UpdateQuery(
            table=table,
            set_columns=(column_ref(table, set_column),),
            predicates=(predicate,),
            name=f"C2U_{table}_{instance}#1",
        )

    def _random_join_path(self, rng: random.Random) -> tuple[tuple[str, ...],
                                                             tuple[JoinPredicate, ...]]:
        edges = [e for e in _TPCH_JOIN_GRAPH
                 if e[0] in self._schema and e[2] in self._schema]
        if not edges:
            table = rng.choice(self._schema.table_names)
            return (table,), ()
        first = rng.choice(edges)
        tables: list[str] = [first[0], first[2]]
        joins: list[JoinPredicate] = [JoinPredicate(column_ref(first[0], first[1]),
                                                    column_ref(first[2], first[3]))]
        target_size = rng.randint(1, self._max_tables)
        if target_size == 1:
            table = rng.choice([first[0], first[2]])
            return (table,), ()
        while len(tables) < target_size:
            extensions = [e for e in edges
                          if (e[0] in tables) != (e[2] in tables)]
            if not extensions:
                break
            edge = rng.choice(extensions)
            joins.append(JoinPredicate(column_ref(edge[0], edge[1]),
                                       column_ref(edge[2], edge[3])))
            new_table = edge[2] if edge[0] in tables else edge[0]
            tables.append(new_table)
        return tuple(tables), tuple(joins)

    def _random_filters(self, rng: random.Random,
                        tables: tuple[str, ...]) -> tuple[SimplePredicate, ...]:
        predicates: list[SimplePredicate] = []
        for table in tables:
            candidates = [c for c in _FILTERABLE_COLUMNS.get(table, ())
                          if self._schema.has_column(table, c)]
            if not candidates:
                continue
            filter_count = rng.randint(0, min(2, len(candidates)))
            for column in rng.sample(candidates, filter_count):
                selectivity = rng.uniform(0.01, 0.4)
                if rng.random() < 0.5:
                    predicate = SimplePredicate(
                        column_ref(table, column), ComparisonOperator.EQ,
                        rng.randint(0, 100), selectivity_hint=selectivity)
                else:
                    low = rng.uniform(0, 1000)
                    predicate = SimplePredicate(
                        column_ref(table, column), ComparisonOperator.BETWEEN,
                        (low, low + rng.uniform(1, 500)),
                        selectivity_hint=selectivity)
                predicates.append(predicate)
        return tuple(predicates)

    def _random_shape(self, rng: random.Random, tables: tuple[str, ...]):
        group_by: list[ColumnRef] = []
        order_by: list[ColumnRef] = []
        aggregates: list[Aggregate] = []
        projections: list[ColumnRef] = []
        anchor_table = rng.choice(tables)
        anchor_columns = [c for c in _FILTERABLE_COLUMNS.get(anchor_table, ())
                          if self._schema.has_column(anchor_table, c)]
        if anchor_columns and rng.random() < 0.7:
            group_column = column_ref(anchor_table, rng.choice(anchor_columns))
            group_by.append(group_column)
            aggregates.append(Aggregate(AggregateFunction.COUNT, None))
            if rng.random() < 0.5:
                order_by.append(group_column)
        else:
            project_table = rng.choice(tables)
            project_columns = [c for c in _FILTERABLE_COLUMNS.get(project_table, ())
                               if self._schema.has_column(project_table, c)]
            for column in rng.sample(project_columns,
                                     min(len(project_columns), rng.randint(1, 3))):
                projections.append(column_ref(project_table, column))
            if projections and rng.random() < 0.4:
                order_by.append(projections[0])
        if rng.random() < 0.5 and anchor_columns:
            aggregates.append(Aggregate(AggregateFunction.SUM,
                                        column_ref(anchor_table,
                                                  rng.choice(anchor_columns))))
        return tuple(group_by), tuple(order_by), tuple(aggregates), tuple(projections)


def generate_homogeneous_workload(size: int, seed: int = 0,
                                  update_fraction: float = 0.1,
                                  name: str | None = None) -> Workload:
    """Convenience wrapper: ``W_hom`` workload of ``size`` statements."""
    generator = HomogeneousWorkloadGenerator(seed=seed,
                                             update_fraction=update_fraction)
    return generator.generate(size, name=name)


def generate_heterogeneous_workload(size: int, seed: int = 0,
                                    update_fraction: float = 0.1,
                                    schema: Schema | None = None,
                                    name: str | None = None) -> Workload:
    """Convenience wrapper: ``W_het`` workload of ``size`` statements."""
    generator = HeterogeneousWorkloadGenerator(schema=schema, seed=seed,
                                               update_fraction=update_fraction)
    return generator.generate(size, name=name)
