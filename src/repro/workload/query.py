"""Structural query model: SELECT and UPDATE statements.

Statements are modelled the way the index advisors consume them:

* which tables are referenced,
* which per-table selection predicates exist (and whether they are sargable),
* which equi-join predicates connect the tables,
* which columns are projected / aggregated / grouped / ordered, and
* for UPDATE statements, which columns are written.

Following the paper (section 2), an UPDATE statement ``q`` is split into a
*query shell* ``q_r`` — a SELECT that locates the affected tuples — and an
*update shell* ``q_u`` whose cost is the base-table update plus an independent
maintenance cost ``ucost(a, q)`` per affected index ``a``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable


from repro.catalog.schema import Schema
from repro.exceptions import WorkloadError
from repro.workload.predicates import (
    ColumnRef,
    JoinPredicate,
    SimplePredicate,
)

__all__ = ["StatementKind", "AggregateFunction", "Query", "SelectQuery",
           "UpdateQuery"]

_query_counter = itertools.count(1)


class StatementKind(enum.Enum):
    """Kind of workload statement."""

    SELECT = "select"
    UPDATE = "update"


class AggregateFunction(enum.Enum):
    """Aggregate functions appearing in SELECT lists."""

    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class Aggregate:
    """An aggregate expression such as ``sum(l_extendedprice)``."""

    function: AggregateFunction
    column: ColumnRef | None = None  # None encodes COUNT(*)

    def __str__(self) -> str:
        target = "*" if self.column is None else str(self.column)
        return f"{self.function.value}({target})"


class Query:
    """Common behaviour of SELECT queries and UPDATE query shells.

    Args:
        tables: Tables referenced by the statement (each at most once).
        projections: Plain projected columns.
        predicates: Per-table selection predicates.
        joins: Equi-join predicates between referenced tables.
        group_by: GROUP BY columns.
        order_by: ORDER BY columns.
        aggregates: Aggregate expressions in the SELECT list.
        name: Optional human-readable name (template id + instance number).
    """

    kind: StatementKind = StatementKind.SELECT
    #: ``referenced_columns_on``'s per-table partition, built on first use.
    _referenced_by_table: dict[str, tuple[ColumnRef, ...]] | None = None

    def __init__(self, tables: Iterable[str],
                 projections: Iterable[ColumnRef] = (),
                 predicates: Iterable[SimplePredicate] = (),
                 joins: Iterable[JoinPredicate] = (),
                 group_by: Iterable[ColumnRef] = (),
                 order_by: Iterable[ColumnRef] = (),
                 aggregates: Iterable[Aggregate] = (),
                 name: str | None = None):
        self.tables = tuple(dict.fromkeys(tables))
        if not self.tables:
            raise WorkloadError("A query must reference at least one table")
        self.projections = tuple(projections)
        self.predicates = tuple(predicates)
        self.joins = tuple(joins)
        self.group_by = tuple(group_by)
        self.order_by = tuple(order_by)
        self.aggregates = tuple(aggregates)
        self.name = name or f"q{next(_query_counter)}"
        self._validate()

    # ------------------------------------------------------------------ checks
    def _validate(self) -> None:
        table_set = set(self.tables)
        for predicate in self.predicates:
            if predicate.table not in table_set:
                raise WorkloadError(
                    f"Predicate {predicate} references table {predicate.table!r} "
                    f"which is not in the FROM list of {self.name}")
        for join in self.joins:
            for joined_table in join.tables:
                if joined_table not in table_set:
                    raise WorkloadError(
                        f"Join {join} references table {joined_table!r} "
                        f"which is not in the FROM list of {self.name}")
        for column in (*self.projections, *self.group_by, *self.order_by):
            if column.table not in table_set:
                raise WorkloadError(
                    f"Column {column} is not available in query {self.name}")
        for aggregate in self.aggregates:
            if aggregate.column is not None and aggregate.column.table not in table_set:
                raise WorkloadError(
                    f"Aggregate {aggregate} is not available in query {self.name}")

    def validate_against(self, schema: Schema) -> None:
        """Check every table/column reference against the catalog."""
        for table_name in self.tables:
            schema.table(table_name)
        for column in self.referenced_columns():
            schema.resolve_column(column.table, column.column)

    # --------------------------------------------------------------- accessors
    def references(self, table: str) -> bool:
        return table in self.tables

    def predicates_on(self, table: str) -> tuple[SimplePredicate, ...]:
        return tuple(p for p in self.predicates if p.table == table)

    def sargable_predicates_on(self, table: str) -> tuple[SimplePredicate, ...]:
        return tuple(p for p in self.predicates_on(table) if p.is_sargable)

    def joins_on(self, table: str) -> tuple[JoinPredicate, ...]:
        return tuple(j for j in self.joins if j.references(table))

    def join_columns_on(self, table: str) -> tuple[ColumnRef, ...]:
        columns = [j.column_for(table) for j in self.joins_on(table)]
        return tuple(dict.fromkeys(columns))

    def group_by_on(self, table: str) -> tuple[ColumnRef, ...]:
        return tuple(c for c in self.group_by if c.table == table)

    def order_by_on(self, table: str) -> tuple[ColumnRef, ...]:
        return tuple(c for c in self.order_by if c.table == table)

    def output_columns(self) -> tuple[ColumnRef, ...]:
        """Columns that must be produced by the plan (projection + aggregation)."""
        columns = list(self.projections)
        columns.extend(a.column for a in self.aggregates if a.column is not None)
        columns.extend(self.group_by)
        return tuple(dict.fromkeys(columns))

    def output_columns_on(self, table: str) -> tuple[ColumnRef, ...]:
        return tuple(c for c in self.output_columns() if c.table == table)

    def referenced_columns(self) -> tuple[ColumnRef, ...]:
        """Every column mentioned anywhere in the statement."""
        columns: list[ColumnRef] = []
        columns.extend(self.projections)
        columns.extend(p.column for p in self.predicates)
        for join in self.joins:
            columns.append(join.left)
            columns.append(join.right)
        columns.extend(self.group_by)
        columns.extend(self.order_by)
        columns.extend(a.column for a in self.aggregates if a.column is not None)
        return tuple(dict.fromkeys(columns))

    def referenced_columns_on(self, table: str) -> tuple[ColumnRef, ...]:
        # Partitioned by table on first use: a query's column tuples are
        # never reassigned after construction.
        by_table = self._referenced_by_table
        if by_table is None:
            grouped: dict[str, list[ColumnRef]] = {}
            for column in self.referenced_columns():
                grouped.setdefault(column.table, []).append(column)
            by_table = self._referenced_by_table = {
                name: tuple(columns) for name, columns in grouped.items()}
        return by_table.get(table, ())

    def interesting_order_columns(self, table: str) -> tuple[ColumnRef, ...]:
        """Columns of ``table`` whose sort order the plan could exploit.

        Interesting orders come from join columns (merge joins), GROUP BY
        (sort- or stream-aggregation) and ORDER BY clauses.  These are exactly
        the orders INUM enumerates when building template plans.
        """
        columns: list[ColumnRef] = []
        columns.extend(self.join_columns_on(table))
        columns.extend(self.group_by_on(table))
        columns.extend(self.order_by_on(table))
        return tuple(dict.fromkeys(columns))

    @property
    def is_update(self) -> bool:
        return self.kind is StatementKind.UPDATE

    def with_name(self, name: str) -> "Query":
        """A structural clone of this statement under a different name.

        The clone shares every (immutable) structural component, so its
        structural signature and statement digest are identical to the
        original's — which is exactly what the service's auto-namespacing
        needs: renaming a statement must never change how it is costed.
        """
        return type(self)(
            tables=self.tables,
            projections=self.projections,
            predicates=self.predicates,
            joins=self.joins,
            group_by=self.group_by,
            order_by=self.order_by,
            aggregates=self.aggregates,
            name=name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(name={self.name!r}, tables={self.tables}, "
                f"predicates={len(self.predicates)}, joins={len(self.joins)})")


class SelectQuery(Query):
    """A SELECT statement."""

    kind = StatementKind.SELECT


class UpdateQuery(Query):
    """An UPDATE statement on a single table.

    Args:
        table: The updated table.
        set_columns: Columns written by the SET clause.
        predicates: WHERE-clause predicates selecting the affected rows.
        name: Optional statement name.
        update_fraction: Optional explicit fraction of rows updated; when not
            given the optimizer derives it from the predicates.
    """

    kind = StatementKind.UPDATE

    def __init__(self, table: str, set_columns: Iterable[ColumnRef],
                 predicates: Iterable[SimplePredicate] = (),
                 name: str | None = None,
                 update_fraction: float | None = None):
        self.set_columns = tuple(set_columns)
        if not self.set_columns:
            raise WorkloadError("UPDATE statement needs at least one SET column")
        for column in self.set_columns:
            if column.table != table:
                raise WorkloadError(
                    f"SET column {column} does not belong to updated table {table!r}")
        if update_fraction is not None and not 0.0 < update_fraction <= 1.0:
            raise WorkloadError("update_fraction must lie in (0, 1]")
        self.update_fraction = update_fraction
        super().__init__(tables=(table,), predicates=predicates, name=name)

    @property
    def table(self) -> str:
        return self.tables[0]

    def query_shell(self) -> SelectQuery:
        """The SELECT that locates the tuples to be updated (``q_r`` in the paper)."""
        return SelectQuery(
            tables=(self.table,),
            projections=self.referenced_columns_on(self.table),
            predicates=self.predicates,
            name=f"{self.name}__shell",
        )

    def with_name(self, name: str) -> "UpdateQuery":
        return type(self)(self.table, self.set_columns,
                          predicates=self.predicates, name=name,
                          update_fraction=self.update_fraction)

    def writes_column(self, column: ColumnRef) -> bool:
        return column in self.set_columns
