"""Workload container: weighted statements, SELECT/UPDATE partitions, summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.catalog.schema import Schema
from repro.exceptions import WorkloadError
from repro.workload.query import Query, StatementKind

__all__ = ["WorkloadStatement", "Workload", "WORKLOAD_LRU_LIMIT"]

#: Cap on the values a cache keeps per workload object (canonical workloads
#: of a schema context, INUM tensors, generated candidate sets).
WORKLOAD_LRU_LIMIT = 8


@dataclass(frozen=True)
class WorkloadStatement:
    """A statement with its weight ``f_q`` (frequency or DBA importance)."""

    query: Query
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError("Statement weight must be positive")


class Workload:
    """A weighted collection of SELECT and UPDATE statements.

    The paper writes ``W_r`` for SELECT statements plus the query shells of
    updates and ``W_u`` for the update statements; both views are exposed
    here (:meth:`select_statements` and :meth:`update_statements`).
    """

    def __init__(self, statements: Iterable[WorkloadStatement | Query],
                 name: str = "workload"):
        self.name = name
        normalised: list[WorkloadStatement] = []
        for statement in statements:
            if isinstance(statement, WorkloadStatement):
                normalised.append(statement)
            elif isinstance(statement, Query):
                normalised.append(WorkloadStatement(statement))
            else:
                raise WorkloadError(
                    f"Workload entries must be queries, got {type(statement).__name__}")
        if not normalised:
            raise WorkloadError("A workload must contain at least one statement")
        self._statements = tuple(normalised)

    # ---------------------------------------------------------------- accessors
    @property
    def statements(self) -> tuple[WorkloadStatement, ...]:
        return self._statements

    def __len__(self) -> int:
        return len(self._statements)

    def __iter__(self) -> Iterator[WorkloadStatement]:
        return iter(self._statements)

    def queries(self) -> tuple[Query, ...]:
        return tuple(s.query for s in self._statements)

    def weight_of(self, query: Query) -> float:
        for statement in self._statements:
            if statement.query is query:
                return statement.weight
        raise WorkloadError(f"Query {query.name!r} is not part of workload {self.name!r}")

    def select_statements(self) -> tuple[WorkloadStatement, ...]:
        """SELECT statements (``W_r`` minus the update query shells)."""
        return tuple(s for s in self._statements
                     if s.query.kind is StatementKind.SELECT)

    def update_statements(self) -> tuple[WorkloadStatement, ...]:
        """UPDATE statements (``W_u``)."""
        return tuple(s for s in self._statements
                     if s.query.kind is StatementKind.UPDATE)

    def referenced_tables(self) -> tuple[str, ...]:
        tables: list[str] = []
        for statement in self._statements:
            tables.extend(statement.query.tables)
        return tuple(dict.fromkeys(tables))

    def total_weight(self) -> float:
        return sum(s.weight for s in self._statements)

    def validate_against(self, schema: Schema) -> None:
        """Validate every statement against the catalog."""
        for statement in self._statements:
            statement.query.validate_against(schema)

    # ------------------------------------------------------------ manipulation
    def subset(self, size: int, name: str | None = None) -> "Workload":
        """The first ``size`` statements as a new workload (used for scaling runs)."""
        if size <= 0:
            raise WorkloadError("Workload subset size must be positive")
        selected = self._statements[:size]
        return Workload(selected, name=name or f"{self.name}[:{size}]")

    def extended(self, statements: Sequence[WorkloadStatement | Query],
                 name: str | None = None) -> "Workload":
        """A new workload with extra statements appended (interactive tuning deltas)."""
        return Workload([*self._statements, *statements],
                        name=name or f"{self.name}+{len(statements)}")

    def distinct_template_count(self) -> int:
        """Number of distinct statement shapes, keyed by template name prefix.

        Workload generators name statements ``<template>#<n>``; statements
        without the separator count as their own template.  Tool-B-style
        workload compression keys its sampling on this notion of template.
        """
        templates = {s.query.name.split("#", 1)[0] for s in self._statements}
        return len(templates)

    def summary(self) -> dict[str, float | int]:
        """Small summary dictionary used by the benchmark reports."""
        return {
            "statements": len(self._statements),
            "selects": len(self.select_statements()),
            "updates": len(self.update_statements()),
            "tables": len(self.referenced_tables()),
            "templates": self.distinct_template_count(),
            "total_weight": self.total_weight(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workload(name={self.name!r}, statements={len(self._statements)})"
