"""Predicate algebra for the structural query model."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any

from repro.exceptions import WorkloadError

__all__ = ["ColumnRef", "ComparisonOperator", "Predicate", "SimplePredicate",
           "JoinPredicate", "column_ref"]


@dataclass(frozen=True, order=True)
class ColumnRef:
    """A reference to ``table.column``.

    The paper assumes each statement references a table at most once, so a
    plain (table, column) pair is a sufficient addressing scheme — no tuple
    variables are needed.
    """

    table: str
    column: str

    def __post_init__(self) -> None:
        if not self.table or not self.column:
            raise WorkloadError("ColumnRef needs both a table and a column name")

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@functools.cache
def column_ref(table: str, column: str) -> ColumnRef:
    """The one shared :class:`ColumnRef` of ``table.column``.

    ColumnRefs are immutable and compare by value, so the workload
    generators hand out one object per column instead of one per mention:
    a generated workload then holds a few dozen of them rather than
    thousands.  The cache grows with the distinct columns generated, i.e.
    with the schemas' sizes.
    """
    return ColumnRef(table, column)


class ComparisonOperator(enum.Enum):
    """Comparison operators supported in selection predicates."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"
    IN = "in"
    LIKE = "like"
    IS_NULL = "is null"

    @property
    def is_equality(self) -> bool:
        return self in (ComparisonOperator.EQ, ComparisonOperator.IN)

    @property
    def is_range(self) -> bool:
        return self in (ComparisonOperator.LT, ComparisonOperator.LE,
                        ComparisonOperator.GT, ComparisonOperator.GE,
                        ComparisonOperator.BETWEEN)

    @property
    def is_sargable(self) -> bool:
        """Whether a B-tree index on the column can evaluate the predicate."""
        return self in (ComparisonOperator.EQ, ComparisonOperator.LT,
                        ComparisonOperator.LE, ComparisonOperator.GT,
                        ComparisonOperator.GE, ComparisonOperator.BETWEEN,
                        ComparisonOperator.IN)


class Predicate:
    """Marker base class for selection and join predicates."""

    __slots__ = ()


@dataclass(frozen=True)
class SimplePredicate(Predicate):
    """A predicate comparing one column to constants, e.g. ``l_shipdate <= 800``.

    Attributes:
        column: The column being restricted.
        operator: Comparison operator.
        value: Constant operand.  For ``BETWEEN`` this is a ``(low, high)``
            pair; for ``IN`` a tuple of values; for ``IS_NULL`` it is ignored.
        selectivity_hint: Optional explicit selectivity in (0, 1].  Workload
            generators set this to control how selective generated predicates
            are, and the selectivity estimator prefers it over the histogram
            when present.
    """

    column: ColumnRef
    operator: ComparisonOperator
    value: Any = None
    selectivity_hint: float | None = None

    def __post_init__(self) -> None:
        if self.operator is ComparisonOperator.BETWEEN:
            if (not isinstance(self.value, (tuple, list)) or len(self.value) != 2):
                raise WorkloadError("BETWEEN predicate needs a (low, high) pair")
        if self.operator is ComparisonOperator.IN:
            if not isinstance(self.value, (tuple, list)) or not self.value:
                raise WorkloadError("IN predicate needs a non-empty value list")
        if self.selectivity_hint is not None:
            if not 0.0 < self.selectivity_hint <= 1.0:
                raise WorkloadError("selectivity_hint must lie in (0, 1]")

    @property
    def table(self) -> str:
        return self.column.table

    @property
    def is_sargable(self) -> bool:
        return self.operator.is_sargable

    @property
    def is_equality(self) -> bool:
        return self.operator.is_equality

    def __str__(self) -> str:
        if self.operator is ComparisonOperator.BETWEEN:
            low, high = self.value
            return f"{self.column} BETWEEN {low} AND {high}"
        if self.operator is ComparisonOperator.IN:
            values = ", ".join(str(v) for v in self.value)
            return f"{self.column} IN ({values})"
        if self.operator is ComparisonOperator.IS_NULL:
            return f"{self.column} IS NULL"
        return f"{self.column} {self.operator.value} {self.value}"


@dataclass(frozen=True)
class JoinPredicate(Predicate):
    """An equi-join predicate ``left = right`` between columns of two tables."""

    left: ColumnRef
    right: ColumnRef

    def __post_init__(self) -> None:
        if self.left.table == self.right.table:
            raise WorkloadError(
                "JoinPredicate must connect two different tables "
                f"(got {self.left} and {self.right})")

    @property
    def tables(self) -> tuple[str, str]:
        return (self.left.table, self.right.table)

    def references(self, table: str) -> bool:
        return table in self.tables

    def column_for(self, table: str) -> ColumnRef:
        """Return the join column on ``table``; raises if the table is not joined."""
        if self.left.table == table:
            return self.left
        if self.right.table == table:
            return self.right
        raise WorkloadError(f"Join {self} does not reference table {table!r}")

    def other(self, table: str) -> ColumnRef:
        """Return the join column on the *other* side of ``table``."""
        if self.left.table == table:
            return self.right
        if self.right.table == table:
            return self.left
        raise WorkloadError(f"Join {self} does not reference table {table!r}")

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"
