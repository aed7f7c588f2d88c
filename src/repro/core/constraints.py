"""The DBA constraint language and its translation to linear BIP rows.

This module implements the constraint classes of section 3.2 and Appendix E of
the paper (which in turn cover the use cases of Bruno & Chaudhuri's
"Constrained physical design tuning"):

* **Index constraints** (E.1) — bounds on weighted sums over a subset of the
  candidate indexes: storage budgets, index-count limits, key-width limits.
* **Query cost constraints** (E.2) — e.g. "every query must be at least 25%
  faster than under the baseline configuration".
* **Generators** (E.3) — FOR-loops over queries/tables expanding into one
  linear constraint per element, including the implicit "at most one clustered
  index per table" rule.
* **Soft constraints** (section 4.1) — wrappers marking a constraint as "to be
  satisfied to the extent possible"; they are *not* added to the BIP but drive
  the Pareto exploration in :mod:`repro.core.soft_constraints`.

Every hard constraint translates itself into one
:class:`~repro.lp.model.RowBlock` of linear rows over the columns of an
existing :class:`~repro.core.bip_builder.CophyBip`; a constraint that can be
made soft also exposes its left side as a linear form (an
:class:`~repro.lp.model.Objective`) through ``measure``.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.bip_builder import CophyBip
from repro.exceptions import ConstraintError
from repro.indexes.index import Index
from repro.lp.model import Objective, RowBlock, RowKind
from repro.workload.query import Query, StatementKind

__all__ = [
    "ComparisonSense",
    "TuningConstraint",
    "SoftConstraint",
    "StorageBudgetConstraint",
    "IndexCountConstraint",
    "IndexWidthConstraint",
    "ClusteredIndexConstraint",
    "QueryCostConstraint",
    "QuerySpeedupGenerator",
    "UpdateCostConstraint",
    "tightest_storage_budget",
]


class ComparisonSense(enum.Enum):
    """Direction of a DBA constraint's comparison."""

    AT_MOST = "<="
    AT_LEAST = ">="


class TuningConstraint(abc.ABC):
    """Base class of all DBA constraints."""

    #: Human-readable label used in infeasibility reports.
    name: str = "constraint"

    @abc.abstractmethod
    def to_linear(self, bip: CophyBip) -> RowBlock:
        """Translate the constraint into linear rows over the BIP."""

    def describe(self) -> str:
        return self.name

    # ----------------------------------------------------------------- softness
    def soft(self, target: float | None = None) -> "SoftConstraint":
        """Wrap this constraint as a soft constraint (Pareto-explored)."""
        return SoftConstraint(self, target=target)


@dataclass
class SoftConstraint:
    """A constraint the recommendation should satisfy "to the extent possible".

    Soft constraints never enter the BIP; instead the Solver scalarises them
    into the objective (``lambda * cost + (1 - lambda) * (measure - target)``)
    and explores the Pareto-optimal curve (section 4.1 / Appendix D).

    Attributes:
        inner: The underlying hard constraint providing the measure.
        target: The value the measure should ideally not exceed.  When omitted
            the inner constraint's own bound is used.
    """

    inner: "TuningConstraint"
    target: float | None = None

    @property
    def name(self) -> str:
        return f"soft({self.inner.name})"

    def measure(self, bip: CophyBip) -> Objective:
        """The linear measure the soft constraint trades off against cost."""
        measure = getattr(self.inner, "measure", None)
        if callable(measure):
            return measure(bip)
        raise ConstraintError(
            f"Constraint {self.inner.name!r} cannot be used as a soft constraint "
            "(it exposes no linear measure)")

    def target_value(self) -> float:
        if self.target is not None:
            return float(self.target)
        bound = getattr(self.inner, "bound_value", None)
        if callable(bound):
            return float(bound())
        raise ConstraintError(
            f"Soft constraint {self.name!r} has no target value")


# ------------------------------------------------------------------ index rules
@dataclass
class StorageBudgetConstraint(TuningConstraint):
    """``sum_{a in X*} size(a) <= budget`` — the canonical storage constraint.

    Attributes:
        budget_bytes: Absolute budget in bytes.  Use
            :meth:`from_fraction_of_data` to express it as a fraction ``M`` of
            the database size like the paper does.
    """

    budget_bytes: float
    name: str = "storage_budget"

    def __post_init__(self) -> None:
        if self.budget_bytes < 0:
            raise ConstraintError("Storage budget must be non-negative")

    @classmethod
    def from_fraction_of_data(cls, schema, fraction: float) -> "StorageBudgetConstraint":
        """Budget expressed as a fraction ``M`` of the total data size."""
        if fraction < 0:
            raise ConstraintError("Storage budget fraction must be non-negative")
        return cls(budget_bytes=fraction * schema.total_size_bytes,
                   name=f"storage_budget[{fraction:g}x data]")

    def measure(self, bip: CophyBip) -> Objective:
        return bip.storage_measure()

    def bound_value(self) -> float:
        return self.budget_bytes

    def to_linear(self, bip: CophyBip) -> RowBlock:
        return RowBlock.of([(self.measure(bip), self.budget_bytes,
                             RowKind.LESS_EQUAL)])


@dataclass
class IndexCountConstraint(TuningConstraint):
    """Bound the number (or weighted sum) of selected indexes in a subset.

    Covers Appendix E.1: e.g. "at most 2 indexes with more than 5 columns on
    table T" is expressed with ``selector=lambda a: a.table == 'T' and
    a.width > 5`` and ``limit=2``.

    Attributes:
        limit: Right-hand side of the comparison.
        selector: Predicate choosing which candidate indexes the rule covers
            (default: all of them).
        weight: Per-index weight function (default: 1 per index).
        sense: ``AT_MOST`` (default) or ``AT_LEAST``.
    """

    limit: float
    selector: Callable[[Index], bool] | None = None
    weight: Callable[[Index], float] | None = None
    sense: ComparisonSense = ComparisonSense.AT_MOST
    name: str = "index_count"

    def measure(self, bip: CophyBip) -> Objective:
        columns = []
        weights = []
        for index, column in bip.z_columns.items():
            if self.selector is not None and not self.selector(index):
                continue
            columns.append(column)
            weights.append(1.0 if self.weight is None else float(self.weight(index)))
        return Objective.of(columns, weights)

    def bound_value(self) -> float:
        return self.limit

    def to_linear(self, bip: CophyBip) -> RowBlock:
        form = self.measure(bip)
        if self.sense is ComparisonSense.AT_MOST:
            return RowBlock.of([(form, self.limit, RowKind.LESS_EQUAL)])
        if not form.columns.size and self.limit > 0:
            raise ConstraintError(
                f"Constraint {self.name!r} requires indexes but no candidate "
                "matches its selector")
        # ``form >= limit``, stored as ``-form <= -limit``.
        return RowBlock.of([(Objective(form.columns, -form.coefficients),
                             -self.limit, RowKind.LESS_EQUAL)])


@dataclass
class IndexWidthConstraint(TuningConstraint):
    """Forbid selecting indexes wider than ``max_columns`` key+include columns."""

    max_columns: int
    name: str = "index_width"

    def to_linear(self, bip: CophyBip) -> RowBlock:
        return RowBlock.of([(Objective.of([column], [1.0]), 0.0,
                             RowKind.LESS_EQUAL)
                            for index, column in bip.z_columns.items()
                            if index.width > self.max_columns])


@dataclass
class ClusteredIndexConstraint(TuningConstraint):
    """At most one clustered index per table (Appendix E.3's implicit rule)."""

    name: str = "one_clustered_per_table"

    def to_linear(self, bip: CophyBip) -> RowBlock:
        by_table: dict[str, list[int]] = {}
        for index, column in bip.z_columns.items():
            if index.clustered:
                by_table.setdefault(index.table, []).append(column)
        return RowBlock.of([(Objective.of(columns, [1.0] * len(columns)), 1.0,
                             RowKind.LESS_EQUAL)
                            for columns in by_table.values()
                            if len(columns) >= 2])


# ------------------------------------------------------------------- query cost
@dataclass
class QueryCostConstraint(TuningConstraint):
    """``cost(q, X*) <= factor * reference_cost`` for one statement (E.2)."""

    query: Query
    reference_cost: float
    factor: float = 1.0
    name: str = "query_cost"

    def __post_init__(self) -> None:
        if self.reference_cost < 0:
            raise ConstraintError("reference_cost must be non-negative")
        if self.factor <= 0:
            raise ConstraintError("factor must be positive")

    def to_linear(self, bip: CophyBip) -> RowBlock:
        return RowBlock.of([self._row(bip)])

    def _row(self, bip: CophyBip) -> tuple[Objective, float, RowKind]:
        form = bip.query_cost_measure(self.query)
        if not form.columns.size:
            raise ConstraintError(
                f"Query {self.query.name!r} is not part of the tuning problem")
        return form, self.factor * self.reference_cost, RowKind.LESS_EQUAL


@dataclass
class QuerySpeedupGenerator(TuningConstraint):
    """Generator form (E.3): ``FOR q IN W ASSERT cost(q, X*) <= factor * cost(q, X0)``.

    Attributes:
        reference_costs: ``cost(q, X0)`` per statement name, typically computed
            with the what-if optimizer under the baseline configuration.
        factor: Cost factor each statement must reach (0.75 = 25% faster).
        statement_filter: Optional filter restricting which statements the
            generator iterates over (the paper's Filter clause).
    """

    reference_costs: dict[str, float]
    factor: float = 0.75
    statement_filter: Callable[[Query], bool] | None = None
    name: str = "speedup_generator"

    def to_linear(self, bip: CophyBip) -> RowBlock:
        rows = []
        for statement in bip.workload:
            query = statement.query
            if query.kind is not StatementKind.SELECT:
                continue
            if self.statement_filter is not None and not self.statement_filter(query):
                continue
            reference = self.reference_costs.get(query.name)
            if reference is None:
                continue
            rows.append(QueryCostConstraint(
                query=query, reference_cost=reference, factor=self.factor,
                name=self.name)._row(bip))
        if not rows:
            raise ConstraintError(
                f"Generator {self.name!r} produced no constraints — check the "
                "reference costs and filter")
        return RowBlock.of(rows)


@dataclass
class UpdateCostConstraint(TuningConstraint):
    """Bound the total index-maintenance cost of the selected configuration."""

    limit: float
    name: str = "update_cost"

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ConstraintError("Update-cost limit must be non-negative")

    def measure(self, bip: CophyBip) -> Objective:
        return bip.update_cost_measure()

    def bound_value(self) -> float:
        return self.limit

    def to_linear(self, bip: CophyBip) -> RowBlock:
        return RowBlock.of([(self.measure(bip), self.limit,
                             RowKind.LESS_EQUAL)])


def split_constraints(constraints: Iterable[TuningConstraint | SoftConstraint]
                      ) -> tuple[list[TuningConstraint], list[SoftConstraint]]:
    """Partition a mixed constraint list into (hard, soft)."""
    hard: list[TuningConstraint] = []
    soft: list[SoftConstraint] = []
    for constraint in constraints:
        if isinstance(constraint, SoftConstraint):
            soft.append(constraint)
        elif isinstance(constraint, TuningConstraint):
            hard.append(constraint)
        else:
            raise ConstraintError(
                f"Unsupported constraint object: {type(constraint).__name__}")
    return hard, soft


def tightest_storage_budget(constraints: Iterable[TuningConstraint]
                            ) -> float | None:
    """The smallest ``budget_bytes`` of the storage budgets among
    ``constraints`` (all of them must hold), or ``None`` without one."""
    budgets = [constraint.budget_bytes for constraint in constraints
               if isinstance(constraint, StorageBudgetConstraint)]
    return min(budgets, default=None)

