"""Template plans: internal plan cost plus per-slot order requirements."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.indexes.index import Index
from repro.optimizer.plan import Plan, ScanNode
from repro.workload.predicates import ColumnRef

__all__ = ["TemplatePlan"]

#: Cost value used for incompatible (slot, access method) combinations.
INFEASIBLE_COST = float("inf")


@dataclass(frozen=True)
class TemplatePlan:
    """One element of ``TPlans(q)``.

    A template plan is a physical plan whose leaf accesses ("slots") have been
    replaced by holes.  The hole for table ``i`` may require its access method
    to deliver rows sorted on a particular column (an *interesting order*);
    access methods that cannot are incompatible with this template and get an
    infinite ``gamma``.

    Attributes:
        query_name: Name of the query this template belongs to.
        order_requirements: Mapping ``table -> required order column`` (``None``
            when the slot accepts unordered input).
        internal_cost: Cost of the internal operators — the ``beta_qk``
            constant of linear composability.
        representative_plan: The concrete plan the template was derived from
            (useful for explain output and debugging; not used for costing).
    """

    query_name: str
    order_requirements: Mapping[str, ColumnRef | None]
    internal_cost: float
    representative_plan: Plan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "order_requirements", dict(self.order_requirements))
        # Dedup, dominance pruning and equality all compare signatures, and
        # template plans key the gamma-matrix position lookups on costing hot
        # paths: derive the signature and the hash once.
        object.__setattr__(self, "_signature", tuple(
            (table, None if order is None else order.column)
            for table, order in sorted(self.order_requirements.items())))
        object.__setattr__(self, "_hash",
                           hash((self.query_name, self._signature)))

    def __getstate__(self) -> dict:
        # The cached hash is built from string hashes, which vary per process
        # (hash randomisation): never ship it across a pickle boundary.
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_hash",
                           hash((self.query_name, self._signature)))

    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(self.order_requirements.keys())

    def required_order(self, table: str) -> ColumnRef | None:
        return self.order_requirements.get(table)

    def accepts(self, table: str, scan: ScanNode) -> bool:
        """Whether the given leaf access satisfies this template's slot for ``table``."""
        return self.accepts_order(table, scan.output_order)

    def accepts_order(self, table: str, order: ColumnRef | None) -> bool:
        """Whether an access delivering ``order`` satisfies the slot for ``table``."""
        required = self.order_requirements.get(table)
        return required is None or order == required

    def accepts_index(self, table: str, index: Index | None,
                      heap_order: ColumnRef | None) -> bool:
        """Order-compatibility check from index metadata alone.

        Args:
            table: The slot's table.
            index: The access method (``None`` means heap scan).
            heap_order: The order a heap scan of the table delivers (its
                clustered primary-key column, if any).
        """
        required = self.order_requirements.get(table)
        if required is None:
            return True
        if index is None:
            return heap_order == required
        return index.provides_order_on(required.column) and index.table == table

    def signature(self) -> tuple[tuple[str, str | None], ...]:
        """Hashable summary of the order requirements (used for deduplication)."""
        return self._signature

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemplatePlan):
            return NotImplemented
        return (self.query_name == other.query_name
                and self.signature() == other.signature()
                and abs(self.internal_cost - other.internal_cost) < 1e-9)

    def __hash__(self) -> int:
        return self._hash
