"""Dense per-query cost matrices for vectorized INUM costing.

The INUM cost formula ``cost(q, X) = min_k (beta_qk + sum_i min_a
gamma_qkia)`` is a pure reduction over per-slot access costs.  This module
materializes the costs once per query as a dense numpy array

    ``matrix[k, i, a]  ==  gamma_qkia``

of shape ``(templates, slots, 1 + registered indexes)`` — column ``0`` is the
heap access ``I_0``, further columns are candidate indexes registered lazily —
so that costing a configuration becomes a handful of ``min`` reductions over
array slices.  Infeasible (template, slot, access) combinations hold
``INFEASIBLE_COST`` (``inf``), which flows through the reductions exactly like
scalar ``min`` comparisons over :func:`slot_gamma` would: the test suite's
scalar reference (``tests/conftest.py::reference_statement_cost``) returns
bit-identical costs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import OptimizerError
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.template_plan import INFEASIBLE_COST, TemplatePlan
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.query import Query

__all__ = ["QueryGammaMatrix", "slot_gamma"]

#: Cap on cached per-slot min-vectors before the cache is reset wholesale.
_SLOT_MIN_CACHE_LIMIT = 4096


def slot_gamma(optimizer: WhatIfOptimizer, query: Query, template: TemplatePlan,
               table: str, index: Index | None) -> float:
    """Scalar ``gamma_qkia`` — the single definition of slot-access cost.

    The dense matrix fills every cell from it, and the test suite's scalar
    reference costing calls it directly.
    """
    if table not in template.order_requirements:
        return 0.0
    scan = optimizer.access_scan(query, table, index)
    if not template.accepts(table, scan):
        return INFEASIBLE_COST
    return scan.cost


class QueryGammaMatrix:
    """The dense ``(templates x slots x accesses)`` gamma array of one query.

    Args:
        query: The query shell the matrix belongs to (never an UPDATE).
        templates: ``TPlans(q)`` as enumerated by the INUM cache.
        optimizer: The shared what-if optimizer used to cost slot accesses
            when a new column is registered.
    """

    def __init__(self, query: Query, templates: Sequence[TemplatePlan],
                 optimizer: WhatIfOptimizer):
        self._query = query
        self._templates = tuple(templates)
        self._optimizer = optimizer
        self._tables = tuple(query.tables)
        self._slot_of = {table: slot for slot, table in enumerate(self._tables)}
        self._column_of: dict[Index, int] = {}
        # Memoized ``min`` reductions per (slot, index subset); atomic
        # configurations and knapsack-style loops re-cost the same per-table
        # subsets constantly.  Entries stay valid when new columns register
        # because a slot minimum only depends on its own subset's columns.
        # Two levels: by the subset tuple's identity (no hashing at all —
        # safe because the value keeps the tuple alive, so its id cannot be
        # reused) and by tuple equality (hits for equal subsets coming from
        # freshly built configurations).
        self._slot_min_by_id: dict[tuple[int, int],
                                   tuple[tuple[Index, ...], np.ndarray]] = {}
        self._slot_min_by_key: dict[tuple[int, tuple[Index, ...]],
                                    np.ndarray] = {}
        self._beta = np.array([t.internal_cost for t in self._templates],
                              dtype=np.float64)
        self._matrix = np.empty((len(self._templates), len(self._tables), 1),
                                dtype=np.float64)
        for slot, table in enumerate(self._tables):
            self._matrix[:, slot, 0] = self._gamma_column(table, None)

    # ----------------------------------------------------------------- metadata
    @property
    def templates(self) -> tuple[TemplatePlan, ...]:
        return self._templates

    @property
    def tables(self) -> tuple[str, ...]:
        """The query's tables, in slot order."""
        return self._tables

    @property
    def beta(self) -> np.ndarray:
        """``beta_qk`` per template (read-only view)."""
        return self._beta

    @property
    def array(self) -> np.ndarray:
        """The dense ``(templates, slots, accesses)`` gamma array.

        Consumers (the workload tensor, BIP assembly) must treat it as
        read-only; columns are only ever appended, never mutated.
        """
        return self._matrix

    def column_of(self, index: Index) -> int | None:
        """Column of a registered index (``None`` when not registered)."""
        return self._column_of.get(index)

    @property
    def registered_indexes(self) -> tuple[Index, ...]:
        return tuple(self._column_of)

    @property
    def column_count(self) -> int:
        """Number of access-method columns (heap column included)."""
        return self._matrix.shape[2]

    # ----------------------------------------------------------------- building
    def ensure_columns(self, indexes: Iterable[Index]) -> None:
        """Register access-method columns for any not-yet-seen indexes.

        Indexes on tables this query never touches get no column — their
        gamma is infinite for every slot and the reductions never select
        them — so each matrix scales with the query-relevant candidates
        only, not the global candidate universe.
        """
        new = [index for index in dict.fromkeys(indexes)
               if index is not None and index not in self._column_of
               and index.table in self._slot_of]
        if not new:
            return
        base = self._matrix.shape[2]
        block = np.empty((len(self._templates), len(self._tables), len(new)),
                         dtype=np.float64)
        block.fill(INFEASIBLE_COST)
        for offset, index in enumerate(new):
            slot = self._slot_of[index.table]
            block[:, slot, offset] = self._gamma_column(index.table, index)
        # Registered only once costed: a failure above (e.g. no optimizer
        # bound yet) must not leave columns that the array does not have.
        self._column_of.update(
            (index, base + offset) for offset, index in enumerate(new))
        self._matrix = np.concatenate([self._matrix, block], axis=2)

    def rebind_optimizer(self, optimizer: WhatIfOptimizer) -> None:
        """Attach a schema-equivalent optimizer after a pickle round trip.

        Matrices built in worker processes arrive without an optimizer (see
        :meth:`__getstate__`); binding them to the adopting cache's optimizer
        keeps one shared scan cache per process.
        """
        self._optimizer = optimizer

    def __getstate__(self) -> dict:
        # The optimizer (schema + scan caches) is process-local and the
        # slot-min memos are keyed by object identities of this process:
        # only the arrays, templates and column map cross the boundary.
        state = self.__dict__.copy()
        for key in ("_optimizer", "_slot_min_by_id", "_slot_min_by_key"):
            del state[key]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._optimizer = None
        self._slot_min_by_id = {}
        self._slot_min_by_key = {}

    # ------------------------------------------------------------------ reading
    def value(self, position: int, table: str, index: Index | None) -> float:
        """``gamma_qkia`` for template ``position`` / slot ``table`` / ``index``."""
        slot = self._slot_of.get(table)
        if slot is None:
            return self._gamma_scalar(self._templates[position], table, index)
        if index is None:
            return float(self._matrix[position, slot, 0])
        column = self._column_of.get(index)
        if column is None:
            if index.table not in self._slot_of:
                return self._gamma_scalar(self._templates[position], table, index)
            self.ensure_columns((index,))
            column = self._column_of[index]
        return float(self._matrix[position, slot, column])

    def cost(self, configuration: Configuration) -> float:
        """``min_k (beta_qk + sum_i min_a gamma_qkia)`` over ``{I_0} ∪ X``.

        Slot minima are accumulated in ``query.tables`` order (beta first),
        which is what keeps the result bit-identical to the scalar reference
        in the tests.
        """
        if not self._templates:
            return INFEASIBLE_COST
        totals = self._beta.copy()
        for slot, table in enumerate(self._tables):
            indexes = configuration.indexes_on(table)
            if not indexes:
                totals += self._matrix[:, slot, 0]
                continue
            id_key = (slot, id(indexes))
            cached = self._slot_min_by_id.get(id_key)
            if cached is not None:
                totals += cached[1]
                continue
            eq_key = (slot, indexes)
            mins = self._slot_min_by_key.get(eq_key)
            if mins is None:
                self.ensure_columns(indexes)
                columns = [0]
                columns.extend(self._column_of[index] for index in indexes)
                mins = self._matrix[:, slot, columns].min(axis=1)
                if len(self._slot_min_by_key) >= _SLOT_MIN_CACHE_LIMIT:
                    self._slot_min_by_key.clear()
                    self._slot_min_by_id.clear()
                self._slot_min_by_key[eq_key] = mins
            if len(self._slot_min_by_id) >= _SLOT_MIN_CACHE_LIMIT:
                self._slot_min_by_id.clear()
            self._slot_min_by_id[id_key] = (indexes, mins)
            totals += mins
        return float(totals.min())

    # ---------------------------------------------------------------- internals
    def _bound_optimizer(self) -> WhatIfOptimizer:
        if self._optimizer is None:
            raise OptimizerError(
                f"gamma matrix of query {self._query.name!r} was unpickled "
                "and has no optimizer; call rebind_optimizer() first")
        return self._optimizer

    def _gamma_scalar(self, template: TemplatePlan, table: str,
                      index: Index | None) -> float:
        return slot_gamma(self._bound_optimizer(), self._query, template, table,
                          index)

    def _gamma_column(self, table: str, index: Index | None) -> list[float]:
        """:func:`slot_gamma` of one of the query's slots for every template,
        from one costing of the scan (it depends on table and index only).

        A column is filled once, so the scan is costed by the access-path
        selector directly instead of through the what-if optimizer's scan
        cache: an entry per (query, table, index) that nothing reads again
        would only pile up for the life of the optimizer.
        """
        scan = self._bound_optimizer().access_selector.scan(self._query, table,
                                                            index)
        return [0.0 if table not in template.order_requirements
                else scan.cost if template.accepts(table, scan)
                else INFEASIBLE_COST
                for template in self._templates]
