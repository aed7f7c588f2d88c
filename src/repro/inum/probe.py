"""Incremental workload costing of one growing configuration.

The greedy knapsack of the anytime tier asks, again and again, "what would
the workload cost with ``chosen ∪ {c}``?" for a configuration ``chosen``
that only ever grows.  :class:`ConfigurationProbe` answers from a state of
``chosen`` kept in tensor form — its per-slot minima, per-statement costs
and per-UPDATE maintenance sums, updated once per pick — so a probe
re-derives only the rows of the statements that touch ``c``'s table, and
many probes on one table are one batched reduction.

Every answer equals ``InumCache.workload_cost(workload, chosen.union((c,)))``
with ``==``, because each step repeats that path's arithmetic in its order:

* a slot minimum is a ``min`` (exact in any order) over the same values;
* slot minima are added onto ``beta`` in slot order
  (:func:`~repro.inum.workload_tensor.shell_minimum`, shared with the
  tensor's own reduction);
* an UPDATE costs ``(shell + maintenance) + base``
  (:func:`~repro.inum.cache.update_statement_cost`), its maintenance summed
  in ``indexes_on`` order — ``chosen``'s picks in pick order, then ``c``
  last, where ``union`` places it;
* the weighted total is a left-to-right sum from 0.0 (``np.add.accumulate``,
  never the pairwise ``np.sum``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache, update_statement_cost
from repro.inum.workload_tensor import shell_minimum
from repro.workload.query import UpdateQuery
from repro.workload.workload import Workload

__all__ = ["ConfigurationProbe"]


def _weighted_total(weights: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """``sum_i w_i * cost_i`` along the last axis, added left to right as
    ``workload_cost`` adds it (weights are positive, so starting from the
    first product equals starting from 0.0)."""
    return np.add.accumulate(costs * weights, axis=-1)[..., -1]


class _TableRows:
    """One table's statement rows and its probed indexes' columns."""

    __slots__ = ("rows", "pairs", "slots", "local", "beta", "place", "gamma",
                 "updates", "update_rows", "ucosts")

    def __init__(self, probe: "ConfigurationProbe", table: str,
                 indexes: Sequence[Index]):
        tensor = probe._tensor
        self.pairs, self.slots = tensor.table_slots(table)
        #: Distinct statement rows, ascending; ``local`` maps each (row,
        #: slot) pair to its row's place in ``rows``.
        self.rows, self.local = np.unique(self.pairs, return_inverse=True)
        self.beta = tensor.beta_rows(self.rows)
        self.place = {index: place for place, index in enumerate(indexes)}
        #: ``(pairs, indexes, templates)``; at most the tensor's size.
        self.gamma = (tensor.gamma_columns(self.pairs, self.slots, indexes)
                      if len(self.rows) else None)
        # An UPDATE's shell reads only its own table, so the UPDATEs among
        # these rows are exactly the ones whose maintenance ``table`` moves.
        updates = probe._updates
        self.updates = np.array(
            [place for place, row in enumerate(self.rows.tolist())
             if row in updates], dtype=np.intp)
        self.update_rows = self.rows[self.updates]
        self.ucosts = np.array(
            [[probe._inum.maintenance_cost(updates[row], index)
              for row in self.update_rows.tolist()] for index in indexes],
            dtype=np.float64).reshape(len(indexes), len(self.updates))


class ConfigurationProbe:
    """Costs of ``chosen ∪ {c}`` for a configuration grown by :meth:`add`.

    Args:
        inum: The cache whose workload tensor holds the costs.
        workload: The workload being costed.
        indexes: Every index that will be probed or added; their columns are
            registered and gathered per table up front.  ``chosen`` starts
            empty.
    """

    def __init__(self, inum: InumCache, workload: Workload,
                 indexes: Sequence[Index]):
        tensor = inum.workload_tensor(workload)
        tensor.ensure_columns(indexes)
        empty = Configuration(())
        self._inum = inum
        self._tensor = tensor
        self._weights = np.array([statement.weight for statement in workload],
                                 dtype=np.float64)
        self._updates = {position: statement.query
                         for position, statement in enumerate(workload)
                         if isinstance(statement.query, UpdateQuery)}
        self._slot_min = tensor.slot_minima(empty)
        self._costs = inum.statement_costs(workload, empty)
        self._maintenance = np.zeros(len(self._weights), dtype=np.float64)
        self._base = np.zeros(len(self._weights), dtype=np.float64)
        for position, update in self._updates.items():
            self._base[position] = inum.optimizer.base_update_cost(update)
        self._total = float(_weighted_total(self._weights, self._costs))
        by_table: dict[str, list[Index]] = {}
        for index in dict.fromkeys(indexes):
            by_table.setdefault(index.table, []).append(index)
        self._tables = {table: _TableRows(self, table, members)
                        for table, members in by_table.items()}

    # ------------------------------------------------------------------ probing
    def costs_with(self, indexes: Sequence[Index]) -> np.ndarray:
        """``workload_cost(chosen.union((c,)))`` for each ``c``, in order.

        One reduction per table.  Its largest temporary holds (the table's
        indexes × its statements × templates × slots) floats — a part of
        the tensor's (candidates × statements × templates × slots) — so no
        temporary outgrows the tensor.
        """
        totals = np.empty(len(indexes), dtype=np.float64)
        by_table: dict[str, tuple[list[int], list[int]]] = {}
        for at, index in enumerate(indexes):
            ats, places = by_table.setdefault(index.table, ([], []))
            ats.append(at)
            places.append(self._tables[index.table].place[index])
        for name, (ats, places) in by_table.items():
            table = self._tables[name]
            totals[ats] = (self._total if table.gamma is None
                           else self._totals(table, places))
        return totals

    def cost_with(self, index: Index) -> float:
        """``workload_cost(chosen.union((index,)))``."""
        table = self._tables[index.table]
        if table.gamma is None:
            return self._total
        return float(self._totals(table, [table.place[index]])[0])

    def _totals(self, table: _TableRows, places: list[int]) -> np.ndarray:
        """Workload totals with each of ``table``'s indexes at ``places``
        added to ``chosen``."""
        count = len(places)
        # (indexes, rows, templates, slots): the table's rows under
        # ``chosen``, each copy with one more column in the table's slots.
        slot_min = self._slot_min[table.rows][None]
        if count > 1:
            slot_min = slot_min.repeat(count, axis=0)
        by_pair = slot_min.transpose(1, 3, 0, 2)  # (rows, slots, indexes, k)
        by_pair[table.local, table.slots] = np.minimum(
            by_pair[table.local, table.slots], table.gamma[:, places])
        shells = shell_minimum(table.beta, slot_min)
        if len(table.updates):
            shells[:, table.updates] = update_statement_cost(
                shells[:, table.updates],
                self._maintenance[table.update_rows] + table.ucosts[places],
                self._base[table.update_rows])
        costs = self._costs[None].repeat(count, axis=0)
        costs[:, table.rows] = shells
        return _weighted_total(self._weights, costs)

    # ----------------------------------------------------------------- picking
    def add(self, index: Index) -> None:
        """Grow ``chosen`` by ``index`` (not already in it)."""
        table = self._tables[index.table]
        if table.gamma is None:
            return
        place = table.place[index]
        pairs, slots = table.pairs, table.slots
        self._slot_min[pairs, :, slots] = np.minimum(
            self._slot_min[pairs, :, slots], table.gamma[:, place])
        shells = shell_minimum(table.beta, self._slot_min[table.rows])
        if len(table.updates):
            update_rows = table.update_rows
            self._maintenance[update_rows] += table.ucosts[place]
            shells[table.updates] = update_statement_cost(
                shells[table.updates], self._maintenance[update_rows],
                self._base[update_rows])
        self._costs[table.rows] = shells
        self._total = float(_weighted_total(self._weights, self._costs))
