"""Incremental workload costing of one growing configuration.

The greedy knapsack of the anytime tier asks, again and again, "what would
the workload cost with ``chosen ∪ {c}``?" for a configuration ``chosen``
that only ever grows.  :class:`ConfigurationProbe` answers from a state of
``chosen`` kept in tensor form — its per-slot minima, weighted per-statement
costs and per-UPDATE maintenance sums, updated once per pick — so a probe
re-derives only the rows of the statements that touch ``c``'s table, and
many probes on one table are one batched reduction.

What does not depend on the request — the per-table γ blocks, the empty
configuration's state and the neighbour map — is a :class:`ProbeBase`,
built once and shared read-only by every probe started from it.

A statement holds each table in one slot (``Query.tables`` has no
repeats), so for a table at slot ``j`` of a row only that slot's minimum
moves when one of the table's indexes is added.  Per table the probe keeps
that row's *prefix* (``beta`` plus the minima of slots ``0..j-1``, added in
slot order), its *rest* (the minima after ``j``, in slot order, padded with
``+0.0``) and its *current* slot-``j`` minima, so a probe adds
``min(current, γ_c)`` onto the prefix and then each rest column.  A pick
changes the minima of its own table's slots, so it refreshes only the
tables sharing a statement row with it.

Every answer equals ``InumCache.workload_cost(workload, chosen.union((c,)))``
with ``==``, because each step repeats that path's arithmetic in its order:

* a slot minimum is a ``min`` (exact in any order) over the same values;
* slot minima are added onto ``beta`` in slot order, one at a time — the
  prefix, the changed slot, then the rest — the addition sequence of
  :func:`~repro.inum.workload_tensor.shell_minimum`, shared with the
  tensor's own reduction (padded slots add exactly ``+0.0`` on both paths);
* an UPDATE costs ``(shell + maintenance) + base``
  (:func:`~repro.inum.cache.update_statement_cost`), its maintenance summed
  in ``indexes_on`` order — ``chosen``'s picks in pick order, then ``c``
  last, where ``union`` places it;
* the weighted total is a left-to-right sum from 0.0 (``np.add.accumulate``
  over the products ``cost_i * w_i``, never the pairwise ``np.sum``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache, update_statement_cost
from repro.workload.query import UpdateQuery
from repro.workload.workload import Workload

__all__ = ["ConfigurationProbe", "ProbeBase"]


def _total(products: np.ndarray) -> np.ndarray:
    """``sum_i w_i * cost_i`` along the last axis, added left to right as
    ``workload_cost`` adds it (weights are positive, so starting from the
    first product equals starting from 0.0)."""
    return np.add.accumulate(products, axis=-1)[..., -1]


#: One table's re-probe state under a configuration: ``(prefix, rest,
#: current)`` — ``(rows, templates)``, ``(columns, rows, templates)`` and
#: ``(rows, templates)``.  Never mutated once built, so probes share them.
_View = tuple[np.ndarray, np.ndarray, np.ndarray]


class _TableRows:
    """One table's statement rows and its probed indexes' columns
    (read-only once built)."""

    __slots__ = ("rows", "slots", "at", "weights", "place", "gamma",
                 "updates", "update_rows", "update_base", "ucosts",
                 "neighbours", "_rest_at")

    def __init__(self, base: "ProbeBase", inum: InumCache, tensor,
                 table: str, indexes: Sequence[Index]):
        #: One (row, slot) pair per statement on the table, rows ascending.
        self.rows, self.slots = tensor.table_slots(table)
        self.weights = base.weights[self.rows]
        queries, templates, max_slots, _ = tensor.shape
        width = max_slots - 1 - int(self.slots.min()) if len(self.rows) else 0
        # Flat offsets into slot-major ``(slot, row, template)`` arrays:
        # ``at`` of each row's own slot, ``_rest_at`` of the slots after it
        # (slot ``max_slots`` is the padding that reads ``+0.0``).
        rest_slots = np.minimum(
            self.slots[None, :] + 1 + np.arange(width)[:, None], max_slots)
        self.at = ((self.slots * queries + self.rows)[:, None] * templates
                   + np.arange(templates))
        self._rest_at = ((rest_slots * queries + self.rows)[:, :, None]
                         * templates + np.arange(templates))
        self.place = {index: place for place, index in enumerate(indexes)}
        #: ``(indexes, rows, templates)``; at most the tensor's size.
        self.gamma = (tensor.gamma_columns(self.rows, self.slots, indexes)
                      if len(self.rows) else None)
        # An UPDATE's shell reads only its own table, so the UPDATEs among
        # these rows are exactly the ones whose maintenance ``table`` moves.
        updates = base.updates
        self.updates = np.array(
            [place for place, row in enumerate(self.rows.tolist())
             if row in updates], dtype=np.intp)
        self.update_rows = self.rows[self.updates]
        self.update_base = base.update_base[self.update_rows]
        self.ucosts = np.array(
            [[inum.maintenance_cost(updates[row], index)
              for row in self.update_rows.tolist()] for index in indexes],
            dtype=np.float64).reshape(len(indexes), len(self.updates))
        #: Names of the other probed tables sharing a statement row.
        self.neighbours: tuple[str, ...] = ()

    def view(self, by_slot: np.ndarray, running: np.ndarray) -> _View:
        """The table's ``(prefix, rest, current)`` under the slot minima
        ``by_slot`` and their ``running`` sums (see :func:`_running_sums`)."""
        return (running.take(self.at), by_slot.take(self._rest_at),
                by_slot.take(self.at))


def _running_sums(beta: np.ndarray, by_slot: np.ndarray) -> np.ndarray:
    """``running[s] = beta + slot 0 + ... + slot s-1`` for every row, added
    one slot at a time in slot order as ``shell_minimum`` adds them:
    ``(slots, rows, templates)`` from slot minima ``by_slot`` shaped
    ``(slots + 1, rows, templates)``."""
    running = np.empty((len(by_slot) - 1, *beta.shape))
    running[0] = beta
    for slot in range(1, len(running)):
        np.add(running[slot - 1], by_slot[slot - 1], out=running[slot])
    return running


class ProbeBase:
    """What every :class:`ConfigurationProbe` of ``indexes`` starts from.

    Holds only what depends on the workload's tensor and ``indexes`` — the
    per-table rows and γ blocks, the empty configuration's slot minima,
    weighted costs and per-table views, the UPDATE base costs and the map
    of tables sharing a statement row — so one base serves any number of
    probes.  Nothing in it is mutated after construction: a probe copies
    the arrays it updates.

    Args:
        inum: The cache whose workload tensor holds the costs.
        workload: The workload being costed.
        indexes: Every index that will be probed or added; their columns are
            registered and gathered per table here.
    """

    def __init__(self, inum: InumCache, workload: Workload,
                 indexes: Sequence[Index]):
        tensor = inum.workload_tensor(workload)
        tensor.ensure_columns(indexes)
        empty = Configuration(())
        self.weights = np.array([statement.weight for statement in workload],
                                dtype=np.float64)
        self.updates = {position: statement.query
                        for position, statement in enumerate(workload)
                        if isinstance(statement.query, UpdateQuery)}
        self.update_base = np.zeros(len(self.weights), dtype=np.float64)
        for position, update in self.updates.items():
            self.update_base[position] = inum.optimizer.base_update_cost(update)
        self.beta = tensor.beta_rows(np.arange(tensor.query_count))
        # Slot-major, with one extra slot of +0.0 that the rest columns
        # past a row's last slot read: ``(slots + 1, rows, templates)``.
        slot_min = tensor.slot_minima(empty).transpose(2, 0, 1)
        self.by_slot = np.concatenate(
            (slot_min, np.zeros((1, *slot_min.shape[1:]))))
        self.running = _running_sums(self.beta, self.by_slot)
        self.products = inum.statement_costs(workload, empty) * self.weights
        self.total = float(_total(self.products))
        by_table: dict[str, list[Index]] = {}
        for index in dict.fromkeys(indexes):
            by_table.setdefault(index.table, []).append(index)
        self.tables = {
            table: _TableRows(self, inum, tensor, table, members)
            for table, members in by_table.items()}
        probed = {name: table for name, table in self.tables.items()
                  if table.gamma is not None}
        tables_of_row: dict[int, list[str]] = {}
        for name, table in probed.items():
            for row in table.rows.tolist():
                tables_of_row.setdefault(row, []).append(name)
        for name, table in probed.items():
            table.neighbours = tuple(dict.fromkeys(
                other for row in table.rows.tolist()
                for other in tables_of_row[row] if other != name))
        self.views = {name: table.view(self.by_slot, self.running)
                      for name, table in probed.items()}
        for array in (self.weights, self.update_base, self.beta,
                      self.by_slot, self.running, self.products):
            array.setflags(write=False)


class ConfigurationProbe:
    """Costs of ``chosen ∪ {c}`` for a configuration grown by :meth:`add`.

    Args:
        base: The request-invariant state; ``chosen`` starts empty.  The
            probe copies the arrays it updates and never writes to ``base``.
    """

    def __init__(self, base: ProbeBase):
        self._base = base
        self._tables = base.tables
        self._by_slot = base.by_slot.copy()
        self._products = base.products.copy()
        self._maintenance = np.zeros(len(base.weights), dtype=np.float64)
        self._total = base.total
        #: ``chosen``'s running sums; ``None`` once a pick moved them.
        self._running: np.ndarray | None = base.running
        #: Tables whose view is not ``chosen``'s are absent (rebuilt lazily).
        self._views = dict(base.views)
        #: The last :meth:`cost_with`: ``(index, products, total)``.
        self._probed: tuple[Index, np.ndarray, float] | None = None

    # ------------------------------------------------------------------ probing
    def costs_with(self, indexes: Sequence[Index]) -> np.ndarray:
        """``workload_cost(chosen.union((c,)))`` for each ``c``, in order.

        One reduction per table.  Its largest temporary holds (the table's
        indexes × its statements × templates) floats — a part of the
        tensor's (candidates × statements × templates × slots) — so no
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
            if table.gamma is None:
                totals[ats] = self._total
                continue
            products = self._products[None].repeat(len(places), axis=0)
            products[:, table.rows] = self._weighted_shells(
                name, table, table.gamma[places], table.ucosts[places])
            totals[ats] = _total(products)
        return totals

    def cost_with(self, index: Index) -> float:
        """``workload_cost(chosen.union((index,)))``."""
        table = self._tables[index.table]
        if table.gamma is None:
            return self._total
        place = table.place[index]
        products = self._products.copy()
        products[table.rows] = self._weighted_shells(
            index.table, table, table.gamma[place], table.ucosts[place])
        total = float(_total(products))
        self._probed = (index, products, total)
        return total

    def _view(self, name: str, table: _TableRows) -> _View:
        view = self._views.get(name)
        if view is None:
            if self._running is None:
                self._running = _running_sums(self._base.beta,
                                              self._by_slot)
            view = self._views[name] = table.view(self._by_slot,
                                                  self._running)
        return view

    def _weighted_shells(self, name: str, table: _TableRows,
                         gamma: np.ndarray, ucosts: np.ndarray) -> np.ndarray:
        """``w * cost`` of ``table``'s rows with each ``gamma`` block's index
        added to ``chosen``: ``(..., rows)`` for ``gamma`` ``(..., rows,
        templates)`` and ``ucosts`` ``(..., updates)``."""
        prefix, rest, current = self._view(name, table)
        totals = np.minimum(current, gamma)
        totals += prefix
        for column in rest:
            totals += column
        shells = np.minimum.reduce(totals, axis=-1)
        if len(table.updates):
            shells[..., table.updates] = update_statement_cost(
                shells[..., table.updates],
                self._maintenance[table.update_rows] + ucosts,
                table.update_base)
        return shells * table.weights

    # ----------------------------------------------------------------- picking
    def add(self, index: Index) -> None:
        """Grow ``chosen`` by ``index`` (not already in it)."""
        table = self._tables[index.table]
        if table.gamma is None:
            return
        name = index.table
        place = table.place[index]
        if self._probed is not None and self._probed[0] is index:
            # The greedy picks what it has just probed: that probe's state.
            _, self._products, self._total = self._probed
        else:
            self._products[table.rows] = self._weighted_shells(
                name, table, table.gamma[place], table.ucosts[place])
            self._total = float(_total(self._products))
        self._probed = None
        if len(table.updates):
            self._maintenance[table.update_rows] += table.ucosts[place]
        # Only this table's slots move: its own prefix and rest stand, and
        # every table sharing one of its rows is rebuilt when next probed.
        prefix, rest, current = self._view(name, table)
        current = np.minimum(current, table.gamma[place])
        self._views[name] = (prefix, rest, current)
        self._by_slot.put(table.at, current)
        self._running = None
        for other in table.neighbours:
            self._views.pop(other, None)
