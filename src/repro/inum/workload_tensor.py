"""The workload-level gamma tensor: batched INUM costing across queries.

PR 1 vectorized *per-query* costing (:class:`~repro.inum.gamma_matrix.
QueryGammaMatrix`), which left ``workload_cost`` as a Python loop over the
statements — the dominant cost of configuration-enumeration loops (knapsack
greedies, relaxation searches, benchmark evaluations) that re-cost whole
workloads thousands of times per tuning session.  This module stacks every
query's gamma matrix into ONE padded float64 tensor

    ``tensor[q, k, i, a]  ==  gamma_{q,k,i,a}``

of shape ``(queries, max templates, max slots, 1 + candidates)`` so that
costing a configuration for the whole workload is a handful of numpy
reductions instead of a per-query Python loop.

Layout and padding rules (chosen so padding is inert under the reductions):

* Column ``0`` is the heap access ``I_0``; column ``j >= 1`` belongs to the
  ``j``-th candidate of a *shared* candidate → column mapping.  A candidate
  that is irrelevant to a query (not registered in its matrix, or on a table
  the query never touches) holds ``inf`` in that query's rows, so the
  per-slot ``min`` never selects it — this is the per-query mask.
* Template rows beyond a query's own template count hold ``inf`` everywhere
  and ``beta = inf``, so the final ``min`` over templates ignores them.
* Slot rows beyond a query's own table count hold ``0.0`` in the heap column
  and ``inf`` elsewhere, so they contribute exactly ``+0.0`` to the slot sum.

Bit-identity with :meth:`QueryGammaMatrix.cost` is preserved by construction:
the tensor stores the very same floats, the per-slot ``min`` runs over the
same value set (plus ``inf`` entries, which cannot win), and the slot minima
are accumulated onto ``beta`` in each query's own slot order — the same
addition sequence the per-query path performs.

Per-configuration results are memoized with the same two-level scheme the
per-query matrices use for slot minima (identity first, equality fallback),
keyed ONCE for the whole workload instead of once per (query, slot).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.gamma_matrix import QueryGammaMatrix
from repro.inum.template_plan import INFEASIBLE_COST
from repro.workload.query import Query

__all__ = ["WorkloadGammaTensor", "shell_minimum"]

#: Cap on memoized per-configuration cost vectors before a wholesale reset.
_COST_MEMO_LIMIT = 4096


def shell_minimum(beta: np.ndarray, slot_min: np.ndarray) -> np.ndarray:
    """``min_k (beta_k + slot_min_k0 + slot_min_k1 + ...)``: shell costs from
    per-slot minima shaped ``(..., templates, slots)``.

    The one statement of the summation order every tensor shell cost uses:
    the slot minima are added onto ``beta`` one slot at a time, in slot
    order — the addition sequence of each query's own gamma matrix, so the
    result is bit-identical to the per-query path (never ``np.sum``, whose
    pairwise order differs).  Padded slots add exactly 0.0; ``min`` is
    exact in any order.
    """
    # ``beta + first`` is the add ``beta.copy(); totals += first`` performs,
    # broadcast over any leading axes.  Every query has a slot.
    totals = beta + slot_min[..., 0]
    for slot in range(1, slot_min.shape[-1]):
        totals += slot_min[..., slot]
    return totals.min(axis=-1)


class WorkloadGammaTensor:
    """Stacked gamma matrices of a workload's query shells.

    Args:
        entries: ``(query shell, gamma matrix)`` pairs in workload statement
            order.  The same shell may appear more than once (workloads may
            repeat statements); each occurrence gets its own row so cost
            vectors stay position-aligned with the workload.
    """

    def __init__(self, entries: Sequence[tuple[Query, QueryGammaMatrix]]):
        self._entries = tuple(entries)
        query_count = len(self._entries)
        self._template_counts = np.array(
            [len(matrix.templates) for _, matrix in self._entries], dtype=np.intp
        ) if query_count else np.zeros(0, dtype=np.intp)
        self._slot_counts = np.array(
            [len(shell.tables) for shell, _ in self._entries], dtype=np.intp
        ) if query_count else np.zeros(0, dtype=np.intp)
        max_templates = int(self._template_counts.max()) if query_count else 0
        max_slots = int(self._slot_counts.max()) if query_count else 0

        # Shared candidate -> column mapping (column 0 = heap), seeded from
        # whatever the matrices have registered so far, in workload order.
        self._column_of: dict[Index, int] = {}
        for _, matrix in self._entries:
            for index in matrix.registered_indexes:
                if index not in self._column_of:
                    self._column_of[index] = 1 + len(self._column_of)
        self._position_of: dict[str, int] = {}
        for position, (shell, _) in enumerate(self._entries):
            self._position_of.setdefault(shell.name, position)

        self._beta = np.full((query_count, max_templates), INFEASIBLE_COST,
                             dtype=np.float64)
        self._tensor = np.full(
            (query_count, max_templates, max_slots, 1 + len(self._column_of)),
            INFEASIBLE_COST, dtype=np.float64)

        # Per-table slot registry: which (query row, slot) pairs hold which
        # table.  Configuration costing gathers per table — one numpy call per
        # referenced table instead of one per (query, slot).
        slots_by_table: dict[str, tuple[list[int], list[int]]] = {}
        for position, (shell, matrix) in enumerate(self._entries):
            templates = len(matrix.templates)
            slots = len(shell.tables)
            if templates:
                self._beta[position, :templates] = matrix.beta
                self._fill_query_rows(position, shell, matrix)
            # Padded slots: +0.0 through the heap column for every template
            # row (real and padded alike).
            self._tensor[position, :, slots:, 0] = 0.0
            for slot, table in enumerate(shell.tables):
                rows, slot_rows = slots_by_table.setdefault(table, ([], []))
                rows.append(position)
                slot_rows.append(slot)
        self._slots_by_table: dict[str, tuple[np.ndarray, np.ndarray]] = {
            table: (np.array(rows, dtype=np.intp),
                    np.array(slot_rows, dtype=np.intp))
            for table, (rows, slot_rows) in slots_by_table.items()}

        # Two-level per-configuration memo: by object identity (no hashing;
        # the stored configuration keeps the id alive) and by set equality
        # (hits for equal configurations built freshly by enumeration loops).
        self._cost_memo_by_id: dict[int, tuple[Configuration, np.ndarray]] = {}
        self._cost_memo_by_key: dict[Configuration, np.ndarray] = {}

    def _fill_query_rows(self, position: int, shell: Query,
                         matrix: QueryGammaMatrix) -> None:
        """Copy one matrix's heap and candidate columns into the stack.

        Every shared-mapping candidate on the query's own tables is
        registered in the matrix first: candidates seen by *other* matrices
        may not be registered in this one yet, and skipping them would bake
        a permanent (wrong) ``inf`` into this query's rows — the shared
        column map makes later ``ensure_columns`` calls no-ops for them.
        """
        templates = len(matrix.templates)
        slots = len(shell.tables)
        tables = set(shell.tables)
        relevant = [index for index in self._column_of if index.table in tables]
        if relevant:
            matrix.ensure_columns(relevant)
        array = matrix.array
        # Index the query row first so the column list stays the only
        # advanced index (mixing it with a scalar row would reorder axes).
        rows = self._tensor[position]
        rows[:templates, :slots, 0] = array[:, :, 0]
        if relevant:
            local = [matrix.column_of(index) for index in relevant]
            shared = [self._column_of[index] for index in relevant]
            rows[:templates, :slots, shared] = array[:, :, local]

    # ----------------------------------------------------------------- metadata
    @property
    def query_count(self) -> int:
        return len(self._entries)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """``(queries, max templates, max slots, 1 + candidates)``."""
        return self._tensor.shape

    @property
    def candidate_columns(self) -> tuple[Index, ...]:
        """Candidates of the shared column mapping, in column order."""
        return tuple(self._column_of)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the stacked cost arrays."""
        return int(self._tensor.nbytes + self._beta.nbytes)

    @property
    def shell_count(self) -> int:
        """Number of distinct query shells (by name) among the rows."""
        return len(self._position_of)

    def position_of(self, query_name: str) -> int | None:
        """Row of the first statement whose shell carries ``query_name``."""
        return self._position_of.get(query_name)

    def has_columns(self, indexes: Iterable[Index]) -> bool:
        """Whether :meth:`ensure_columns` would add nothing for ``indexes``:
        each has a column, or is on a table no query touches."""
        column_of, tables = self._column_of, self._slots_by_table
        return all(index in column_of or index.table not in tables
                   for index in indexes)

    # ----------------------------------------------------------------- building
    # reprolint: requires-lock (mutates the shared tensor; callers hold the
    # owning SchemaContext.lock or operate on a process-local cache)
    def ensure_columns(self, indexes: Iterable[Index]) -> None:
        """Extend the shared column mapping with any not-yet-seen indexes.

        Each new index is registered in every member matrix whose query
        touches its table, and the freshly costed column is appended to the
        stack; queries that never touch the table keep ``inf`` (the mask).
        Indexes on tables no query references get no column at all — they
        cannot influence any cost.  Existing memo entries stay valid: they
        were computed with their configuration fully registered, and old
        columns are never mutated.
        """
        new = [index for index in dict.fromkeys(indexes)
               if index is not None and index not in self._column_of
               and index.table in self._slots_by_table]
        if not new:
            return
        base = self._tensor.shape[3]
        query_count, max_templates, max_slots, _ = self._tensor.shape
        block = np.full((query_count, max_templates, max_slots, len(new)),
                        INFEASIBLE_COST, dtype=np.float64)
        offset_of = {index: offset for offset, index in enumerate(new)}
        for position, (shell, matrix) in enumerate(self._entries):
            tables = set(shell.tables)
            relevant = [index for index in new if index.table in tables]
            if not relevant:
                continue
            matrix.ensure_columns(relevant)
            templates = len(matrix.templates)
            slots = len(shell.tables)
            if not templates:
                continue
            local = [matrix.column_of(index) for index in relevant]
            offsets = [offset_of[index] for index in relevant]
            block[position][:templates, :slots, offsets] = \
                matrix.array[:, :, local]
        self._tensor = np.concatenate([self._tensor, block], axis=3)
        for offset, index in enumerate(new):
            self._column_of[index] = base + offset

    # ------------------------------------------------------------------ costing
    def shell_costs(self, configuration: Configuration | Iterable[Index]
                    ) -> np.ndarray:
        """``cost(q, X)`` of every query shell, in workload statement order.

        Returns a read-only float64 vector (memoized — callers must not
        mutate it); infeasible queries hold ``inf``.  Every value is
        bit-identical to :meth:`QueryGammaMatrix.cost` on the same
        configuration.
        """
        if not isinstance(configuration, Configuration):
            configuration = Configuration(configuration)
        cached = self._cost_memo_by_id.get(id(configuration))
        if cached is not None and cached[0] is configuration:
            return cached[1]
        costs = self._cost_memo_by_key.get(configuration)
        if costs is None:
            costs = self._reduce(configuration)
            costs.setflags(write=False)
            if len(self._cost_memo_by_key) >= _COST_MEMO_LIMIT:
                self._cost_memo_by_key.clear()
                self._cost_memo_by_id.clear()
            self._cost_memo_by_key[configuration] = costs
        if len(self._cost_memo_by_id) >= _COST_MEMO_LIMIT:
            self._cost_memo_by_id.clear()
        self._cost_memo_by_id[id(configuration)] = (configuration, costs)
        return costs

    def _reduce(self, configuration: Configuration) -> np.ndarray:
        """The stacked reduction: ``min_k (beta + sum_i min_a gamma)`` per query."""
        query_count, max_templates, _, _ = self._tensor.shape
        if query_count == 0:
            return np.zeros(0, dtype=np.float64)
        if max_templates == 0:
            return np.full(query_count, INFEASIBLE_COST, dtype=np.float64)
        return shell_minimum(self._beta, self.slot_minima(configuration))

    def slot_minima(self, configuration: Configuration) -> np.ndarray:
        """Per-slot minima over ``{I_0} ∪ X``: a fresh ``(queries,
        templates, slots)`` array (registers the configuration's columns).

        Gathered one table at a time: a candidate only has finite entries in
        slots holding its own table, so each gather touches exactly the
        informative columns.  Padded slots hold 0.0 (they belong to no table
        group), as does the heap column there.
        """
        self.ensure_columns(configuration.indexes)
        query_count, max_templates, max_slots, _ = self._tensor.shape
        slot_min = np.zeros((query_count, max_templates, max_slots),
                            dtype=np.float64)
        for table, (rows, slots) in self._slots_by_table.items():
            columns = [0]
            columns.extend(self._column_of[index]
                           for index in configuration.indexes_on(table)
                           if index in self._column_of)
            gathered = self._tensor[rows[:, None], :, slots[:, None],
                                    np.array(columns, dtype=np.intp)[None, :]]
            # Advanced indexing puts the broadcast (row, column) axes first:
            # ``gathered`` is (pairs, columns, templates).
            slot_min[rows, :, slots] = gathered.min(axis=1)
        return slot_min

    def table_slots(self, table: str) -> tuple[np.ndarray, np.ndarray]:
        """The ``(query rows, slots)`` pairs holding ``table`` (empty arrays
        for a table no query touches)."""
        empty = np.zeros(0, dtype=np.intp)
        return self._slots_by_table.get(table, (empty, empty))

    def beta_rows(self, rows: np.ndarray) -> np.ndarray:
        """``beta`` of the given query rows: ``(rows, templates)``."""
        return self._beta[rows]

    def gamma_columns(self, rows: np.ndarray, slots: np.ndarray,
                      indexes: Sequence[Index]) -> np.ndarray:
        """``gamma`` of each ``(row, slot)`` pair for each index:
        ``(pairs, indexes, templates)``.  The indexes' columns must be
        registered."""
        columns = np.array([self._column_of[index] for index in indexes],
                           dtype=np.intp)
        return self._tensor[rows[:, None], :, slots[:, None], columns[None, :]]

    # ----------------------------------------------------------------- per-query
    def view(self, query_name: str) -> "QueryTensorView":
        """A per-query read view (used by BIP coefficient assembly)."""
        position = self.position_of(query_name)
        if position is None:
            raise KeyError(f"Query {query_name!r} is not part of this tensor")
        return QueryTensorView(self, position)


class QueryTensorView:
    """One query's rows of a workload tensor, with the gamma-matrix read API.

    BIP coefficient assembly consumes per-slot gamma blocks; this view
    answers them from the stacked tensor through the shared candidate →
    column mapping, so the BIP's coefficients come from the same array every
    ``workload_cost`` reduction reads.
    """

    def __init__(self, tensor: WorkloadGammaTensor, position: int):
        self._tensor = tensor
        self._position = position
        shell, matrix = tensor._entries[position]
        self._matrix = matrix
        self._slot_of = {table: slot for slot, table in enumerate(shell.tables)}

    @property
    def matrix(self) -> QueryGammaMatrix:
        """The underlying per-query matrix (correctness oracle)."""
        return self._matrix

    # reprolint: requires-lock (mutates the shared tensor; callers hold the
    # owning SchemaContext.lock or operate on a process-local cache)
    def ensure_columns(self, indexes: Iterable[Index]) -> None:
        """Register columns tensor-wide (keeps matrix and stack in sync)."""
        self._tensor.ensure_columns(indexes)

    def slot_block(self, table: str,
                   accesses: Sequence[Index | None]) -> np.ndarray:
        """One slot's gammas: a row per template, a column per access
        (``None`` = heap).  The accesses' columns must be registered."""
        column_of = self._tensor._column_of
        columns = [0 if access is None else column_of[access]
                   for access in accesses]
        rows = self._tensor._tensor[self._position,
                                    :len(self._matrix.templates),
                                    self._slot_of[table]]
        return rows[:, columns]

    def value(self, position: int, table: str, index: Index | None) -> float:
        """``gamma_qkia`` for template ``position`` / slot ``table`` / ``index``."""
        slot = self._slot_of.get(table)
        if slot is None:
            return self._matrix.value(position, table, index)
        if index is None:
            return float(self._tensor._tensor[self._position, position, slot, 0])
        column = self._tensor._column_of.get(index)
        if column is None:
            self.ensure_columns((index,))
            column = self._tensor._column_of.get(index)
            if column is None:  # index on a table no query touches
                return self._matrix.value(position, table, index)
        return float(self._tensor._tensor[self._position, position, slot, column])
