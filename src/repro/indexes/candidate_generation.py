"""Candidate index generation (the CGen component of CoPhy).

CGen examines each workload statement and emits candidate indexes from the
referenced columns using well-known heuristics (section 4 of the paper):

* single-column indexes on sargable predicate columns, join columns, group-by
  and order-by columns;
* multi-column indexes whose key starts with equality columns followed by
  range columns (the classic "merge the sargable columns" rule);
* covering indexes that append the statement's output columns as INCLUDE
  columns;
* clustered variants for the most promising keys.

In contrast to existing advisors, CGen applies *no pruning* — the candidate
set may be large (1933 indexes for the paper's ``W_hom``) because the BIP
solver is the one doing the pruning.  The DBA may add hand-picked candidates
(``S_DBA``).  The result is a :class:`CandidateSet` that keeps the per-table
partitions ``S_i`` the BIP needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.catalog.schema import Schema
from repro.exceptions import IndexDefinitionError
from repro.indexes.index import Index, index_size_bytes
from repro.obs.metrics import active_registry
from repro.workload.query import Query, UpdateQuery
from repro.workload.workload import WORKLOAD_LRU_LIMIT, Workload

__all__ = ["CandidateGenerator", "CandidateSet"]


class CandidateSet:
    """The candidate index set ``S = S_1 ∪ ... ∪ S_n``, partitioned by table."""

    def __init__(self, schema: Schema, indexes: Iterable[Index] = ()):
        self._schema = schema
        self._by_table: dict[str, list[Index]] = {name: [] for name in schema.table_names}
        self._all: list[Index] = []
        self._seen: set[Index] = set()
        self._sizes: dict[Index, float] = {}
        for index in indexes:
            self.add(index)

    # ------------------------------------------------------------------- update
    def add(self, index: Index) -> bool:
        """Add a candidate; returns False if it was already present."""
        if index.table not in self._by_table:
            raise IndexDefinitionError(
                f"Candidate index {index.name} references unknown table "
                f"{index.table!r}")
        if index in self._seen:
            return False
        self._seen.add(index)
        self._by_table[index.table].append(index)
        self._all.append(index)
        return True

    def add_all(self, indexes: Iterable[Index]) -> int:
        """Add many candidates; returns how many were new."""
        return sum(1 for index in indexes if self.add(index))

    def remove(self, index: Index) -> bool:
        """Drop a candidate (interactive tuning: the DBA retracts an index).

        Returns ``False`` when the index was not part of the set.  Cached
        size estimates are kept — they are pure functions of the index.
        """
        if index not in self._seen:
            return False
        self._seen.discard(index)
        self._by_table[index.table].remove(index)
        self._all.remove(index)
        return True

    def remove_all(self, indexes: Iterable[Index]) -> int:
        """Drop many candidates; returns how many were actually present."""
        return sum(1 for index in indexes if self.remove(index))

    # ---------------------------------------------------------------- accessors
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def indexes(self) -> tuple[Index, ...]:
        return tuple(self._all)

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self):
        return iter(self._all)

    def __contains__(self, index: Index) -> bool:
        return index in self._seen

    def for_table(self, table: str) -> tuple[Index, ...]:
        """The partition ``S_i`` for a table (empty tuple for unknown tables)."""
        return tuple(self._by_table.get(table, ()))

    def tables_with_candidates(self) -> tuple[str, ...]:
        return tuple(table for table, indexes in self._by_table.items() if indexes)

    def size_of(self, index: Index) -> float:
        """Estimated size in bytes of a candidate (cached)."""
        if index not in self._sizes:
            self._sizes[index] = index_size_bytes(index, self._schema.table(index.table))
        return self._sizes[index]

    def total_size(self) -> float:
        return sum(self.size_of(index) for index in self._all)

    def subset(self, indexes: Sequence[Index]) -> "CandidateSet":
        """A new candidate set restricted to ``indexes`` (order preserved)."""
        return CandidateSet(self._schema, indexes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CandidateSet({len(self._all)} candidates over {len(self._by_table)} tables)"


@dataclass(frozen=True)
class _GenerationOptions:
    """Knobs controlling how aggressive candidate generation is."""

    single_column: bool = True
    multi_column: bool = True
    covering: bool = True
    clustered: bool = True
    max_key_columns: int = 3
    max_include_columns: int = 4
    per_query_limit: int | None = None


class CandidateGenerator:
    """Generates the candidate set ``S`` from a workload (CGen).

    Args:
        schema: The catalog the workload runs against.
        single_column: Emit single-column candidates for every interesting column.
        multi_column: Emit composite candidates (equality columns then range columns).
        covering: Emit covering variants that INCLUDE the statement's output columns.
        clustered: Emit clustered variants of the most promising keys.
        max_key_columns: Maximum number of key columns in a composite candidate.
        max_include_columns: Maximum number of INCLUDE columns in a covering candidate.
        per_query_limit: Optional cap on candidates emitted per statement (the
            paper's CGen is unpruned; the cap exists for the baselines).
    """

    def __init__(self, schema: Schema, single_column: bool = True,
                 multi_column: bool = True, covering: bool = True,
                 clustered: bool = True, max_key_columns: int = 3,
                 max_include_columns: int = 4,
                 per_query_limit: int | None = None):
        self._schema = schema
        self._options = _GenerationOptions(
            single_column=single_column,
            multi_column=multi_column,
            covering=covering,
            clustered=clustered,
            max_key_columns=max(1, max_key_columns),
            max_include_columns=max(0, max_include_columns),
            per_query_limit=per_query_limit,
        )
        # Generated candidates keyed by workload object identity; the stored
        # workload keeps the id alive (workloads are immutable, so identity
        # is a sufficient key, as for the INUM tensor cache).  The size
        # estimates are shared by every set handed out for the workload:
        # they are pure functions of the index and the catalog.
        self._generated: dict[int, tuple[Workload, tuple[Index, ...],
                                         dict[Index, float]]] = {}

    # -------------------------------------------------------------------- public
    def generate(self, workload: Workload,
                 dba_indexes: Iterable[Index] = ()) -> CandidateSet:
        """Generate candidates for a workload, plus DBA-supplied indexes ``S_DBA``.

        The generated indexes are kept per workload object (the last
        ``WORKLOAD_LRU_LIMIT`` workloads), counted as
        ``repro_cache_events_total{cache="candidates"}``.  Every call returns
        a fresh :class:`CandidateSet` — sessions mutate theirs — with the
        DBA indexes after the generated ones.
        """
        events = active_registry().counter(
            "repro_cache_events_total",
            "Hits and misses of the tuning-stack caches", ("cache", "event"))
        key = id(workload)
        entry = self._generated.pop(key, None)
        if entry is not None and entry[0] is workload:
            events.inc(cache="candidates", event="hit")
            # Re-inserted last: the eviction below pops the least recent.
            self._generated[key] = entry
            candidates = CandidateSet(self._schema, entry[1])
            candidates._sizes = entry[2]
        else:
            events.inc(cache="candidates", event="miss")
            candidates = CandidateSet(self._schema)
            for statement in workload:
                for index in self.candidates_for_query(statement.query):
                    candidates.add(index)
            if len(self._generated) >= WORKLOAD_LRU_LIMIT:
                del self._generated[next(iter(self._generated))]
            self._generated[key] = (workload, candidates.indexes,
                                    candidates._sizes)
        candidates.add_all(dba_indexes)
        return candidates

    def candidates_for_query(self, query: Query) -> tuple[Index, ...]:
        """Candidate indexes suggested by a single statement."""
        source = query
        if isinstance(query, UpdateQuery):
            # Updates contribute candidates through their query shell: indexes
            # that speed up locating the affected rows.
            source = query.query_shell()
        produced: list[Index] = []
        for table in source.tables:
            produced.extend(self._candidates_for_table(source, table))
        limit = self._options.per_query_limit
        if limit is not None:
            produced = produced[:limit]
        return tuple(dict.fromkeys(produced))

    # ------------------------------------------------------------------ internals
    def _candidates_for_table(self, query: Query, table: str) -> list[Index]:
        table_def = self._schema.table(table)
        equality_columns = [p.column.column for p in query.sargable_predicates_on(table)
                            if p.is_equality]
        range_columns = [p.column.column for p in query.sargable_predicates_on(table)
                         if not p.is_equality]
        join_columns = [c.column for c in query.join_columns_on(table)]
        group_columns = [c.column for c in query.group_by_on(table)]
        order_columns = [c.column for c in query.order_by_on(table)]
        output_columns = [c.column for c in query.output_columns_on(table)]

        def existing(columns: Iterable[str]) -> list[str]:
            return [c for c in dict.fromkeys(columns) if table_def.has_column(c)]

        equality_columns = existing(equality_columns)
        range_columns = existing(range_columns)
        join_columns = existing(join_columns)
        group_columns = existing(group_columns)
        order_columns = existing(order_columns)
        output_columns = existing(output_columns)

        produced: list[Index] = []
        interesting_single = dict.fromkeys(
            equality_columns + range_columns + join_columns + group_columns
            + order_columns)
        if self._options.single_column:
            for column in interesting_single:
                produced.append(Index(table, (column,)))

        composite_keys: list[tuple[str, ...]] = []
        if self._options.multi_column:
            composite_keys.extend(self._composite_keys(
                equality_columns, range_columns, join_columns, group_columns,
                order_columns))
            for key in composite_keys:
                produced.append(Index(table, key))

        if self._options.covering:
            produced.extend(self._covering_variants(
                table, interesting_single, composite_keys, output_columns))

        if self._options.clustered and interesting_single:
            # The most selective access pattern: cluster on the first
            # composite key if one exists, else on the first interesting column.
            best_key = composite_keys[0] if composite_keys else (
                next(iter(interesting_single)),)
            produced.append(Index(table, best_key, clustered=True))

        return produced

    def _composite_keys(self, equality_columns: list[str], range_columns: list[str],
                        join_columns: list[str], group_columns: list[str],
                        order_columns: list[str]) -> list[tuple[str, ...]]:
        max_keys = self._options.max_key_columns
        keys: list[tuple[str, ...]] = []

        def add(columns: Iterable[str]) -> None:
            key = tuple(dict.fromkeys(columns))[:max_keys]
            if len(key) >= 2 and key not in keys:
                keys.append(key)

        # Equality columns first, then one range column (B-tree prefix rule).
        if equality_columns:
            add(equality_columns)
            for range_column in range_columns:
                add([*equality_columns, range_column])
            for join_column in join_columns:
                add([*equality_columns, join_column])
        # Join column leading, then filters (useful for the inner side of
        # index nested-loop joins with residual predicates).
        for join_column in join_columns:
            add([join_column, *equality_columns])
            add([join_column, *range_columns])
        # Group-by / order-by driven keys enable sort-free aggregation.
        if group_columns:
            add(group_columns)
            add([*group_columns, *equality_columns])
        if order_columns:
            add(order_columns)
        return keys

    def _covering_variants(self, table: str, interesting_single: dict[str, None],
                           composite_keys: list[tuple[str, ...]],
                           output_columns: list[str]) -> list[Index]:
        max_includes = self._options.max_include_columns
        if not output_columns or max_includes == 0:
            return []
        produced: list[Index] = []
        base_keys: list[tuple[str, ...]] = []
        base_keys.extend(composite_keys[:2])
        base_keys.extend((column,) for column in list(interesting_single)[:2])
        for key in base_keys:
            includes = tuple(c for c in output_columns if c not in key)[:max_includes]
            if includes:
                produced.append(Index(table, key, include_columns=includes))
        return produced
