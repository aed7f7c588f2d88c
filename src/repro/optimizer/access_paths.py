"""Access-path selection: costing heap scans and (hypothetical) index scans.

Everything an access path needs to know about the *query* — the rows that
survive the local predicates, how selective the sargable predicates on each
column are, which columns must be produced — is a property of the (query,
table) pair, not of the index.  It is profiled once per pair
(:class:`_TableProfile`).  Everything it needs to know about the *index* —
its leaf pages, B-tree height, correlation and output order, the rows and
heap pages of its table, the columns it stores — is a property of the index
and the catalog alone, derived once per index (:class:`_IndexTerms`).
Costing a candidate index for a query is arithmetic on the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.schema import Schema
from repro.indexes.index import Index
from repro.optimizer.cost_model import CostModel
from repro.optimizer.plan import AccessPath, ScanNode
from repro.optimizer.selectivity import SelectivityEstimator
from repro.workload.predicates import ColumnRef, ComparisonOperator, column_ref
from repro.workload.query import Query

__all__ = ["AccessPathSelector"]


@dataclass(slots=True)
class _TableProfile:
    """What a query asks of one of its tables, whatever the access method:
    the rows surviving its local predicates; per column with sargable
    predicates the product of their selectivities (in predicate order) and
    whether all are equalities (a range ends the usable key prefix); the
    names of the columns it mentions; the width it contributes."""

    output_rows: float
    sargable: dict[str, tuple[float, bool]]
    referenced: tuple[str, ...]
    output_width: float


@dataclass(slots=True)
class _IndexTerms:
    """What a scan through one index costs whatever the query: the index's
    leaf pages and B-tree height, the correlation of its leading column, the
    order it delivers, the rows and heap pages of its table and the columns
    it stores."""

    leaf_pages: float
    tree_height: float
    correlation: float
    order: ColumnRef
    table_rows: float
    heap_pages: float
    stored: frozenset[str]


class AccessPathSelector:
    """Builds costed :class:`ScanNode` leaves for a query/table/index triple.

    The scan node produced for an index access uses exactly that index (it
    does not silently fall back to a heap scan); choosing between the index
    and the heap is the job of the configuration search above — in the BIP it
    corresponds to the ``I_0`` ("no index") variable, in the what-if optimizer
    to enumerating atomic configurations.
    """

    def __init__(self, schema: Schema, cost_model: CostModel,
                 selectivity: SelectivityEstimator):
        self._schema = schema
        self._cost_model = cost_model
        self._selectivity = selectivity
        # Per query name: the query object profiled and its per-table
        # profiles.  Nothing bounds it, nor the owning optimizer's scan
        # cache: both grow with the statements and indexes costed.
        self._profiles: dict[str, tuple[Query, dict[str, _TableProfile]]] = {}
        # Per index, and per table for a heap scan: the query-independent
        # half of a scan's costing (an index is keyed by its definition, so
        # equal indexes share one entry).
        self._index_terms: dict[Index, _IndexTerms] = {}
        self._heap_scans: dict[str, tuple[float, ColumnRef | None]] = {}

    # -------------------------------------------------------------------- public
    def seq_scan(self, query: Query, table: str) -> ScanNode:
        """A heap scan of ``table`` with the query's local predicates applied."""
        cost, order = self._heap_scan(table)
        return ScanNode(cost=cost, rows=self._profile(query, table).output_rows,
                        output_order=order, table=table, index=None,
                        access_path=AccessPath.SEQ_SCAN)

    def index_scan(self, query: Query, table: str, index: Index) -> ScanNode:
        """An index scan of ``table`` via ``index``."""
        cost, covering, order = self._index_scan(query, table, index)
        access_path = (AccessPath.INDEX_ONLY_SCAN if covering
                       else AccessPath.INDEX_SCAN)
        return ScanNode(cost=cost, rows=self._profile(query, table).output_rows,
                        output_order=order, table=table, index=index,
                        access_path=access_path)

    def scan_cost(self, query: Query, table: str, index: Index | None
                  ) -> tuple[float, ColumnRef | None]:
        """``(cost, output order)`` of :meth:`scan`'s node, without the node."""
        if index is None:
            return self._heap_scan(table)
        cost, _, order = self._index_scan(query, table, index)
        return cost, order

    def scan(self, query: Query, table: str, index: Index | None) -> ScanNode:
        """Dispatch to :meth:`seq_scan` or :meth:`index_scan`."""
        if index is None:
            return self.seq_scan(query, table)
        return self.index_scan(query, table, index)

    def output_width(self, query: Query, table: str) -> float:
        """Width in bytes of the columns ``table`` contributes to the query."""
        return self._profile(query, table).output_width

    # ----------------------------------------------------------------- internals
    def _heap_scan(self, table: str) -> tuple[float, ColumnRef | None]:
        """``(cost, order)`` of a heap scan: the same for every query.  A heap
        scan delivers clustered-key order when the table has a primary key."""
        entry = self._heap_scans.get(table)
        if entry is None:
            table_def = self._schema.table(table)
            cost = self._cost_model.seq_scan_cost(table_def.page_count,
                                                  table_def.row_count)
            order = (column_ref(table, table_def.primary_key[0])
                     if table_def.primary_key else None)
            entry = self._heap_scans[table] = (cost, order)
        return entry

    def _index_scan(self, query: Query, table: str, index: Index
                    ) -> tuple[float, bool, ColumnRef]:
        """``(cost, covering, order)`` of a scan via ``index``: the one
        statement of an index scan's costing."""
        terms = self._index_terms.get(index)
        if terms is None:
            terms = self._index_terms[index] = self._terms(index)
        profile = self._profile(query, table)
        # Match the sargable predicates against the index key prefix.
        index_selectivity = 1.0
        for key_column in index.key_columns:
            matched = profile.sargable.get(key_column)
            if matched is None:
                break
            index_selectivity *= matched[0]
            if not matched[1]:
                # A range predicate consumes the rest of the key prefix: later
                # key columns can no longer narrow the scanned range.
                break
        covering = terms.stored.issuperset(profile.referenced)
        cost = self._cost_model.index_scan_cost(
            matched_rows=max(1.0, terms.table_rows * min(1.0, index_selectivity)),
            total_rows=terms.table_rows,
            leaf_pages=terms.leaf_pages,
            heap_pages=terms.heap_pages,
            covering=covering,
            correlation=terms.correlation,
            tree_height=terms.tree_height,
        )
        return cost, covering, terms.order

    def _terms(self, index: Index) -> _IndexTerms:
        """The query-independent terms of a scan via ``index``."""
        table_def = self._schema.table(index.table)
        entry_width = sum(table_def.column_width(c) for c in index.all_columns) + 12
        entries_per_page = max(2.0, table_def.page_size * 0.7 / entry_width)
        leading_stats = table_def.column_statistics(index.leading_column)
        return _IndexTerms(
            leaf_pages=max(1.0, table_def.row_count / entries_per_page),
            tree_height=self._cost_model.btree_height(table_def.row_count,
                                                      entries_per_page),
            correlation=1.0 if index.clustered else leading_stats.correlation,
            order=column_ref(index.table, index.leading_column),
            table_rows=table_def.row_count,
            heap_pages=table_def.page_count,
            stored=frozenset(index.all_columns))

    def _profile(self, query: Query, table: str) -> _TableProfile:
        """The profile of ``table`` in ``query``: cached under the query's
        name, trusted only for the very query object it was derived from — so
        equal-named objects used alternately evict each other (derived again,
        never wrong); the optimizer keeps one shell object per UPDATE."""
        entry = self._profiles.get(query.name)
        if entry is None or entry[0] is not query:
            entry = self._profiles[query.name] = (query, {})
        profile = entry[1].get(table)
        if profile is not None:
            return profile
        table_def = self._schema.table(table)
        sargable: dict[str, tuple[float, bool]] = {}
        for predicate in query.sargable_predicates_on(table):
            selectivity, only_equalities = sargable.get(
                predicate.column.column, (1.0, True))
            sargable[predicate.column.column] = (
                selectivity * self._selectivity.predicate_selectivity(predicate),
                only_equalities and predicate.operator in (
                    ComparisonOperator.EQ, ComparisonOperator.IN))
        referenced = tuple(
            column.column for column in query.referenced_columns_on(table))
        width = float(sum(table_def.column_width(c) for c in referenced)) + 8.0
        profile = entry[1][table] = _TableProfile(
            output_rows=self._selectivity.table_cardinality(query, table),
            sargable=sargable, referenced=referenced, output_width=width)
        return profile
