"""Access-path selection: costing heap scans and (hypothetical) index scans.

Everything an access path needs to know about the *query* — the rows that
survive the local predicates, how selective the sargable predicates on each
column are, which columns must be produced — is a property of the (query,
table) pair, not of the index.  It is profiled once per pair
(:class:`_TableProfile`); costing a candidate index is arithmetic on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.schema import Schema
from repro.catalog.table import Table
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
        # profiles (bounded like the owning optimizer's scan cache).
        self._profiles: dict[str, tuple[Query, dict[str, _TableProfile]]] = {}

    # -------------------------------------------------------------------- public
    def seq_scan(self, query: Query, table: str) -> ScanNode:
        """A heap scan of ``table`` with the query's local predicates applied."""
        table_def = self._schema.table(table)
        cost = self._cost_model.seq_scan_cost(table_def.page_count, table_def.row_count)
        order = self._heap_order(table_def)
        return ScanNode(cost=cost, rows=self._profile(query, table).output_rows,
                        output_order=order, table=table, index=None,
                        access_path=AccessPath.SEQ_SCAN)

    def index_scan(self, query: Query, table: str, index: Index) -> ScanNode:
        """An index scan of ``table`` via ``index``."""
        table_def = self._schema.table(table)
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
        covering = index.covers(profile.referenced)
        matched_rows = max(1.0, table_def.row_count * min(1.0, index_selectivity))

        entry_width = sum(table_def.column_width(c) for c in index.all_columns) + 12
        entries_per_page = max(2.0, table_def.page_size * 0.7 / entry_width)
        leaf_pages = max(1.0, table_def.row_count / entries_per_page)
        tree_height = self._cost_model.btree_height(table_def.row_count,
                                                    entries_per_page)
        leading_stats = table_def.column_statistics(index.leading_column)
        correlation = 1.0 if index.clustered else leading_stats.correlation

        cost = self._cost_model.index_scan_cost(
            matched_rows=matched_rows,
            total_rows=table_def.row_count,
            leaf_pages=leaf_pages,
            heap_pages=table_def.page_count,
            covering=covering,
            correlation=correlation,
            tree_height=tree_height,
        )
        access_path = (AccessPath.INDEX_ONLY_SCAN if covering
                       else AccessPath.INDEX_SCAN)
        order = column_ref(table, index.leading_column)
        return ScanNode(cost=cost, rows=profile.output_rows, output_order=order,
                        table=table, index=index, access_path=access_path)

    def scan(self, query: Query, table: str, index: Index | None) -> ScanNode:
        """Dispatch to :meth:`seq_scan` or :meth:`index_scan`."""
        if index is None:
            return self.seq_scan(query, table)
        return self.index_scan(query, table, index)

    def output_width(self, query: Query, table: str) -> float:
        """Width in bytes of the columns ``table`` contributes to the query."""
        return self._profile(query, table).output_width

    # ----------------------------------------------------------------- internals
    def _heap_order(self, table_def: Table) -> ColumnRef | None:
        """Heap scans deliver clustered-key order when the table has a primary key."""
        if table_def.primary_key:
            return column_ref(table_def.name, table_def.primary_key[0])
        return None

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
