"""The what-if optimizer facade.

:class:`WhatIfOptimizer` exposes the interfaces the rest of the system needs:

* ``optimize_atomic(q, A)`` — build the optimal plan for query ``q`` when each
  table is accessed through exactly the index named by the atomic
  configuration ``A`` (or a heap scan for ``I_0``).  Every call counts as one
  "what-if optimization", the unit the paper measures advisors by.
* ``optimize(q, X)`` / ``cost(q, X)`` — the classical what-if call for an
  arbitrary configuration: the minimum over (a bounded set of) atomic
  configurations drawn from ``X``.
* ``statement_cost(q, X)`` — full statement cost, adding index-maintenance
  terms and the base-update term for UPDATE statements (section 2).
* ``update_maintenance_cost(a, q)`` — the ``ucost(a, q)`` term.

All results are cached; the cache plus the call counter make it possible to
reproduce the paper's observation that INUM-based advisors need orders of
magnitude fewer optimizer calls than advisors that treat the optimizer as a
black box.
"""

from __future__ import annotations

import itertools
from typing import Iterable


from repro.catalog.schema import Schema
from repro.exceptions import OptimizerError
from repro.indexes.configuration import AtomicConfiguration, Configuration
from repro.indexes.index import Index
from repro.optimizer.access_paths import AccessPathSelector
from repro.optimizer.cost_model import CostModel
from repro.optimizer.join_enumeration import PlanBuilder
from repro.optimizer.plan import Plan, ScanNode
from repro.optimizer.selectivity import SelectivityEstimator
from repro.workload.query import Query, UpdateQuery



__all__ = ["WhatIfOptimizer"]

#: Per-table cap on the number of indexes considered when searching atomic
#: configurations for an arbitrary configuration, plus the threshold above
#: which the search switches from exhaustive enumeration to coordinate
#: descent.  These caps bound the cost of ground-truth what-if calls without
#: affecting the INUM/BIP code paths.
_MAX_INDEXES_PER_TABLE = 3
_EXHAUSTIVE_COMBINATION_LIMIT = 64
_COORDINATE_DESCENT_PASSES = 3


class WhatIfOptimizer:
    """A synthetic cost-based what-if optimizer over a statistics-only catalog."""

    def __init__(self, schema: Schema, cost_model: CostModel | None = None):
        self.schema = schema
        self.cost_model = cost_model or CostModel()
        self.selectivity = SelectivityEstimator(schema)
        self._access = AccessPathSelector(schema, self.cost_model, self.selectivity)
        self._builder = PlanBuilder(self.cost_model, self.selectivity)
        self._whatif_calls = 0
        self._plan_cache: dict[tuple, Plan] = {}
        self._scan_cache: dict[tuple, ScanNode] = {}
        self._ucost_cache: dict[tuple, float] = {}
        self._base_update_cache: dict[str, float] = {}
        self._shells: dict[str, tuple[UpdateQuery, Query]] = {}

    # --------------------------------------------------------------- components
    @property
    def access_selector(self) -> AccessPathSelector:
        """The access-path selector (shared with INUM's template builder)."""
        return self._access

    @property
    def plan_builder(self) -> PlanBuilder:
        """The join/aggregation plan builder (shared with INUM's template builder)."""
        return self._builder

    # ------------------------------------------------------------------ metrics
    @property
    def whatif_calls(self) -> int:
        """Number of distinct what-if optimizations performed so far."""
        return self._whatif_calls

    def reset_counters(self) -> None:
        self._whatif_calls = 0

    # ----------------------------------------------------------------- planning
    def optimize_atomic(self, query: Query, atomic: AtomicConfiguration) -> Plan:
        """Optimize ``query`` with the access methods fixed by ``atomic``."""
        shell = self._shell(query)
        key = self._atomic_key(shell, atomic)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        self._whatif_calls += 1
        scans: dict[str, ScanNode] = {}
        widths: dict[str, float] = {}
        for table in shell.tables:
            index = atomic.index_for(table)
            if index is not None and index.table != table:
                raise OptimizerError(
                    f"Atomic configuration assigns index on {index.table!r} "
                    f"to table {table!r}")
            scans[table] = self._scan(shell, table, index)
            widths[table] = self._access.output_width(shell, table)
        plan = self._builder.build(shell, scans, widths)
        self._plan_cache[key] = plan
        return plan

    def optimize(self, query: Query, configuration: Configuration | Iterable[Index]
                 ) -> Plan:
        """Optimize ``query`` given that the indexes in ``configuration`` exist.

        The per-table access-method choices are searched exhaustively when the
        cross product is small; larger configurations are searched with a few
        passes of coordinate descent (improve one table's choice at a time),
        which matches how real optimizers prune the join/access search space
        while keeping the number of planner invocations bounded.
        """
        shell = self._shell(query)
        if not isinstance(configuration, Configuration):
            configuration = Configuration(configuration)
        per_table = self._per_table_choices(shell, configuration)

        product_size = 1
        for choices in per_table.values():
            product_size *= len(choices)
        if product_size <= _EXHAUSTIVE_COMBINATION_LIMIT:
            best_plan: Plan | None = None
            for combination in itertools.product(*per_table.values()):
                atomic = AtomicConfiguration(
                    dict(zip(per_table.keys(), combination)))
                plan = self.optimize_atomic(shell, atomic)
                if best_plan is None or plan.total_cost < best_plan.total_cost:
                    best_plan = plan
            if best_plan is None:
                raise OptimizerError(f"Could not plan query {query.name!r}")
            return best_plan
        return self._coordinate_descent(shell, per_table)

    def _coordinate_descent(self, shell: Query,
                            per_table: dict[str, list[Index | None]]) -> Plan:
        """Iteratively improve one table's access method at a time."""
        assignment: dict[str, Index | None] = {}
        for table, choices in per_table.items():
            assignment[table] = min(
                choices, key=lambda index: self._scan(shell, table, index).cost)
        best_plan = self.optimize_atomic(shell, AtomicConfiguration(assignment))
        for _ in range(_COORDINATE_DESCENT_PASSES):
            improved = False
            for table, choices in per_table.items():
                for choice in choices:
                    if choice is assignment[table]:
                        continue
                    trial = dict(assignment)
                    trial[table] = choice
                    plan = self.optimize_atomic(shell, AtomicConfiguration(trial))
                    if plan.total_cost < best_plan.total_cost - 1e-9:
                        best_plan = plan
                        assignment = trial
                        improved = True
            if not improved:
                break
        return best_plan

    def cost(self, query: Query, configuration: Configuration | Iterable[Index]
             ) -> float:
        """``cost(q, X)`` of the paper for SELECT statements / query shells."""
        return self.optimize(query, configuration).total_cost

    def statement_cost(self, query: Query,
                       configuration: Configuration | Iterable[Index]) -> float:
        """Full statement cost including update-maintenance terms.

        For SELECT statements this equals :meth:`cost`.  For UPDATE statements
        it is ``cost(q_r, X) + sum_a ucost(a, q) + c_q`` over the affected
        indexes ``a`` in the configuration (section 2 of the paper).
        """
        if not isinstance(configuration, Configuration):
            configuration = Configuration(configuration)
        if isinstance(query, UpdateQuery):
            shell_cost = self.cost(query, configuration)
            maintenance = sum(
                self.update_maintenance_cost(index, query)
                for index in configuration.indexes_on(query.table))
            return shell_cost + maintenance + self.base_update_cost(query)
        return self.cost(query, configuration)

    # --------------------------------------------------------------- update cost
    def update_maintenance_cost(self, index: Index, update: UpdateQuery) -> float:
        """``ucost(a, q)``: cost of maintaining ``index`` for update ``update``.

        Only indexes on the updated table are affected; indexes that store
        none of the written columns need no maintenance for an UPDATE (no
        row movement is modelled).
        """
        if index.table != update.table:
            return 0.0
        key = (update.name, index)
        cached = self._ucost_cache.get(key)
        if cached is not None:
            return cached
        written = {column.column for column in update.set_columns}
        if not written & set(index.all_columns):
            cost = 0.0
        else:
            table = self.schema.table(update.table)
            updated_rows = self._updated_rows(update)
            entry_width = sum(table.column_width(c) for c in index.all_columns) + 12
            entries_per_page = max(2.0, table.page_size * 0.7 / entry_width)
            height = self.cost_model.btree_height(table.row_count, entries_per_page)
            cost = self.cost_model.index_maintenance_cost(updated_rows, height)
        self._ucost_cache[key] = cost
        return cost

    def base_update_cost(self, update: UpdateQuery) -> float:
        """The fixed ``c_q`` term: updating the base tuples themselves.

        Configuration-independent, so it is cached per statement — workload
        costing loops re-read it for every probed configuration.
        """
        cached = self._base_update_cache.get(update.name)
        if cached is not None:
            return cached
        table = self.schema.table(update.table)
        updated_rows = self._updated_rows(update)
        cost = self.cost_model.base_update_cost(updated_rows, table.page_count)
        self._base_update_cache[update.name] = cost
        return cost

    def _updated_rows(self, update: UpdateQuery) -> float:
        table = self.schema.table(update.table)
        if update.update_fraction is not None:
            return max(1.0, table.row_count * update.update_fraction)
        selectivity = self.selectivity.table_selectivity(update, update.table)
        return max(1.0, table.row_count * selectivity)

    # -------------------------------------------------------------------- scans
    def access_scan(self, query: Query, table: str, index: Index | None) -> ScanNode:
        """The costed leaf access of ``table`` via ``index`` (or a heap scan)."""
        shell = self._shell(query)
        return self._scan(shell, table, index)

    def _scan(self, query: Query, table: str, index: Index | None) -> ScanNode:
        key = (query.name, table, None if index is None else index)
        cached = self._scan_cache.get(key)
        if cached is not None:
            return cached
        scan = self._access.scan(query, table, index)
        self._scan_cache[key] = scan
        return scan

    # ----------------------------------------------------------------- internals
    def _shell(self, query: Query) -> Query:
        """``query`` itself, or the one shell object kept per UPDATE object (the
        selector and the plan builder trust their per-query state by identity)."""
        if not isinstance(query, UpdateQuery):
            return query
        entry = self._shells.get(query.name)
        if entry is None or entry[0] is not query:
            entry = self._shells[query.name] = (query, query.query_shell())
        return entry[1]

    @staticmethod
    def _atomic_key(query: Query, atomic: AtomicConfiguration) -> tuple:
        assignment = tuple(
            (table, atomic.index_for(table)) for table in query.tables)
        return (query.name, assignment)

    def _per_table_choices(self, query: Query, configuration: Configuration
                           ) -> dict[str, list[Index | None]]:
        """Per-table access-method choices: the heap scan plus the most
        promising relevant indexes of the configuration (ranked by their
        standalone access cost, capped at ``_MAX_INDEXES_PER_TABLE``)."""
        per_table: dict[str, list[Index | None]] = {}
        for table in query.tables:
            referenced = {c.column for c in query.referenced_columns_on(table)}
            relevant = [index for index in configuration.indexes_on(table)
                        if index.leading_column in referenced
                        or index.covers(referenced)]
            ranked = sorted(relevant,
                            key=lambda index: self._scan(query, table, index).cost)
            choices: list[Index | None] = [None]
            choices.extend(ranked[:_MAX_INDEXES_PER_TABLE])
            per_table[table] = choices
        return per_table
