"""The INUM cache: template-plan construction and fast configuration costing."""

from __future__ import annotations

import itertools
import math
import threading
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.catalog.schema import Schema
from repro.exceptions import OptimizerError
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.gamma_matrix import QueryGammaMatrix
from repro.inum.template_plan import TemplatePlan
from repro.inum.workload_tensor import WorkloadGammaTensor
from repro.obs.metrics import active_registry
from repro.obs.profile import InstrumentedLock
from repro.optimizer.join_enumeration import SubPlanTable
from repro.optimizer.plan import ScanNode
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.predicates import ColumnRef
from repro.workload.query import Query, UpdateQuery
from repro.workload.workload import WORKLOAD_LRU_LIMIT, Workload

__all__ = ["InumCache", "DEFAULT_MAX_ORDERS_PER_TABLE",
           "DEFAULT_MAX_TEMPLATES_PER_QUERY", "update_statement_cost"]

#: Constructor defaults, shared with code that rebuilds caches in worker
#: processes so both sides always enumerate the same templates.
DEFAULT_MAX_ORDERS_PER_TABLE = 2
DEFAULT_MAX_TEMPLATES_PER_QUERY = 64


def update_statement_cost(shell_cost, maintenance, base_cost):
    """An UPDATE's full cost, ``(shell + maintenance) + base`` — the one
    order every costing path adds it in (floats or arrays alike), so the
    batched and incremental costs stay bit-identical to
    :meth:`InumCache.statement_cost`."""
    return shell_cost + maintenance + base_cost


def _cache_event(cache: str, event: str, count: int = 1) -> None:
    """Record hits/misses of a cache into the active metrics registry."""
    active_registry().counter(
        "repro_cache_events_total",
        "Hits and misses of the tuning-stack caches",
        ("cache", "event")).inc(count, cache=cache, event=event)


class InumCache:
    """Per-query template-plan cache implementing fast what-if optimization.

    The cache is built once per query with a small number of optimizer
    invocations — one per enumerated combination of interesting orders, the
    combinations of one shell sharing their sub-plans — and
    afterwards answers ``cost(q, X)`` for arbitrary configurations without
    touching the optimizer, by minimising ``beta_qk + sum_i gamma_qkia`` over
    the templates ``k`` and the per-slot access-method choices.  The costs
    live in one dense :class:`QueryGammaMatrix` per query (stacked per
    workload into a :class:`WorkloadGammaTensor`), so every costing call is
    a handful of array reductions.

    Args:
        optimizer: The underlying what-if optimizer (used only at build time
            and for update-maintenance costs).
        max_orders_per_table: Cap on interesting orders considered per slot.
        max_templates_per_query: Cap on the number of template plans kept per
            query.  When the full cross product of interesting orders exceeds
            the cap, a representative subset is enumerated instead (the
            all-unordered template, all single-order templates and the
            all-ordered template).
        build_processes: Process count for sharded gamma-matrix construction.
            Template enumeration and column costing are GIL-bound Python, so
            with ``build_processes > 1`` pending matrices are built in worker
            processes (``repro.scale.executor``) and adopted back into this
            cache in workload order.  ``None`` / ``1`` builds serially
            in-process.
    """

    def __init__(self, optimizer: WhatIfOptimizer,
                 max_orders_per_table: int = DEFAULT_MAX_ORDERS_PER_TABLE,
                 max_templates_per_query: int = DEFAULT_MAX_TEMPLATES_PER_QUERY,
                 build_processes: int | None = None):
        if max_orders_per_table < 0:
            raise ValueError("max_orders_per_table must be non-negative")
        if max_templates_per_query < 1:
            raise ValueError("max_templates_per_query must be at least 1")
        if build_processes is not None and build_processes < 1:
            raise ValueError("build_processes must be at least 1")
        self._optimizer = optimizer
        self._schema: Schema = optimizer.schema
        self._max_orders = max_orders_per_table
        self._max_templates = max_templates_per_query
        self._build_processes = build_processes
        self._templates: dict[str, tuple[TemplatePlan, ...]] = {}
        self._queries: dict[str, Query] = {}
        self._matrices: dict[str, QueryGammaMatrix] = {}
        # Workload tensors keyed by workload object identity; the stored
        # workload reference keeps the id alive, so it cannot be reused.
        self._tensors: dict[int, tuple[Workload, WorkloadGammaTensor]] = {}
        # ``workload_memo`` entries, ``(tag, value)`` under the same key as
        # the tensor they sit beside; evicted with it.
        self._memos: dict[int, tuple[Hashable, Any]] = {}
        # Flat per-update ``index -> ucost`` maps (``maintenance_cost``): a
        # maintenance term is a plain dict get instead of the optimizer's
        # per-call key building.
        self._ucost_maps: dict[str, dict[Index, float]] = {}
        self._build_calls = 0
        # Instrumented: contended build-counter updates surface in
        # repro_lock_wait_seconds{lock}.
        self._metrics_lock = InstrumentedLock("inum_metrics",
                                              lock=threading.Lock())

    # ------------------------------------------------------------------ metrics
    @property
    def template_build_calls(self) -> int:
        """Number of optimizer invocations spent building template plans."""
        return self._build_calls

    @property
    def schema(self) -> Schema:
        """The catalog this cache costs queries against."""
        return self._schema

    @property
    def optimizer(self) -> WhatIfOptimizer:
        """The shared what-if optimizer (used at build time)."""
        return self._optimizer

    @property
    def enumeration_caps(self) -> tuple[int, int]:
        """``(max_orders_per_table, max_templates_per_query)`` — the knobs a
        worker process must copy to reproduce this cache's templates."""
        return self._max_orders, self._max_templates

    @property
    def cached_query_count(self) -> int:
        return len(self._templates)

    def total_template_count(self) -> int:
        return sum(len(templates) for templates in self._templates.values())

    # ----------------------------------------------------------------- building
    # reprolint: requires-lock (see build: callers serialize)
    def build_workload(self, workload: Workload,
                       build_processes: int | None = None) -> None:
        """Pre-process every statement of a workload (in parallel when asked)."""
        self._build_statements(workload, (), build_processes)

    # reprolint: requires-lock (the cache does not serialize itself; owners
    # hold SchemaContext.lock, worker processes use a process-local cache)
    def build(self, query: Query) -> tuple[TemplatePlan, ...]:
        """Build (or return cached) ``TPlans(q)`` for a statement."""
        shell = self._shell(query)
        cached = self._templates.get(shell.name)
        if cached is not None:
            _cache_event("template", "hit")
            return cached
        _cache_event("template", "miss")
        templates = self._enumerate_templates(shell)
        self._templates[shell.name] = templates
        self._queries[shell.name] = shell
        return templates

    def templates(self, query: Query) -> tuple[TemplatePlan, ...]:
        """``TPlans(q)``, building them on first use."""
        return self.build(query)

    # reprolint: requires-lock (see build: callers serialize)
    def gamma_matrix(self, query: Query) -> QueryGammaMatrix:
        """The dense gamma matrix of a statement, building it on first use."""
        shell = self._shell(query)
        matrix = self._matrices.get(shell.name)
        if matrix is None:
            templates = self.build(shell)
            matrix = QueryGammaMatrix(self._queries[shell.name], templates,
                                      self._optimizer)
            self._matrices[shell.name] = matrix
        return matrix

    # reprolint: requires-lock (see build: callers serialize)
    def prepare(self, workload: Workload,
                candidates: Iterable[Index] = (),
                build_processes: int | None = None) -> None:
        """Pre-process a workload and register candidate columns up front.

        After this, ``cost`` / ``workload_cost`` / BIP coefficient assembly
        for the given candidate universe run entirely on precomputed arrays
        without touching the optimizer.  Gamma matrices are built serially,
        or in ``build_processes`` worker processes for GIL-free sharded builds.

        ``prepare`` is idempotent and incremental: calling it again with an
        enlarged candidate set extends the existing matrices and the workload
        tensor with the new columns only — templates are never re-enumerated
        and nothing is rebuilt from scratch.  When the workload's cached
        tensor already has every candidate, it returns at once: the event
        counts are those of the full pass (every shell a template hit, one
        tensor hit), without its per-statement column scans.
        """
        indexes = tuple(candidates)
        entry = self._tensors.get(id(workload))
        if entry is not None and entry[0] is workload \
                and entry[1].has_columns(indexes):
            _cache_event("template", "hit", entry[1].shell_count)
            self.workload_tensor(workload)
            return
        self._build_statements(workload, indexes, build_processes)
        self.workload_tensor(workload).ensure_columns(indexes)

    def _build_statements(self, workload: Workload, indexes: tuple[Index, ...],
                          build_processes: int | None = None) -> None:
        """Build templates/matrices for a workload, once per distinct shell,
        in workload order."""
        shells = self._distinct_shells(workload)
        # Counted once per pass rather than once per shell.
        known = sum(shell.name in self._templates for shell in shells)
        if known:
            _cache_event("template", "hit", known)
        if len(shells) > known:
            _cache_event("template", "miss", len(shells) - known)
        # Process-sharded builds (the GIL-free path): pending shells are built
        # in worker processes and adopted back in workload order, after which
        # the serial pass below only performs idempotent column scans.
        processes = (build_processes if build_processes is not None
                     else self._build_processes)
        if processes is not None and processes > 1:
            from repro.scale.executor import build_matrices_in_processes

            build_matrices_in_processes(self, shells, indexes,
                                        workers=processes)
        for shell in shells:
            _, templates, matrix = self._build_one(shell, indexes)
            self._templates[shell.name] = templates
            self._queries[shell.name] = shell
            self._matrices[shell.name] = matrix

    def _distinct_shells(self, workload: Workload) -> list[Query]:
        """The workload's query shells, one per name, in workload order."""
        shells: dict[str, Query] = {}
        for statement in workload:
            shell = self._shell(statement.query)
            shells.setdefault(shell.name, shell)
        return list(shells.values())

    def pending_shells(self, queries: Iterable[Query]) -> tuple[Query, ...]:
        """The shells whose templates/matrix this cache has not built yet.

        The single definition of "needs building" — the process executor in
        ``repro.scale`` uses it to decide what to dispatch, and the shard
        executor to decide which worker-built entries are worth shipping
        back.  UPDATE statements are judged by their query shell.
        """
        return tuple(
            shell for shell in map(self._shell, queries)
            if shell.name not in self._templates
            or shell.name not in self._matrices)

    def build_entry(self, shell: Query, indexes: tuple[Index, ...] = ()
                    ) -> tuple[Query, tuple[TemplatePlan, ...],
                               QueryGammaMatrix]:
        """Build one shell's templates/matrix *without* committing them.

        Worker processes call this to compute entries that the originating
        cache later installs via :meth:`adopt_built`.
        """
        return self._build_one(shell, tuple(indexes))

    def _build_one(self, shell: Query, indexes: tuple[Index, ...]
                   ) -> tuple[Query, tuple[TemplatePlan, ...],
                              QueryGammaMatrix]:
        """Build (or extend) one shell's templates and gamma matrix."""
        templates = self._templates.get(shell.name)
        if templates is None:
            templates = self._enumerate_templates(shell)
        matrix = self._matrices.get(shell.name)
        if matrix is None:
            matrix = QueryGammaMatrix(shell, templates, self._optimizer)
        if indexes:
            matrix.ensure_columns(indexes)
        return shell, templates, matrix

    # reprolint: requires-lock (see build: callers serialize)
    def adopt_built(self, entries: Iterable[tuple[Query, tuple[TemplatePlan, ...],
                                                  QueryGammaMatrix]],
                    build_calls: int = 0) -> None:
        """Install externally built templates/matrices (process-sharded builds).

        Entries for shells this cache already knows are ignored (the local
        build wins); adopted matrices are rebound to this cache's optimizer.
        ``build_calls`` adds the worker-side template-build count to the
        :attr:`template_build_calls` metric so optimizer-call accounting stays
        comparable across build modes.
        """
        for shell, templates, matrix in entries:
            if shell.name not in self._templates:
                self._templates[shell.name] = templates
                self._queries[shell.name] = shell
            if shell.name not in self._matrices:
                matrix.rebind_optimizer(self._optimizer)
                self._matrices[shell.name] = matrix
        if build_calls:
            with self._metrics_lock:
                self._build_calls += build_calls

    def export_built(self, workload: Workload
                     ) -> tuple[tuple[Query, tuple[TemplatePlan, ...],
                                      QueryGammaMatrix], ...]:
        """The built entries of a workload's shells, in workload order.

        The reader paired with :meth:`adopt_built`: a worker process that
        solved on its own cache returns these so the originating cache never
        enumerates the same templates again.  Shells not built yet are
        skipped.
        """
        return tuple(
            (self._queries[shell.name], self._templates[shell.name],
             self._matrices[shell.name])
            for shell in self._distinct_shells(workload)
            if shell.name in self._matrices)

    # reprolint: requires-lock (see build: callers serialize)
    def workload_tensor(self, workload: Workload) -> WorkloadGammaTensor:
        """The stacked gamma tensor of a workload, building it on first use.

        Tensors are cached per workload object; candidate columns registered
        later (by ``prepare``, BIP assembly or costing itself) extend the
        cached tensor in place rather than rebuilding it.
        """
        key = id(workload)
        entry = self._tensors.get(key)
        if entry is not None and entry[0] is workload:
            # Promote on hit (the eviction below pops the least recent).
            self._tensors[key] = self._tensors.pop(key)
            _cache_event("tensor", "hit")
            return entry[1]
        _cache_event("tensor", "miss")
        self._build_statements(workload, ())
        entries = []
        for statement in workload:
            shell = self._shell(statement.query)
            entries.append((self._queries[shell.name],
                            self._matrices[shell.name]))
        tensor = WorkloadGammaTensor(entries)
        if len(self._tensors) >= WORKLOAD_LRU_LIMIT:
            evicted = next(iter(self._tensors))
            del self._tensors[evicted]
            self._memos.pop(evicted, None)
        self._tensors[id(workload)] = (workload, tensor)
        return tensor

    # reprolint: requires-lock (see build: callers serialize)
    def workload_memo(self, workload: Workload, tag: Hashable,
                      build: Callable[[], Any]) -> tuple[Any, bool]:
        """One caller-built value per cached workload tensor — the CoPhy
        advisor keeps its BIP here, so hits and misses are counted as
        ``repro_cache_events_total{cache="bip"}``.

        The value is kept beside ``workload``'s tensor and evicted with it;
        the cache never looks inside.  A call with a ``tag`` equal to the
        stored one returns the stored value; any other call runs ``build()``
        and, when ``workload`` has a cached tensor, keeps the result in place
        of the previous one.  Returns ``(value, hit)``.
        """
        key = id(workload)
        entry = self._memos.get(key)
        if entry is not None and entry[0] == tag:
            _cache_event("bip", "hit")
            return entry[1], True
        _cache_event("bip", "miss")
        value = build()
        if key in self._tensors:
            self._memos[key] = (tag, value)
        return value, False

    # ------------------------------------------------------------------ costing
    def access_cost(self, query: Query, table: str, index: Index | None) -> float:
        """The order-independent access cost of ``table`` via ``index`` (``gamma``)."""
        shell = self._shell(query)
        return self._optimizer.access_scan(shell, table, index).cost

    def cost(self, query: Query, configuration: Configuration | Iterable[Index]
             ) -> float:
        """INUM-approximated ``cost(q, X)`` for a SELECT statement / query shell."""
        shell = self._shell(query)
        if not isinstance(configuration, Configuration):
            configuration = Configuration(configuration)
        best = self.gamma_matrix(shell).cost(configuration)
        if math.isinf(best):
            raise OptimizerError(
                f"INUM produced no feasible template for query {shell.name!r}")
        return best

    def statement_cost(self, query: Query,
                       configuration: Configuration | Iterable[Index]) -> float:
        """Full statement cost (adds update-maintenance terms for UPDATEs)."""
        if not isinstance(configuration, Configuration):
            configuration = Configuration(configuration)
        if isinstance(query, UpdateQuery):
            shell_cost = self.cost(query.query_shell(), configuration)
            maintenance = sum(
                self._optimizer.update_maintenance_cost(index, query)
                for index in configuration.indexes_on(query.table))
            return update_statement_cost(
                shell_cost, maintenance,
                self._optimizer.base_update_cost(query))
        return self.cost(query, configuration)

    def workload_cost(self, workload: Workload,
                      configuration: Configuration | Iterable[Index]) -> float:
        """Weighted INUM cost of a whole workload under a configuration.

        Answered from the workload tensor — one stacked reduction (memoized
        per configuration) instead of a Python loop over per-query costings —
        and bit-identical to the per-statement sum.
        """
        if not isinstance(configuration, Configuration):
            configuration = Configuration(configuration)
        costs = self._tensor_statement_costs(workload, configuration)
        total = 0.0
        for statement, cost in zip(workload, costs):
            total += statement.weight * cost
        return total

    def statement_costs(self, workload: Workload,
                        configuration: Configuration | Iterable[Index]
                        ) -> np.ndarray:
        """Unweighted full statement costs, in workload order (batched).

        One tensor reduction answers every SELECT shell; update-maintenance
        terms are added per statement exactly as :meth:`statement_cost` adds
        them, so ``statement_costs(w, X)[i] == statement_cost(w[i], X)``
        bit for bit.
        """
        if not isinstance(configuration, Configuration):
            configuration = Configuration(configuration)
        return np.array(self._tensor_statement_costs(workload, configuration),
                        dtype=np.float64)

    def _tensor_statement_costs(self, workload: Workload,
                                configuration: Configuration) -> list[float]:
        """Full per-statement costs from one (memoized) tensor reduction."""
        tensor = self.workload_tensor(workload)
        shell_costs = tensor.shell_costs(configuration)
        if np.isinf(shell_costs).any():
            position = int(np.isinf(shell_costs).argmax())
            shell = self._shell(workload.statements[position].query)
            raise OptimizerError(
                f"INUM produced no feasible template for query {shell.name!r}")
        costs = shell_costs.tolist()
        for position, statement in enumerate(workload):
            query = statement.query
            if isinstance(query, UpdateQuery):
                costs[position] = update_statement_cost(
                    costs[position], self._maintenance(query, configuration),
                    self._optimizer.base_update_cost(query))
        return costs

    def _maintenance(self, update: UpdateQuery,
                     configuration: Configuration) -> float:
        """``sum_a ucost(a, q)`` over the configuration's indexes on the table.

        Accumulated in ``indexes_on`` order (like :meth:`statement_cost`), so
        the batched path stays bit-identical to the per-statement one.
        """
        total = 0.0
        for index in configuration.indexes_on(update.table):
            total += self.maintenance_cost(update, index)
        return total

    def maintenance_cost(self, update: UpdateQuery, index: Index) -> float:
        """``ucost(index, update)``, read through the flat per-update map."""
        ucosts = self._ucost_maps.setdefault(update.name, {})
        cost = ucosts.get(index)
        if cost is None:
            cost = self._optimizer.update_maintenance_cost(index, update)
            ucosts[index] = cost
        return cost

    # ---------------------------------------------------------------- internals
    @staticmethod
    def _shell(query: Query) -> Query:
        if isinstance(query, UpdateQuery):
            return query.query_shell()
        return query

    def _interesting_orders(self, query: Query, table: str) -> tuple[ColumnRef, ...]:
        table_def = self._schema.table(table)
        orders = [column for column in query.interesting_order_columns(table)
                  if table_def.has_column(column.column)]
        return tuple(orders[:self._max_orders])

    def _enumerate_templates(self, query: Query) -> tuple[TemplatePlan, ...]:
        """One template per interesting-order combination of a shell.

        Every order spec is one plan requested from the optimizer (and counts
        as one in :attr:`template_build_calls`), but the shell is profiled
        once — heap scan and width per table, one synthetic leaf per (table,
        order) — and the specs share one :class:`SubPlanTable`.
        """
        selector = self._optimizer.access_selector
        widths: dict[str, float] = {}
        leaves: dict[str, dict[ColumnRef | None, ScanNode]] = {}
        for table in query.tables:
            base = self._optimizer.access_scan(query, table, None)
            widths[table] = selector.output_width(query, table)
            leaves[table] = {
                order: ScanNode(cost=base.cost, rows=base.rows,
                                output_order=order, table=table, index=None,
                                access_path=base.access_path)
                for order in (None, *self._interesting_orders(query, table))}

        specs = self._order_specs(query.tables,
                                  {table: tuple(leaves[table]) for table in leaves})
        with self._metrics_lock:
            self._build_calls += len(specs)
        build = self._optimizer.plan_builder.build
        shared = SubPlanTable()
        templates: list[TemplatePlan] = []
        seen_signatures: set[tuple] = set()
        for spec in specs:
            plan = build(query,
                         {table: leaves[table][order] for table, order in spec.items()},
                         widths, shared)
            template = TemplatePlan(query_name=query.name, order_requirements=spec,
                                    internal_cost=plan.internal_cost,
                                    representative_plan=plan)
            signature = template.signature()
            if signature not in seen_signatures:
                seen_signatures.add(signature)
                templates.append(template)
        return tuple(self._prune_dominated(templates))

    @staticmethod
    def _prune_dominated(templates: list[TemplatePlan]) -> list[TemplatePlan]:
        """Drop templates dominated by a cheaper, less-demanding template.

        Template ``A`` dominates ``B`` when ``A`` costs no more internally and
        every slot of ``A`` accepts at least the access methods ``B`` accepts
        (``A``'s requirement is either none or identical).  Dominated
        templates can never win the minimisation, so removing them keeps the
        BIP compact without changing any cost.
        """
        kept: list[TemplatePlan] = []
        for candidate in templates:
            dominated = False
            for other in templates:
                if other is candidate:
                    continue
                if other.internal_cost > candidate.internal_cost + 1e-9:
                    continue
                weaker = all(
                    other.required_order(table) is None
                    or other.required_order(table) == candidate.required_order(table)
                    for table in candidate.tables)
                if weaker and (other.internal_cost < candidate.internal_cost - 1e-9
                               or other.signature() != candidate.signature()):
                    dominated = True
                    break
            if not dominated:
                kept.append(candidate)
        return kept or templates

    def _order_specs(self, tables: Sequence[str],
                     per_table_orders: Mapping[str, Sequence[ColumnRef | None]]
                     ) -> list[dict[str, ColumnRef | None]]:
        """Enumerate interesting-order combinations, bounded by the template cap."""
        option_lists = [per_table_orders[table] for table in tables]
        product_size = 1
        for options in option_lists:
            product_size *= len(options)
        specs: list[dict[str, ColumnRef | None]] = []
        if product_size <= self._max_templates:
            for combination in itertools.product(*option_lists):
                specs.append(dict(zip(tables, combination)))
            return specs
        # Representative subset: no orders, one order at a time, all first orders.
        base: dict[str, ColumnRef | None] = {table: None for table in tables}
        specs.append(dict(base))
        for table in tables:
            for order in per_table_orders[table]:
                if order is None:
                    continue
                spec = dict(base)
                spec[table] = order
                specs.append(spec)
                if len(specs) >= self._max_templates - 1:
                    break
            if len(specs) >= self._max_templates - 1:
                break
        all_first = {
            table: next((o for o in per_table_orders[table] if o is not None), None)
            for table in tables}
        specs.append(all_first)
        return specs
