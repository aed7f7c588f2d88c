"""``Tuner.tune(request) -> TuningResult`` — the single tuning entry point.

The Tuner owns one :class:`SchemaContext` per ``(schema, CostingSpec)``: a
shared what-if optimizer, a shared :class:`InumCache` (templates, gamma
matrices, workload tensors) and an LRU of canonical workload objects.  Every
request against the same schema reuses that state — candidate registration
rides on ``InumCache.prepare``'s idempotent/incremental columns, so a second
request with an enlarged candidate set appends columns instead of rebuilding
anything, and equal workloads resolve to one canonical object so the
id-keyed tensor cache keeps hitting.

The Tuner itself is single-threaded; :class:`repro.api.service.TuningService`
adds per-context locking and a thread pool on top for concurrent serving.
"""

from __future__ import annotations

import cProfile
import contextlib
import hashlib
import logging
import threading
import time
from collections import OrderedDict
from typing import Any, Mapping

from repro.advisors.base import Advisor, Recommendation
from repro.api.registry import canonical_name, make_advisor
from repro.api.result import StatementCost, TuningResult
from repro.api.specs import CostingSpec, TuningRequest
from repro.catalog.schema import Schema
from repro.exceptions import WorkloadError
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.inum.cache import InumCache
from repro.obs.log import log_event
from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    declare_standard_metrics,
    use_registry,
)
from repro.obs.profile import (
    InstrumentedLock,
    ProfileSampler,
    drain_pending_waits,
    ensure_memory_tracking,
)
from repro.obs.store import TraceStore
from repro.obs.trace import Tracer, activate, span, stage
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.query import UpdateQuery
from repro.workload.workload import (
    WORKLOAD_LRU_LIMIT,
    Workload,
    WorkloadStatement,
)

__all__ = ["SchemaContext", "Tuner"]


def _structure(query) -> tuple:
    """The exact structural identity of one statement.

    The scale-out structural signature (tables, joins, predicate
    columns/operators/selectivity hints, grouping/ordering/aggregation/
    projection shape, update targets) plus the predicate *constants*, which
    the signature deliberately buckets — two statements with equal
    structures are costed identically by the optimizer.
    """
    from repro.scale.compress import structural_statement_key

    shell = query.query_shell() if isinstance(query, UpdateQuery) else query
    constants = tuple(sorted(
        (p.column.table, p.column.column, p.operator.name, repr(p.value))
        for p in shell.predicates))
    return (query.kind.value, structural_statement_key(query), constants)


def _sha256(value: tuple) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def statement_digest(query) -> str:
    """The SHA-256 of a statement's exact structural identity.

    Kept as a digest rather than the nested tuple it hashes: a schema
    context holds one per statement name for its whole life, and a string
    is one object the collector never tracks.
    """
    return _sha256(_structure(query))


def admission_names(query) -> tuple[str, ...]:
    """The statement names one query occupies in the shared INUM cache.

    Updates occupy two: their own name and their query shell's (the shell is
    what INUM enumerates templates for).
    """
    shell = query.query_shell() if isinstance(query, UpdateQuery) else query
    return tuple(dict.fromkeys((query.name, shell.name)))


def workload_fingerprint(workload: Workload) -> str:
    """A digest identifying "the same workload arriving again".

    The SHA-256 of the workload's name and, per statement, its name, weight
    *and* exact structure.  Two workloads with equal fingerprints contain
    statements the optimizer costs identically, so substituting one for the
    other cannot change any recommendation — default statement names from
    ``parse_workload`` (``stmt1``, ``stmt2``, …) never alias structurally
    different workloads onto each other.
    """
    return _sha256((workload.name,
                    tuple((statement.query.name, statement.weight,
                           _structure(statement.query))
                          for statement in workload)))


class SchemaContext:
    """Shared per-(schema, costing) state behind the unified API."""

    def __init__(self, schema: Schema, costing: CostingSpec):
        self.schema = schema
        self.costing = costing
        self.optimizer = WhatIfOptimizer(schema)
        self.inum = InumCache(
            self.optimizer,
            max_orders_per_table=costing.max_orders_per_table,
            max_templates_per_query=costing.max_templates_per_query,
            build_processes=costing.build_processes,
        )
        self.candidate_generator = CandidateGenerator(schema)
        #: Serializes cache-mutating pipelines; taken by the TuningService
        #: around every tune/session call on this context.  Instrumented:
        #: every acquisition records its wait into
        #: ``repro_lock_wait_seconds{lock="schema_context"}``.
        self.lock = InstrumentedLock("schema_context")
        self._workloads: OrderedDict[str, Workload] = OrderedDict()
        #: ``id(canonical workload) -> fingerprint`` for the objects in
        #: ``_workloads``, so a request that carries a canonical object skips
        #: the SHA-256.
        self._keys: dict[int, str] = {}
        #: Structural digest per statement name ever admitted: the shared
        #: ``InumCache`` keys templates/matrices by statement name, so one
        #: name must mean one statement shape for the context's lifetime.
        self._statement_digests: dict[str, str] = {}

    # Lock-free counter snapshots: ``len()`` is atomic under the GIL, and a
    # stats poll must never block behind a context whose lock is held for
    # the duration of a long solve.
    @property
    def canonical_workload_count(self) -> int:
        return len(self._workloads)

    @property
    def statement_name_count(self) -> int:
        return len(self._statement_digests)

    def canonical_workload(self, workload: Workload) -> Workload:
        """The first-seen workload object equal to ``workload`` (LRU-kept).

        ``InumCache`` keys workload tensors by object identity; routing equal
        requests through one canonical object turns repeated service traffic
        into tensor cache hits instead of rebuilds.

        Raises:
            WorkloadError: When a statement reuses a name this context has
                already cached for a *structurally different* statement —
                serving it against the name-keyed shared cache would mix two
                statements' templates (wrong costs, or a shape crash deep in
                the tensor), so the collision is rejected loudly at admission.
        """
        events = active_registry().counter(
            "repro_cache_events_total",
            "Hits and misses of the tuning-stack caches", ("cache", "event"))
        key = self._fingerprint(workload)
        with self.lock:
            known = self._workloads.get(key)
            if known is not None:
                self._workloads.move_to_end(key)
                events.inc(cache="canonical_workload", event="hit")
                return known
            events.inc(cache="canonical_workload", event="miss")
            self._admit(workload)
            if len(self._workloads) >= WORKLOAD_LRU_LIMIT:
                _, evicted = self._workloads.popitem(last=False)
                self._keys.pop(id(evicted), None)
            self._workloads[key] = workload
            self._keys[id(workload)] = key
            return workload

    def _fingerprint(self, workload: Workload) -> str:
        """``workload_fingerprint(workload)``, looked up by identity when
        ``workload`` is a canonical object: ``Workload`` holds an immutable
        tuple, and the id is only trusted while the object is kept."""
        key = self._keys.get(id(workload))
        if key is not None and self._workloads.get(key) is workload:
            return key
        return workload_fingerprint(workload)

    def _collisions(self, workload: Workload
                    ) -> tuple[dict[str, str], set[str]]:
        """Probe every statement name against the context's digest registry.

        Returns the registrations the workload would add, plus the set of
        names that already denote a *structurally different* statement (in
        this context, or earlier in the same workload).  Pure — nothing is
        committed.
        """
        admitted: dict[str, str] = {}
        conflicts: set[str] = set()
        for statement in workload:
            query = statement.query
            digest = statement_digest(query)
            for name in admission_names(query):
                known = self._statement_digests.get(name, admitted.get(name))
                if known is None:
                    admitted[name] = digest
                elif known != digest:
                    conflicts.add(name)
        return admitted, conflicts

    def _admit(self, workload: Workload) -> None:
        """Check every statement name against the context's digest registry.

        Validate-then-commit: a rejected workload must leave no trace — a
        partial registration would spuriously reject later workloads with
        names that never reached the shared cache.
        """
        admitted, conflicts = self._collisions(workload)
        if conflicts:
            name = sorted(conflicts)[0]
            raise WorkloadError(
                f"Statement name {name!r} already denotes a "
                f"structurally different statement in this schema "
                f"context (the shared INUM cache keys templates by "
                f"name). Give statements unique names, or tune the "
                f"conflicting workload through its own Tuner or a "
                f"distinct CostingSpec.")
        self._statement_digests.update(admitted)

    def namespaced_workload(self, workload: Workload
                            ) -> tuple[Workload, dict[str, str]]:
        """A collision-free clone of ``workload`` for this context.

        Statements whose names already denote a structurally different
        statement are cloned under a request-qualified name
        (``<name>@<digest8>``, where ``digest8`` is content-addressed from
        the workload's structural fingerprint), so arbitrary client traffic
        can share one schema context instead of being rejected at admission.
        Content-addressing makes the rename deterministic: the same workload
        payload always maps to the same qualified names, regardless of how
        concurrent requests interleave, so repeats keep hitting the canonical
        workload LRU and the tensor cache.

        Returns the workload plus the ``old name -> new name`` rename map
        (``workload`` itself and an empty map when nothing collides), so the
        caller can rewrite anything else in the request that references
        statements by name.  Collisions *within* one workload (two
        same-named, structurally different statements in a single request)
        cannot be namespaced apart — both sides would receive the same
        qualifier — and still fail admission loudly.
        """
        with self.lock:
            key = self._fingerprint(workload)
            if key in self._workloads:
                return workload, {}  # already admitted verbatim
            _, conflicts = self._collisions(workload)
        if not conflicts:
            return workload, {}
        suffix = key[:8]
        statements = []
        renames: dict[str, str] = {}
        for statement in workload:
            query = statement.query
            if conflicts.intersection(admission_names(query)):
                renames[query.name] = f"{query.name}@{suffix}"
                query = query.with_name(renames[query.name])
            statements.append(WorkloadStatement(query, statement.weight))
        return Workload(statements, name=workload.name), renames


class Tuner:
    """The declarative tuning facade: resolve, wire, run, normalise.

    Args:
        max_contexts: Optional LRU cap on live :class:`SchemaContext`s.  A
            long-lived server decodes client schemas into fresh objects, so
            without a cap the per-schema caches (templates, gamma matrices,
            tensors) grow for the process lifetime; exceeding the cap evicts
            the least-recently-used context wholesale.  A request already
            holding an evicted context finishes safely on its own reference —
            eviction only means the *next* request for that schema starts
            cold.
        context_ttl_s: Optional idle TTL in seconds; contexts unused for
            longer are reaped on the next ``context_for`` call.
        fault_plan: Explicit fault-injection plan
            (:class:`~repro.reliability.faults.FaultPlan`) consulted by the
            pipeline's ``solver`` fault site; ``None`` defers to the
            process-wide armed plan / ``REPRO_FAULT_PLAN`` env var.
        tracing: Record a span tree per request and export it in
            ``TuningResult.extras["trace"]`` (on by default; spans are
            timing-only, so fingerprints are identical either way —
            asserted in the tests).
        metrics: The :class:`~repro.obs.metrics.MetricsRegistry` this
            tuner's pipelines record into (activated ambiently around each
            request); a fresh registry with the standard families declared
            is created when omitted.
        trace_store: An explicit :class:`~repro.obs.store.TraceStore` to
            record completed traces into; when omitted, one is built from
            ``trace_store_size`` / ``slow_threshold_ms``.
        trace_store_size: Capacity of the built-in trace store; 0 disables
            trace retention entirely (requests still export their trace in
            the result).
        slow_threshold_ms: Requests at least this slow are pinned in the
            store's slow ring so outliers survive rotation.
        profile_every: Capture a sampled ``cProfile`` hotspot table on every
            Nth request (``extras["profile"]``; volatile,
            fingerprint-excluded).  ``None`` (default) disables profiling.
        profile_memory: Record per-span ``tracemalloc`` peak-allocation
            deltas (starts tracemalloc process-wide; measurable overhead, so
            opt-in).
    """

    def __init__(self, max_contexts: int | None = None,
                 context_ttl_s: float | None = None,
                 fault_plan=None, tracing: bool = True,
                 metrics: MetricsRegistry | None = None,
                 trace_store: TraceStore | None = None,
                 trace_store_size: int = 128,
                 slow_threshold_ms: float | None = None,
                 profile_every: int | None = None,
                 profile_memory: bool = False) -> None:
        if max_contexts is not None and max_contexts < 1:
            raise ValueError("max_contexts must be positive (or None)")
        if context_ttl_s is not None and context_ttl_s <= 0:
            raise ValueError("context_ttl_s must be positive (or None)")
        if trace_store_size < 0:
            raise ValueError("trace_store_size must be >= 0")
        self.max_contexts = max_contexts
        self.context_ttl_s = context_ttl_s
        self.fault_plan = fault_plan
        self.tracing = bool(tracing)
        self.metrics = (metrics if metrics is not None
                        else declare_standard_metrics(MetricsRegistry()))
        if trace_store is not None:
            self.trace_store: TraceStore | None = trace_store
        elif trace_store_size > 0:
            self.trace_store = TraceStore(
                capacity=trace_store_size, slow_threshold_ms=slow_threshold_ms)
        else:
            self.trace_store = None
        self.profiler = (ProfileSampler(profile_every)
                         if profile_every is not None else None)
        self.profile_memory = bool(profile_memory)
        if self.profile_memory:
            ensure_memory_tracking()
        self._contexts: OrderedDict[tuple[int, CostingSpec], SchemaContext] = \
            OrderedDict()
        self._last_used: dict[tuple[int, CostingSpec], float] = {}
        self._contexts_lock = threading.Lock()
        #: Contexts dropped by the LRU cap / by TTL expiry (monotonic counters).
        self.evicted_contexts = 0
        self.expired_contexts = 0

    # ---------------------------------------------------------------- contexts
    def context_for(self, schema: Schema,
                    costing: CostingSpec | None = None) -> SchemaContext:
        """The shared context of a schema (created on first use)."""
        costing = costing or CostingSpec()
        key = (id(schema), costing)
        now = time.monotonic()
        with self._contexts_lock:
            self._purge_expired(now)
            context = self._contexts.get(key)
            if context is None or context.schema is not schema:
                context = SchemaContext(schema, costing)
                self._contexts[key] = context
            self._contexts.move_to_end(key)
            self._last_used[key] = now
            if self.max_contexts is not None:
                # The requested key was just moved to the end, so the LRU
                # victims popped off the front are always other contexts.
                while len(self._contexts) > self.max_contexts:
                    victim, _ = self._contexts.popitem(last=False)
                    self._last_used.pop(victim, None)
                    self.evicted_contexts += 1
            return context

    def _purge_expired(self, now: float) -> None:
        if self.context_ttl_s is None:
            return
        expired = [key for key, used in self._last_used.items()
                   if now - used > self.context_ttl_s]
        for key in expired:
            self._contexts.pop(key, None)
            self._last_used.pop(key, None)
            self.expired_contexts += 1

    @property
    def contexts(self) -> tuple[SchemaContext, ...]:
        with self._contexts_lock:
            return tuple(self._contexts.values())

    def context_stats(self) -> dict[str, Any]:
        """Machine-readable context / eviction counters (``/v1/stats``).

        Also reaps TTL-expired contexts, so the reported state is accurate
        and a stats-polling monitor doubles as the reaper on an otherwise
        idle server (``context_for`` is the other reap point).
        """
        with self._contexts_lock:
            self._purge_expired(time.monotonic())
            snapshot = list(self._contexts.values())
        # Per-context counters are read outside the registry lock (and are
        # themselves lock-free) so a poll never stalls tuning traffic.
        contexts = [
            {"schema": context.schema.name,
             "cached_queries": context.inum.cached_query_count,
             "template_builds": context.inum.template_build_calls,
             "canonical_workloads": context.canonical_workload_count,
             "statement_names": context.statement_name_count}
            for context in snapshot
        ]
        return {
            "contexts": contexts,
            "context_count": len(contexts),
            "max_contexts": self.max_contexts,
            "context_ttl_s": self.context_ttl_s,
            "evicted_contexts": self.evicted_contexts,
            "expired_contexts": self.expired_contexts,
        }

    def effective_fault_plan(self):
        """The fault plan governing this tuner's pipelines (may be None)."""
        from repro.reliability.faults import armed_plan

        return self.fault_plan if self.fault_plan is not None \
            else armed_plan()

    # ------------------------------------------------------------------ tuning
    def tune(self, request: TuningRequest) -> TuningResult:
        """Run one declarative tuning request end to end.

        Holds the context lock for the duration of the pipeline: the INUM
        cache does not serialize itself, and an embedded ``Tuner`` shared
        across threads would otherwise interleave cache mutation.  The lock
        is an RLock and uncontended in the single-threaded case, so the
        embedded fast path pays nothing for it.
        """
        context = self.context_for(request.schema, request.costing)
        with use_registry(self.metrics), context.lock:
            return tune_in_context(request, context,
                                   fault_plan=self.effective_fault_plan(),
                                   tracing=self.tracing, metrics=self.metrics,
                                   trace_store=self.trace_store,
                                   profiler=self.profiler,
                                   profile_memory=self.profile_memory)


# ----------------------------------------------------------------- pipeline
def tune_in_context(request: TuningRequest, context: SchemaContext, *,
                    namespaced: bool = False,
                    fault_plan=None, tracing: bool = True,
                    metrics: MetricsRegistry | None = None,
                    trace_store: TraceStore | None = None,
                    profiler: ProfileSampler | None = None,
                    profile_memory: bool = False) -> TuningResult:
    """The resolved pipeline: advisor from registry, shared wiring, result.

    Factored out of :class:`Tuner` so the service can run it under its own
    per-context locking without re-resolving contexts.  ``namespaced`` is
    recorded in the provenance when the service auto-namespaced the
    workload's statement names at admission.  ``fault_plan`` arms the
    ``solver`` fault site: the check fires before the advisor runs, so a
    caller-level retry repeats a request the pipeline never started.

    The body is the sequence of the facade's stages, each under its span,
    all under the root ``tune`` span — opened through the ambient
    :func:`~repro.obs.trace.stage` either way; ``tracing`` only decides
    whether a fresh :class:`~repro.obs.trace.Tracer` (inheriting a pending
    trace id, see :func:`~repro.obs.trace.trace_context`) keeps and exports
    the tree.  The root's one reading is ``facade.total``, the
    ``repro_request_seconds`` sample and the trace store's ``duration_ms``;
    the ``finally`` records them, so a request that raises mid-stage still
    reports its latency and logs a partial trace.  Observation only: the
    fingerprint is bit-identical with every knob on or off.
    """
    from repro.reliability.faults import maybe_check

    spec = request.resolved_advisor()
    advisor_name = canonical_name(spec.name)
    tracer = Tracer(track_memory=profile_memory) if tracing else None
    registry = metrics if metrics is not None else active_registry()
    timings: dict[str, float] = {}
    status, tier = "error", "none"
    capture = (cProfile.Profile() if profiler is not None
               and profiler.should_capture() else None)
    try:
        with use_registry(registry), \
                (activate(tracer) if tracer is not None
                 else contextlib.nullcontext()), \
                stage(timings, "facade.total", advisor=advisor_name,
                      request_id=request.request_id,
                      schema=request.schema.name,
                      statements=len(request.workload)) as root:
            # The context-lock and pool-queue waits that preceded the
            # pipeline belong to this request (``lock_wait_ms`` /
            # ``queue_wait_ms``); draining also keeps a reused pool thread
            # from leaking them into the next one.
            for wait, seconds in drain_pending_waits().items():
                root.set(**{f"{wait[:-1]}ms": round(seconds * 1000.0, 3)})
            if capture is not None:
                capture.enable()
            # Anchor the anytime deadline here so facade work (candidate
            # resolution, cache preparation) spends the same budget the
            # advisor sees.
            budget = spec.solve_budget()
            if budget is not None:
                budget.start()
            maybe_check(fault_plan, "solver", key=advisor_name)
            with span("canonicalize", statements=len(request.workload)):
                workload = context.canonical_workload(request.workload)
            advisor, candidates = _resolve(request, context, workload)
            prepared = _prepare(context, advisor, workload, candidates, timings)
            recommendation = _advise(root, advisor, workload, request,
                                     candidates, budget, fault_plan)
            tier = recommendation.solve_tier
            statement_costs = _evaluate(request, context, advisor,
                                        advisor_name, workload,
                                        recommendation, timings)
            result = _export(request, advisor, workload, candidates,
                             recommendation, statement_costs,
                             prepared=prepared, namespaced=namespaced)
            status = "degraded" if recommendation.degraded else "ok"
    finally:
        profile = None
        if capture is not None:
            capture.disable()
            profile = profiler.hotspots(capture)
        drain_pending_waits()  # discard in-pipeline residue
        trace = _record_request(
            request, advisor_name, tier, status, timings["facade.total"],
            registry, tracer, trace_store, profile)

    result.diagnostics.timings.update(timings)
    if trace is not None:
        result.extras["trace"] = dict(trace)
    if profile is not None:
        result.extras["profile"] = dict(profile)
    return result


def _resolve(request: TuningRequest, context: SchemaContext,
             workload: Workload) -> tuple[Advisor, CandidateSet | None]:
    """The request's candidate universe, and its advisor wired to the
    context's shared optimizer and cache."""
    with span("resolve"):
        candidates = _resolve_candidates(request, context, workload)
        advisor = make_advisor(request.resolved_advisor().name,
                               request.schema,
                               shared_optimizer=context.optimizer,
                               shared_inum=context.inum,
                               shared_candidate_generator=(
                                   context.candidate_generator),
                               **request.resolved_options())
    return advisor, candidates


def _prepare(context: SchemaContext, advisor: Advisor, workload: Workload,
             candidates: CandidateSet | None,
             timings: dict[str, float]) -> bool:
    """Request-scoped candidate registration.

    When the request names its candidate universe, the shared cache
    registers the columns before the advisor runs (idempotent + incremental
    — repeated requests only append genuinely new columns).
    """
    if candidates is None or getattr(advisor, "inum", None) is not context.inum:
        return False
    with stage(timings, "facade.prepare", candidates=len(candidates)):
        context.inum.prepare(workload, candidates)
    return True


def _advise(root, advisor: Advisor, workload: Workload,
            request: TuningRequest, candidates: CandidateSet | None,
            budget, fault_plan) -> Recommendation:
    """Run the advisor and note its outcome on the root span.

    ``fault_plan`` is armed process-wide for the duration, which is how it
    reaches the downstream fault sites (shard executors, matrix builds)
    without every advisor growing a ``fault_plan`` parameter.
    """
    from repro.reliability.faults import armed

    # Budget-less requests take the exact legacy call — custom advisors
    # registered with a pre-anytime tune() signature keep working.
    anytime = {} if budget is None else {"budget": budget}
    with (armed(fault_plan) if fault_plan is not None
          else contextlib.nullcontext()):
        recommendation = advisor.tune(workload, request.constraints,
                                      candidates=candidates, **anytime)
    root.set(tier=recommendation.solve_tier,
             whatif_calls=recommendation.whatif_calls,
             indexes=len(recommendation.configuration),
             retries=recommendation.retries,
             faults_survived=recommendation.faults_survived,
             degraded=recommendation.degraded)
    return recommendation


def _evaluate(request: TuningRequest, context: SchemaContext,
              advisor: Advisor, advisor_name: str, workload: Workload,
              recommendation: Recommendation, timings: dict[str, float]
              ) -> tuple[StatementCost, ...] | None:
    """Per-statement costs under the recommendation (None: not evaluated)."""
    evaluate = request.per_statement_costs
    if evaluate is None:
        # Default: evaluate only advisors already wired to the context's
        # gamma-matrix cache — the tensors exist, one reduction is free.
        # The black-box baselines (dta/relaxation without use_shared_inum)
        # would pay a full INUM build they deliberately avoided, and
        # scale-out exists to never cost the full workload monolithically.
        evaluate = (getattr(advisor, "inum", None) is context.inum
                    and advisor_name != "scaleout")
    if not evaluate:
        return None
    with stage(timings, "facade.evaluate", statements=len(workload)):
        costs = context.inum.statement_costs(workload,
                                             recommendation.configuration)
        return tuple(
            StatementCost(statement=statement.query.name,
                          weight=statement.weight, cost=float(cost))
            for statement, cost in zip(workload, costs))


def _export(request: TuningRequest, advisor: Advisor, workload: Workload,
            candidates: CandidateSet | None, recommendation: Recommendation,
            statement_costs: tuple[StatementCost, ...] | None, *,
            prepared: bool, namespaced: bool) -> TuningResult:
    """Provenance plus the normalised result (timings, trace and profile
    are attached once the root span has closed)."""
    with span("export"):
        provenance = _provenance(
            request, request.resolved_advisor(), request.resolved_options(),
            advisor, workload, candidates, prepared=prepared,
            evaluated=statement_costs is not None, namespaced=namespaced)
        return TuningResult.from_recommendation(
            recommendation, provenance, statement_costs or ())


def _record_request(request: TuningRequest, advisor_name: str, tier: str,
                    status: str, seconds: float, registry: MetricsRegistry,
                    tracer: Tracer | None, trace_store: TraceStore | None,
                    profile: dict[str, Any] | None) -> dict[str, Any] | None:
    """Count the request, sample its latency (the trace id is the exemplar,
    so a slow bucket can be chased back to its stored trace), retain and
    return its exported trace; a failed request's partial trace is logged."""
    registry.counter(
        "repro_requests_total",
        "Tuning requests served through the facade",
        ("advisor", "tier", "status")).inc(
        advisor=advisor_name, tier=tier, status=status)
    registry.histogram(
        "repro_request_seconds",
        "End-to-end facade latency per tuning request",
        ("advisor",)).observe(
        seconds, advisor=advisor_name,
        exemplar=tracer.trace_id if tracer is not None else None)
    if tracer is None:
        return None
    trace = tracer.export()
    if trace_store is not None:
        trace_store.record(
            trace, advisor=advisor_name, status=status,
            duration_ms=seconds * 1000.0,
            request_id=request.request_id, profile=profile)
    if status == "error":
        log_event(logging.WARNING, "tune_failed",
                  advisor=advisor_name, request_id=request.request_id,
                  seconds=round(seconds, 4),
                  trace_id=tracer.trace_id, trace=trace)
    return trace


def build_session_result(recommendation: Recommendation,
                         provenance: Mapping[str, Any]) -> TuningResult:
    """Normalise an interactive-session recommendation (no re-evaluation)."""
    return TuningResult.from_recommendation(recommendation,
                                            provenance=provenance)


def _resolve_candidates(request: TuningRequest, context: SchemaContext,
                        workload: Workload) -> CandidateSet | None:
    """The request's candidate universe as a :class:`CandidateSet`.

    ``None`` (no explicit candidates, no DBA indexes) defers to the advisor's
    own candidate generation, exactly like the legacy call path.
    """
    candidates = request.candidates
    if candidates is None:
        if not request.dba_indexes:
            return None
        return context.candidate_generator.generate(
            workload, dba_indexes=request.dba_indexes)
    if isinstance(candidates, CandidateSet):
        if not request.dba_indexes:
            return candidates
        return CandidateSet(request.schema,
                            (*candidates, *request.dba_indexes))
    return CandidateSet(request.schema,
                        (*tuple(candidates), *request.dba_indexes))


def _jsonable(value: Any) -> Any:
    """Best-effort JSON projection of advisor options for the provenance."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _provenance(request: TuningRequest, spec, options: Mapping[str, Any],
                advisor: Advisor, workload: Workload,
                candidates: CandidateSet | None, *, prepared: bool,
                evaluated: bool, namespaced: bool = False) -> dict[str, Any]:
    """The machine-readable record of the resolved pipeline."""
    return {
        "api_version": 1,
        "request_id": request.request_id,
        "advisor": {
            "requested": spec.name,
            "name": canonical_name(spec.name),
            "class": type(advisor).__name__,
            "options": _jsonable(dict(options)),
            "time_budget_ms": spec.time_budget_ms,
            "solve_tier": spec.solve_tier,
        },
        "costing": request.costing.to_provenance(),
        "scale": (request.scale.to_provenance()
                  if request.scale is not None else None),
        "schema": {"name": request.schema.name, "tables": len(request.schema)},
        "workload": {"name": workload.name, **workload.summary()},
        "constraints": [getattr(constraint, "name", type(constraint).__name__)
                        for constraint in request.constraints],
        "candidates": {
            "provided": request.candidates is not None,
            "dba_indexes": len(request.dba_indexes),
            "count": None if candidates is None else len(candidates),
        },
        "pipeline": {"prepared": prepared, "evaluated": evaluated,
                     "namespaced": namespaced},
    }
