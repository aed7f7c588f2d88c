"""``TuningService`` — serving many concurrent ``tune()`` calls per process.

Concurrency model (see the ROADMAP design notes): every
``(schema, CostingSpec)`` resolves to one :class:`SchemaContext` whose lock
serializes *cache-mutating* pipelines — template builds, gamma-matrix column
registration, tensor extension and the costing memos are all shared state,
and per-request determinism is guaranteed by running each request's pipeline
atomically against it.  Requests for different schemas (or different costing
specs) hold different locks and genuinely run in parallel; requests for the
same schema queue on the lock but still share every template, matrix and
tensor the earlier requests built, which is where the service wins over a
process-per-request design.  Results are deterministic per request: the
recommendation, objective and per-statement costs do not depend on how
concurrent requests interleave (call-count diagnostics may — a warm cache
legitimately reports fewer template builds).

Interactive sessions go through :meth:`TuningService.open_session`: the
returned :class:`TuningSession` wraps the delta-BIP
:class:`~repro.core.interactive.InteractiveTuningSession` machinery, takes
the context lock around every call, and normalises every outcome into a
:class:`TuningResult`.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Iterable


from repro.api.registry import canonical_name, make_advisor
from repro.api.result import TuningResult
from repro.api.specs import TuningRequest
from repro.api.tuner import (
    SchemaContext,
    Tuner,
    _resolve_candidates,
    build_session_result,
    tune_in_context,
)
from repro.core.interactive import InteractiveTuningSession
from repro.exceptions import ServerOverloaded
from repro.obs.metrics import WAIT_BUCKETS, histogram_quantiles, use_registry
from repro.obs.profile import note_queue_wait

__all__ = ["TuningService", "TuningSession"]


def _renamed_constraint(constraint, renames: "dict[str, str]", workload):
    """Follow a statement rename through name-referencing constraints.

    Auto-namespacing renames workload statements; a constraint that targets
    statements *by name* (``QueryCostConstraint.query``,
    ``QuerySpeedupGenerator.reference_costs``) must follow, or the rule would
    silently stop matching (speedup generators skip unknown names) or fail
    with a misleading error (query-cost constraints on absent statements).
    """
    from repro.core.constraints import (
        QueryCostConstraint,
        QuerySpeedupGenerator,
        SoftConstraint,
    )

    if isinstance(constraint, SoftConstraint):
        inner = _renamed_constraint(constraint.inner, renames, workload)
        if inner is constraint.inner:
            return constraint
        return SoftConstraint(inner, target=constraint.target)
    if isinstance(constraint, QueryCostConstraint):
        new_name = renames.get(constraint.query.name)
        if new_name is None:
            return constraint
        for statement in workload:
            if statement.query.name == new_name:
                return replace(constraint, query=statement.query)
        return constraint  # rename target not in this workload: leave as-is
    if isinstance(constraint, QuerySpeedupGenerator):
        if not renames.keys() & constraint.reference_costs.keys():
            return constraint
        return replace(constraint, reference_costs={
            renames.get(name, name): cost
            for name, cost in constraint.reference_costs.items()})
    return constraint


class TuningService:
    """A process-wide facade serving concurrent declarative tuning requests.

    Args:
        tuner: The underlying :class:`Tuner` (owns the per-schema contexts);
            a fresh one is created when omitted, and sharing one between a
            service and direct ``tuner.tune`` callers is safe as long as the
            direct callers do not run concurrently with the service.
        max_workers: Thread count for :meth:`tune_many` / :meth:`submit`
            (``None`` lets :class:`ThreadPoolExecutor` pick its default).
        namespace_statements: When ``True``, a workload whose statement names
            collide with structurally different statements already admitted
            to its schema context is *cloned* under request-qualified names
            (content-addressed, deterministic) instead of being rejected with
            :class:`WorkloadError` — the behaviour a network server wants so
            arbitrary client traffic can share one context.  The default
            keeps the embedded API's loud rejection.
        max_contexts: LRU cap on live schema contexts (forwarded to the
            service's own :class:`Tuner`; pass the knob to your Tuner
            directly when supplying one).
        context_ttl_s: Idle TTL for schema contexts (same forwarding rule).
        max_pending: Admission-control bound on requests admitted but not
            yet finished (in-flight solves plus the thread-pool queue).
            When the bound is hit, :meth:`tune` / :meth:`submit` raise
            :class:`~repro.exceptions.ServerOverloaded` instead of queueing
            — the HTTP front-end maps it to ``429`` + ``Retry-After``.
            ``None`` (default) admits everything.
        retry_after_s: Backoff hint attached to overload rejections.
        trace_store_size: Capacity of the service Tuner's trace store
            (forwarded; 0 disables retention).
        slow_threshold_ms: Slow-request pinning threshold for the trace
            store (forwarded to the service's own Tuner).
        profile_every: Sampled-``cProfile`` cadence (forwarded to the
            service's own Tuner).
    """

    def __init__(self, tuner: Tuner | None = None,
                 max_workers: int | None = None, *,
                 namespace_statements: bool = False,
                 max_contexts: int | None = None,
                 context_ttl_s: float | None = None,
                 max_pending: int | None = None,
                 retry_after_s: float = 1.0,
                 trace_store_size: int | None = None,
                 slow_threshold_ms: float | None = None,
                 profile_every: int | None = None):
        if tuner is not None and (max_contexts is not None
                                  or context_ttl_s is not None
                                  or trace_store_size is not None
                                  or slow_threshold_ms is not None
                                  or profile_every is not None):
            raise ValueError(
                "max_contexts/context_ttl_s/trace_store_size/"
                "slow_threshold_ms/profile_every configure the service's "
                "own Tuner; when supplying a Tuner, set them on it directly")
        if max_pending is not None and max_pending < 0:
            raise ValueError("max_pending must be non-negative (or None)")
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        tuner_kwargs: dict[str, Any] = {}
        if trace_store_size is not None:
            tuner_kwargs["trace_store_size"] = trace_store_size
        if slow_threshold_ms is not None:
            tuner_kwargs["slow_threshold_ms"] = slow_threshold_ms
        if profile_every is not None:
            tuner_kwargs["profile_every"] = profile_every
        self._tuner = tuner or Tuner(max_contexts=max_contexts,
                                     context_ttl_s=context_ttl_s,
                                     **tuner_kwargs)
        self._max_workers = max_workers
        self._namespace_statements = bool(namespace_statements)
        self._max_pending = max_pending
        self.retry_after_s = retry_after_s
        self._executor: ThreadPoolExecutor | None = None
        #: Admission control still runs on a plain int under its own lock
        #: (the compare-and-increment must be atomic); every *monotonic*
        #: serving counter lives in the tuner's metrics registry, so one
        #: ``snapshot()`` reads them all consistently and ``/v1/metrics``
        #: exposes them for free.
        self._stats_lock = threading.Lock()
        self._pending = 0
        metrics = self._tuner.metrics
        self._namespaced_metric = metrics.counter(
            "repro_namespaced_requests_total",
            "Requests whose statements were auto-namespaced")
        self._reaped_metric = metrics.counter(
            "repro_sessions_reaped_total",
            "Interactive sessions reaped by idle TTL")
        self._rejected_metric = metrics.counter(
            "repro_overload_rejected_total",
            "Requests rejected by admission control (429)")
        self._retries_metric = metrics.counter(
            "repro_result_retries_total",
            "Reliability-layer retries reported by served results")
        self._degraded_metric = metrics.counter(
            "repro_degraded_total",
            "Served results flagged degraded (lost shards)")
        self._pending_metric = metrics.gauge(
            "repro_pending_requests",
            "Requests admitted but not yet finished")
        self._queue_wait_metric = metrics.histogram(
            "repro_queue_wait_seconds",
            "Seconds requests waited in the service pool queue",
            buckets=WAIT_BUCKETS)
        #: Set on pool threads whose request already holds a pending slot
        #: (acquired at submit() time), so tune() does not acquire a second.
        self._slot_held = threading.local()

    # ---------------------------------------------------------------- accessors
    @property
    def tuner(self) -> Tuner:
        return self._tuner

    def context_for(self, schema, costing=None) -> SchemaContext:
        """The shared per-schema context (exposed for inspection/tests)."""
        return self._tuner.context_for(schema, costing)

    @property
    def namespace_statements(self) -> bool:
        return self._namespace_statements

    @property
    def max_pending(self) -> int | None:
        return self._max_pending

    @max_pending.setter
    def max_pending(self, value: int | None) -> None:
        """Mutable at runtime so operators (and tests) can shed or restore
        load without restarting the service."""
        if value is not None and value < 0:
            raise ValueError("max_pending must be non-negative (or None)")
        self._max_pending = value

    @property
    def pending(self) -> int:
        with self._stats_lock:
            return self._pending

    # -------------------------------------------------------- admission control
    def _acquire_slot(self) -> None:
        with self._stats_lock:
            limit = self._max_pending
            if limit is not None and self._pending >= limit:
                retry_after = self.retry_after_s
                pending = self._pending
            else:
                self._pending += 1
                self._pending_metric.set(float(self._pending))
                return
        self._rejected_metric.inc()
        raise ServerOverloaded(
            f"Tuning service pending-work queue is full "
            f"({pending} in flight, max_pending={limit}); "
            f"retry after {retry_after} s", retry_after_s=retry_after)

    def _release_slot(self) -> None:
        with self._stats_lock:
            self._pending -= 1
            self._pending_metric.set(float(self._pending))

    def note_sessions_reaped(self, count: int) -> None:
        """Record idle sessions reaped by a front-end (e.g. the HTTP server).

        Sessions live above the service (the server maps ids to
        :class:`TuningSession` objects), but their lifecycle counters belong
        with the other serving statistics so one ``stats()`` poll tells the
        whole story.
        """
        if count <= 0:
            return
        self._reaped_metric.inc(float(count))

    def stats(self) -> dict[str, Any]:
        """Machine-readable service counters (the ``/v1/stats`` payload).

        All monotonic counters come out of ONE registry ``snapshot()`` —
        a single lock acquisition — so a poll racing concurrent
        ``tune_many`` traffic sees a consistent set: no counter in the
        payload can come from a later instant than another.

        ``faults_injected`` counts plan firings observed *in this process*;
        worker-side injections are counted by the worker's plan copy and
        surface here as part of ``retries`` / ``degraded_results`` instead.
        """
        snap = self._tuner.metrics.snapshot()

        def total(name: str) -> float:
            return sum(snap.get(name, {}).values())

        # requests_served keeps its legacy meaning: requests that returned a
        # result (the facade also counts errored requests, under
        # status="error").
        served = sum(value
                     for key, value in snap.get("repro_requests_total",
                                                {}).items()
                     if key[2] != "error")
        pending = snap.get("repro_pending_requests", {}).get((), 0.0)
        plan = self._tuner.effective_fault_plan()

        # Streaming latency SLOs: per-advisor p50/p95/p99 interpolated from
        # the full bucket data of the same atomic snapshot, with the slowest
        # request's exemplar trace id for drill-down into /v1/traces.
        latency_slo: dict[str, Any] = {}
        for labels, sample in snap.get("repro_request_seconds", {}).items():
            advisor = labels[0] if labels else ""
            p50, p95, p99 = histogram_quantiles(sample, (0.5, 0.95, 0.99))
            row: dict[str, Any] = {
                "count": int(sample.get("count", 0)),
                "p50_ms": None if p50 is None else round(p50 * 1000.0, 3),
                "p95_ms": None if p95 is None else round(p95 * 1000.0, 3),
                "p99_ms": None if p99 is None else round(p99 * 1000.0, 3),
            }
            exemplar = sample.get("exemplar")
            if exemplar is not None:
                row["exemplar_trace_id"] = exemplar["trace_id"]
            latency_slo[advisor] = row

        return {
            **self._tuner.context_stats(),
            "namespace_statements": self._namespace_statements,
            "requests_served": int(served),
            "namespaced_requests": int(
                total("repro_namespaced_requests_total")),
            "sessions_reaped": int(total("repro_sessions_reaped_total")),
            "pending": int(pending),
            "max_pending": self._max_pending,
            "rejected_overload": int(total("repro_overload_rejected_total")),
            "retries": int(total("repro_result_retries_total")),
            "degraded_results": int(total("repro_degraded_total")),
            "faults_injected": 0 if plan is None else plan.injected_total,
            "latency_slo": latency_slo,
        }

    # ------------------------------------------------------------------ tuning
    def tune(self, request: TuningRequest) -> TuningResult:
        """Serve one request, atomically against its schema context.

        Raises :class:`~repro.exceptions.ServerOverloaded` without touching
        the schema context when admission control (``max_pending``) rejects
        the request.
        """
        if getattr(self._slot_held, "held", False):
            return self._tune_slotted(request)
        self._acquire_slot()
        try:
            return self._tune_slotted(request)
        finally:
            self._release_slot()

    def _tune_slotted(self, request: TuningRequest) -> TuningResult:
        """The admitted tune path (the caller holds a pending slot)."""
        context = self._tuner.context_for(request.schema, request.costing)
        with use_registry(self._tuner.metrics), context.lock:
            request, renames = self._admitted(request, context)
            result = tune_in_context(
                request, context, namespaced=bool(renames),
                fault_plan=self._tuner.effective_fault_plan(),
                tracing=self._tuner.tracing, metrics=self._tuner.metrics,
                trace_store=self._tuner.trace_store,
                profiler=self._tuner.profiler,
                profile_memory=self._tuner.profile_memory)
        # The per-request family (repro_requests_total) was recorded inside
        # tune_in_context; only the service-level views remain.
        if renames:
            self._namespaced_metric.inc()
        if result.diagnostics.retries:
            self._retries_metric.inc(float(result.diagnostics.retries))
        if result.diagnostics.degraded:
            self._degraded_metric.inc()
        return result

    def _admitted(self, request: TuningRequest, context: SchemaContext
                  ) -> tuple[TuningRequest, dict[str, str]]:
        """Apply the admission policy (caller holds the context lock).

        Returns the (possibly rewritten) request plus the statement rename
        map — empty when nothing was namespaced.
        """
        if not self._namespace_statements:
            return request, {}
        workload, renames = context.namespaced_workload(request.workload)
        if not renames:
            return request, {}
        constraints = tuple(
            _renamed_constraint(constraint, renames, workload)
            for constraint in request.constraints)
        return replace(request, workload=workload,
                       constraints=constraints), renames

    def submit(self, request: TuningRequest) -> "Future[TuningResult]":
        """Queue a request on the service's thread pool.

        The pending slot is acquired *here* — queued-but-unstarted work
        counts against ``max_pending``, which is the whole point of
        admission control — and released when the future settles.  The pool
        thread still goes through ``self.tune`` (the overridable entry
        point); the thread-local marker keeps it from taking a second slot.
        """
        self._acquire_slot()
        queued_at = time.perf_counter()

        def run_admitted() -> TuningResult:
            # The gap between admission and a pool thread picking the
            # request up is queue wait: recorded in the service-wide
            # histogram and noted thread-locally so the request's root span
            # carries it as ``queue_wait_ms``.
            waited = time.perf_counter() - queued_at
            self._queue_wait_metric.observe(waited)
            note_queue_wait(waited)
            self._slot_held.held = True
            try:
                return self.tune(request)
            finally:
                self._slot_held.held = False

        # Pool threads do not inherit contextvars from the submitting
        # thread; copying the context here carries a caller's pending trace
        # id (trace_context / the HTTP request scope) into the solve.
        ctx = contextvars.copy_context()
        try:
            future = self._ensure_executor().submit(ctx.run, run_admitted)
        except BaseException:
            self._release_slot()
            raise
        future.add_done_callback(lambda _future: self._release_slot())
        return future

    def tune_many(self, requests: Iterable[TuningRequest]
                  ) -> list[TuningResult]:
        """Serve many requests concurrently; results in request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ---------------------------------------------------------------- sessions
    def open_session(self, request: TuningRequest) -> "TuningSession":
        """Start an interactive (incremental re-tuning) session.

        Only the CoPhy strategy supports delta-BIP re-tuning, so the request
        must name it (or leave the advisor unset); and a session step is an
        exact solve without a deadline, so the request may not ask for a
        time budget or an anytime tier.
        """
        spec = request.resolved_advisor()
        if canonical_name(spec.name) != "cophy":
            raise ValueError(
                f"Interactive sessions require the 'cophy' advisor; the "
                f"request asks for {spec.name!r}")
        if spec.time_budget_ms is not None or spec.solve_tier not in (
                None, "exact"):
            raise ValueError(
                f"Interactive sessions solve exactly without a deadline; the "
                f"request asks for time_budget_ms={spec.time_budget_ms!r}, "
                f"solve_tier={spec.solve_tier!r}")
        context = self._tuner.context_for(request.schema, request.costing)
        with use_registry(self._tuner.metrics), context.lock:
            request, renames = self._admitted(request, context)
            advisor = make_advisor(spec.name, request.schema,
                                   shared_optimizer=context.optimizer,
                                   shared_inum=context.inum,
                                   shared_candidate_generator=(
                                       context.candidate_generator),
                                   **request.resolved_options())
            workload = context.canonical_workload(request.workload)
            candidates = _resolve_candidates(request, context, workload)
            inner = InteractiveTuningSession(
                advisor, workload, constraints=request.constraints,
                candidates=candidates, dba_indexes=())
        return TuningSession(self, context, request, inner, renames=renames)

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the thread pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "TuningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="tuning-service")
        return self._executor


class TuningSession:
    """A service-held interactive session returning :class:`TuningResult`.

    Thin concurrency-and-normalisation shell over
    :class:`InteractiveTuningSession`: every call holds the schema context's
    lock (sessions share the context cache with regular ``tune()`` traffic)
    and converts the recommendation uniformly.  The underlying session stays
    reachable as :attr:`inner` for BIP-level inspection.
    """

    def __init__(self, service: TuningService, context: SchemaContext,
                 request: TuningRequest, inner: InteractiveTuningSession,
                 renames: dict[str, str] | None = None):
        self._service = service
        self._context = context
        self._request = request
        self._inner = inner
        #: Statement renames applied at admission (auto-namespacing); later
        #: constraint updates referencing original names must follow them.
        self._renames = dict(renames or {})
        self._history: list[TuningResult] = []
        #: Serializes whole session steps: the context lock only covers the
        #: solve, but step numbering and history order must match execution
        #: order even when concurrent server threads drive one session.
        self._step_lock = threading.Lock()

    # ---------------------------------------------------------------- accessors
    @property
    def inner(self) -> InteractiveTuningSession:
        return self._inner

    @property
    def history(self) -> tuple[TuningResult, ...]:
        return tuple(self._history)

    @property
    def last_result(self) -> TuningResult | None:
        return self._history[-1] if self._history else None

    # ------------------------------------------------------------------ tuning
    def recommend(self) -> TuningResult:
        """Initial recommendation (full INUM + build + solve)."""
        return self._run("recommend")

    def add_candidates(self, new_indexes) -> TuningResult:
        """Re-tune after adding candidates (delta BIP + warm start)."""
        return self._run("add_candidates", new_indexes)

    def remove_candidates(self, removed_indexes) -> TuningResult:
        """Re-tune after retracting candidates (pinned delta BIP)."""
        return self._run("remove_candidates", removed_indexes)

    def update_constraints(self, constraints) -> TuningResult:
        """Re-tune under a different constraint set (warm-started).

        Constraints referencing statements by their *original* names are
        rewritten through the admission-time rename map, so clients of a
        namespacing service keep using the names they sent.
        """
        if self._renames:
            constraints = [
                _renamed_constraint(constraint, self._renames,
                                    self._inner.workload)
                for constraint in constraints]
        return self._run("update_constraints", constraints)

    # ---------------------------------------------------------------- internals
    def _run(self, method: str, *args: Any) -> TuningResult:
        with self._step_lock:
            with use_registry(self._service.tuner.metrics), \
                    self._context.lock:
                recommendation = getattr(self._inner, method)(*args)
            provenance = {
                "api_version": 1,
                "request_id": self._request.request_id,
                "advisor": {"name": "cophy",
                            "class": "InteractiveTuningSession"},
                "session": {"step": len(self._history) + 1,
                            "operation": method},
                "schema": {"name": self._request.schema.name,
                           "tables": len(self._request.schema)},
                "workload": {"name": self._inner.workload.name},
            }
            result = build_session_result(recommendation, provenance)
            self._history.append(result)
            return result
