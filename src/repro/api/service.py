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
returned :class:`TuningSession` is the delta-BIP engine of section 4.2.  It
builds one BIP, extends it or re-solves it, holds the context lock around
every step, and returns every outcome as a :class:`TuningResult`.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Iterable

from repro.advisors.base import Recommendation
from repro.api.registry import canonical_name, make_advisor
from repro.api.result import TuningResult
from repro.api.specs import TuningRequest
from repro.api.tuner import SchemaContext, Tuner, _resolve_candidates
from repro.core.bip_builder import CophyBip
from repro.core.constraints import TuningConstraint, split_constraints
from repro.exceptions import ConstraintError, ServerOverloaded, SolverError
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.index import Index
from repro.lp.model import Objective, RowBlock, RowKind
from repro.obs.metrics import (
    CONTEXTS_DROPPED, DEGRADED, NAMESPACED_REQUESTS, OVERLOAD_REJECTED,
    PENDING_REQUESTS, QUEUE_WAIT_SECONDS, REQUEST_SECONDS, REQUESTS,
    RESULT_RETRIES, SESSIONS_REAPED, histogram_quantiles, use_registry)
from repro.obs.profile import note_queue_wait
from repro.obs.trace import stage
from repro.workload.workload import Workload

__all__ = ["TuningService", "TuningSession"]

#: The ``/v1/stats`` counters, each the sum of one family's samples in the
#: registry snapshot whose labels take the listed values (no filter: the
#: whole family).  ``requests_served`` keeps its legacy meaning: requests
#: that returned a result (the facade also counts errored ones).
_STATS_READINGS = (
    ("evicted_contexts", CONTEXTS_DROPPED, {"reason": ("lru",)}),
    ("expired_contexts", CONTEXTS_DROPPED, {"reason": ("ttl",)}),
    ("requests_served", REQUESTS, {"status": ("ok", "degraded")}),
    ("namespaced_requests", NAMESPACED_REQUESTS, {}),
    ("sessions_reaped", SESSIONS_REAPED, {}),
    ("pending", PENDING_REQUESTS, {}),
    ("rejected_overload", OVERLOAD_REJECTED, {}),
    ("retries", RESULT_RETRIES, {}),
    ("degraded_results", DEGRADED, {}),
)


def _reading(snap: dict, row, label_filter: dict) -> int:
    """One ``/v1/stats`` counter off a registry snapshot."""
    return int(sum(value for key, value in snap.get(row.name, {}).items()
                   if all(dict(zip(row.labelnames, key))[label] in allowed
                          for label, allowed in label_filter.items())))


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
        tuner: The underlying :class:`Tuner`: it owns the per-schema
            contexts and every setting of the pipeline (context eviction,
            fault plan, tracing, trace store, profiling), so a caller that
            wants any of them passes a configured one.  A default ``Tuner()``
            is created when omitted, and sharing one between a service and
            direct ``tuner.tune`` callers is safe as long as the direct
            callers do not run concurrently with the service.
        max_workers: Thread count for :meth:`tune_many` / :meth:`submit`
            (``None`` lets :class:`ThreadPoolExecutor` pick its default);
            checked here, not on the first submit.
        namespace_statements: When ``True``, a workload whose statement names
            collide with structurally different statements already admitted
            to its schema context is *cloned* under request-qualified names
            (content-addressed, deterministic) instead of being rejected with
            :class:`WorkloadError` — the behaviour a network server wants so
            arbitrary client traffic can share one context.  The default
            keeps the embedded API's loud rejection.
        max_pending: Admission-control bound on requests admitted but not
            yet finished (in-flight solves plus the thread-pool queue).
            When the bound is hit, :meth:`tune` / :meth:`submit` raise
            :class:`~repro.exceptions.ServerOverloaded` instead of queueing
            — the HTTP front-end maps it to ``429`` + ``Retry-After``.
            ``None`` (default) admits everything.
        retry_after_s: Backoff hint attached to overload rejections.
    """

    def __init__(self, tuner: Tuner | None = None,
                 max_workers: int | None = None, *,
                 namespace_statements: bool = False,
                 max_pending: int | None = None,
                 retry_after_s: float = 1.0):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive (or None)")
        if max_pending is not None and max_pending < 0:
            raise ValueError("max_pending must be non-negative (or None)")
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        self._tuner = tuner if tuner is not None else Tuner()
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
                self._tuner.metrics.family(PENDING_REQUESTS).set(
                    float(self._pending))
                return
        self._tuner.metrics.family(OVERLOAD_REJECTED).inc()
        raise ServerOverloaded(
            f"Tuning service pending-work queue is full "
            f"({pending} in flight, max_pending={limit}); "
            f"retry after {retry_after} s", retry_after_s=retry_after)

    def _release_slot(self) -> None:
        with self._stats_lock:
            self._pending -= 1
            self._tuner.metrics.family(PENDING_REQUESTS).set(
                float(self._pending))

    def note_sessions_reaped(self, count: int) -> None:
        """Record idle sessions reaped by a front-end (e.g. the HTTP server).

        Sessions live above the service (the server maps ids to
        :class:`TuningSession` objects), but their lifecycle counters belong
        with the other serving statistics so one ``stats()`` poll tells the
        whole story.
        """
        if count <= 0:
            return
        self._tuner.metrics.family(SESSIONS_REAPED).inc(float(count))

    def stats(self) -> dict[str, Any]:
        """Machine-readable service counters (the ``/v1/stats`` payload).

        All counters (:data:`_STATS_READINGS`) and the latency SLOs come
        out of ONE registry ``snapshot()`` — a single lock acquisition — so
        a poll racing concurrent ``tune_many`` traffic sees a consistent
        set: no counter in the payload can come from a later instant than
        another.  The per-context rows and the configured limits are direct
        reads.

        ``faults_injected`` counts plan firings observed *in this process*;
        worker-side injections are counted by the worker's plan copy and
        surface here as part of ``retries`` / ``degraded_results`` instead.
        """
        # context_stats() reaps expired contexts first, so the snapshot
        # already counts them.
        contexts = self._tuner.context_stats()
        snap = self._tuner.metrics.snapshot()
        plan = self._tuner.effective_fault_plan()

        # Streaming latency SLOs: per-advisor p50/p95/p99 interpolated from
        # the full bucket data of the same atomic snapshot, with the slowest
        # request's exemplar trace id for drill-down into /v1/traces.
        latency_slo: dict[str, Any] = {}
        for labels, sample in snap.get(REQUEST_SECONDS.name, {}).items():
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
            **contexts,
            **{key: _reading(snap, row, label_filter)
               for key, row, label_filter in _STATS_READINGS},
            "namespace_statements": self._namespace_statements,
            "max_pending": self._max_pending,
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
            result = self._tuner.tune_in_context(request, context,
                                                 namespaced=bool(renames))
        # The per-request family (repro_requests_total) was recorded inside
        # Tuner.tune_in_context; only the service-level views remain.
        metrics = self._tuner.metrics
        if renames:
            metrics.family(NAMESPACED_REQUESTS).inc()
        if result.diagnostics.retries:
            metrics.family(RESULT_RETRIES).inc(
                float(result.diagnostics.retries))
        if result.diagnostics.degraded:
            metrics.family(DEGRADED).inc()
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
            self._tuner.metrics.family(QUEUE_WAIT_SECONDS).observe(waited)
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
        time budget or an anytime tier.  A step returns one configuration,
        not a Pareto curve, so a soft constraint is a
        :class:`~repro.exceptions.ConstraintError`.
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
        _hard_only(request.constraints)  # before admission touches the context
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
            if candidates is None:
                candidates = advisor.generate_candidates(workload)
            else:
                # Steps edit the session's set in place; the request's
                # own set must outlive the session unchanged.
                candidates = CandidateSet(request.schema, candidates)
        return TuningSession(self, context, request, advisor, workload,
                             candidates, list(request.constraints), renames)

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


@dataclass
class _Retracted(TuningConstraint):
    """``z <= 0`` for each retracted candidate that has a column in the BIP.

    A retraction names an index, so it holds on any BIP: after a rebuild
    the candidate has no column and no row, and after an ``extend`` that
    gave it a new column it gets its row again.
    """

    indexes: tuple[Index, ...]
    name: str = "retracted_candidates"

    def to_linear(self, bip: CophyBip) -> RowBlock:
        return RowBlock.of([(Objective.of([bip.z_columns[index]], [1.0]), 0.0,
                             RowKind.LESS_EQUAL)
                            for index in self.indexes
                            if index in bip.z_columns])


def _hard_only(constraints) -> list[TuningConstraint]:
    """The hard constraints; a soft one is a :class:`ConstraintError`."""
    hard, soft = split_constraints(constraints)
    if soft:
        raise ConstraintError(
            "Interactive sessions do not support soft constraints; tune "
            "with CoPhy for Pareto exploration or make the constraints hard")
    return hard


class TuningSession:
    """A service-held interactive session: delta-BIP re-tuning (section 4.2).

    The first step runs INUM, builds the Theorem-1 BIP and solves it; later
    steps reuse the cache and that BIP: added candidates ``extend`` it in
    place, and a constraint update or a retraction is one more solve of the
    program already built.  The session edits no rows: each solve passes
    ``z <= 0`` for the retracted candidates, ahead of the DBA's constraints,
    and a retracted candidate comes back by leaving that set.

    Every step holds the session's step lock and the schema context's lock
    (sessions share the context cache with ``tune()`` traffic) and returns a
    :class:`TuningResult`.  Open one with :meth:`TuningService.open_session`.
    """

    def __init__(self, service: TuningService, context: SchemaContext,
                 request: TuningRequest, advisor, workload: Workload,
                 candidates: CandidateSet,
                 constraints: list[TuningConstraint],
                 renames: dict[str, str]):
        self._service = service
        self._context = context
        self._request = request
        self._advisor = advisor
        self._workload = workload
        self._candidates = candidates
        self._constraints = constraints
        self._bip: CophyBip | None = None
        #: Retracted candidates in retraction order (a dict as ordered set).
        self._retracted: dict[Index, None] = {}
        #: Statement renames applied at admission (auto-namespacing); later
        #: constraint updates referencing original names must follow them.
        self._renames = renames
        self._history: list[TuningResult] = []
        #: Serializes whole steps (the edit, then the work under the context
        #: lock): step numbering and history order must match execution
        #: order even when concurrent server threads drive one session.
        self._step_lock = threading.Lock()

    # ---------------------------------------------------------------- accessors
    @property
    def bip(self) -> CophyBip:
        """The session's BIP (read-only: steps edit it, callers inspect)."""
        if self._bip is None:
            raise SolverError("Call recommend() before inspecting the BIP")
        return self._bip

    @property
    def candidates(self) -> CandidateSet:
        """The current candidates (retracted ones excluded)."""
        return self._candidates

    @property
    def history(self) -> tuple[TuningResult, ...]:
        return tuple(self._history)

    @property
    def last_result(self) -> TuningResult | None:
        return self._history[-1] if self._history else None

    # ------------------------------------------------------------------ tuning
    def recommend(self) -> TuningResult:
        """Initial recommendation (full INUM + build + solve)."""
        with self._step_lock:
            return self._step("recommend")

    def add_candidates(self, new_indexes) -> TuningResult:
        """Re-tune after adding candidates (the BIP is extended in place)."""
        new_indexes = list(new_indexes)
        with self._step_lock:
            for index in new_indexes:
                self._retracted.pop(index, None)
            # Without a BIP the step builds one from the candidates.  With
            # one, a retracted candidate that kept its column rejoins them
            # and ``extend`` adds columns for the others.
            self._candidates.add_all(
                index for index in new_indexes
                if self._bip is None or index in self._bip.z_columns)
            return self._step("add_candidates", added=new_indexes)

    def remove_candidates(self, removed_indexes) -> TuningResult:
        """Re-tune after retracting candidates (a re-solve, no rebuild)."""
        with self._step_lock:
            removed = [index for index in dict.fromkeys(removed_indexes)
                       if index in self._candidates]
            self._candidates.remove_all(removed)
            self._retracted.update(dict.fromkeys(removed))
            return self._step("remove_candidates")

    def update_constraints(self, constraints) -> TuningResult:
        """Re-tune under a different constraint set (re-solve, no rebuild).

        Constraints referencing statements by their *original* names are
        rewritten through the admission-time rename map, so clients of a
        namespacing service keep using the names they sent.  A soft
        constraint is a :class:`~repro.exceptions.ConstraintError`.
        """
        hard = _hard_only([
            _renamed_constraint(constraint, self._renames, self._workload)
            for constraint in constraints])
        with self._step_lock:
            self._constraints = hard
            return self._step("update_constraints")

    # ---------------------------------------------------------------- internals
    def _step(self, operation: str, added=None) -> TuningResult:
        """Build the BIP (the first step and ``recommend``), ``extend`` it
        with ``added``, or only re-solve it; the caller holds the step lock
        and has edited the session."""
        with use_registry(self._service.tuner.metrics), self._context.lock:
            advisor = self._advisor
            rebuild = operation == "recommend" or self._bip is None
            # A step reports its own what-if calls, as a tune does, so what
            # other requests did on the context never shows in it.  Template
            # builds stay out: counting them would make a first step differ
            # between a warm and a fresh context.
            whatif_before = advisor.optimizer.whatif_calls
            timings: dict[str, float] = {} if rebuild else {"inum": 0.0}
            with stage(timings, "total"):
                if rebuild:
                    with stage(timings, "inum",
                               statements=len(self._workload)):
                        advisor.inum.build_workload(self._workload)
                    with stage(timings, "build"):
                        self._bip = advisor.bip_builder.build(
                            self._workload, self._candidates)
                elif added is None:
                    timings["build"] = 0.0
                else:
                    with stage(timings, "build"):
                        advisor.bip_builder.extend(self._bip, added)
                # Retracted candidates are this solve's first rows.
                retracted = ([_Retracted(tuple(self._retracted))]
                             if self._retracted else [])
                with stage(timings, "solve") as node:
                    report = advisor.solver.solve(
                        self._bip,
                        hard_constraints=[*retracted, *self._constraints])
                    node.set(**report.span_attributes())
            recommendation = Recommendation(
                configuration=report.configuration,
                advisor_name=advisor.name,
                objective_estimate=report.objective,
                timings=timings,
                candidate_count=len(self._candidates),
                whatif_calls=advisor.optimizer.whatif_calls - whatif_before,
                gap=report.gap,
                extras={"solve_report": report})
        provenance = {
            "api_version": 1,
            "request_id": self._request.request_id,
            # The engine's former class name: a payload value inside every
            # session result's fingerprint, so it stays as it was.
            "advisor": {"name": "cophy", "class": "InteractiveTuningSession"},
            "session": {"step": len(self._history) + 1,
                        "operation": operation},
            "schema": {"name": self._request.schema.name,
                       "tables": len(self._request.schema)},
            "workload": {"name": self._workload.name},
        }
        result = TuningResult.from_recommendation(
            recommendation, provenance=provenance)
        self._history.append(result)
        return result
