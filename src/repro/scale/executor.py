"""Process-parallel execution of shard solves and gamma-matrix builds.

The third stage of the scale-out pipeline (PR 3).  Template enumeration,
gamma-matrix column costing and BIP solving are GIL-bound Python, so threads
cannot scale them on multi-core machines.  This module moves both across
*process* boundaries:

* :class:`ShardExecutor` solves the per-shard BIPs of a
  :class:`~repro.scale.partition.PartitionPlan` — inline (sharing the
  caller's :class:`~repro.inum.cache.InumCache`) when one worker is
  effective, or in a ``ProcessPoolExecutor`` where each worker rebuilds its
  own optimizer/INUM/BIP stack from the pickled schema and statements and
  returns the templates/matrices it built (``ShardResult.built``) for the
  caller's cache to adopt, so no template is enumerated twice.
* :func:`build_matrices_in_processes` shards ``QueryGammaMatrix``
  construction across worker processes; the built matrices are pickled back
  and adopted into the calling cache (``InumCache.adopt_built``) in workload
  order, so cache state is deterministic regardless of scheduling.

Fault tolerance (PR 7): a failed or crashed shard solve is retried under
the executor's :class:`~repro.reliability.retry.RetryPolicy`; a
``BrokenProcessPool`` rebuilds the pool (the crash cannot be attributed to
one future, so every unfinished shard advances its attempt counter); a
shard that exhausts its pool attempts falls back to solving inline on the
caller's cache; and a shard that fails even inline comes back as a
``failed=True`` :class:`ShardResult` for the advisor to degrade around —
a worker crash never changes the recommendation, only the timing.

Determinism and correctness notes: results are merged in shard/workload
order; the synthetic cost model is a pure function of the schema
statistics, so worker-built arrays are bit-identical to locally built ones
(asserted in the tests); ``Index`` / ``TemplatePlan`` recompute their
cached hashes on unpickling, so objects crossing the process boundary key
dictionaries correctly on both sides of it; and a retried shard reruns on
a fresh worker whose counters match the first try's, so recovered runs
fingerprint identically to clean ones.
"""

from __future__ import annotations

import contextlib
import logging
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro.catalog.schema import Schema
from repro.core.bip_builder import BipBuilder
from repro.core.constraints import StorageBudgetConstraint
from repro.core.solver import CoPhySolver, SolverBackend
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.index import Index
from repro.inum.cache import (
    DEFAULT_MAX_ORDERS_PER_TABLE,
    DEFAULT_MAX_TEMPLATES_PER_QUERY,
    InumCache,
)
from repro.inum.gamma_matrix import QueryGammaMatrix
from repro.inum.template_plan import TemplatePlan
from repro.lp.budget import SolveBudget
from repro.obs.log import log_event
from repro.obs.metrics import active_registry
from repro.obs.trace import Tracer, activate, current_trace_id, span
from repro.optimizer.whatif import WhatIfOptimizer
from repro.reliability.faults import FaultPlan, armed_plan, maybe_check
from repro.reliability.retry import RetryPolicy, default_retryable
from repro.scale.partition import Shard
from repro.workload.query import Query
from repro.workload.workload import Workload


if TYPE_CHECKING:  # pragma: no cover - type-checking import only
    from repro.scale.partition import PartitionPlan

__all__ = ["ShardResult", "ShardExecutor", "build_matrices_in_processes"]


@dataclass(frozen=True)
class ShardResult:
    """One shard's solved sub-problem.

    ``worker_optimizer_calls`` counts what-if optimizations plus template
    builds performed by a *worker process* for this shard (0 on the inline
    path, where the shared cache's own counters already cover the work) —
    advisors add it to their reported ``whatif_calls`` so optimizer-call
    accounting stays identical across worker counts.
    """

    position: int
    indexes: tuple[Index, ...]
    objective: float
    gap: float
    solve_seconds: float
    statistics: dict[str, float] = field(default_factory=dict)
    worker_optimizer_calls: int = 0
    #: True when the shard's wall-clock slice interrupted its solve.
    timed_out: bool = False
    #: Retries taken (pool resubmissions + the inline fallback) for this shard.
    retries: int = 0
    #: Failures the reliability layer absorbed (retried or degraded around).
    faults_survived: int = 0
    #: True when the shard exhausted its pool attempts and solved inline.
    recovered_inline: bool = False
    #: True when every attempt failed; ``indexes`` is empty and the advisor
    #: merges over the surviving shards (graceful degradation).
    failed: bool = False
    failure: str = ""
    #: Exported worker-side span tree when the shard solved in a worker
    #: process under an active trace (None on the inline path, whose spans
    #: nest directly into the caller's tracer).  The advisor grafts it back
    #: with :func:`repro.obs.trace.adopt`.
    trace: dict | None = None
    #: ``(shell, templates, matrix)`` entries a worker process built for
    #: shells the caller's cache did not hold at dispatch (empty on the
    #: inline path, which builds into the caller's cache directly).  The
    #: advisor feeds them to :meth:`~repro.inum.cache.InumCache.adopt_built`.
    built: tuple = field(default=(), compare=False, repr=False)


class ShardExecutor:
    """Solves the shards of a partition plan, optionally across processes.

    Args:
        workers: Process count; ``None`` uses ``os.cpu_count()``.  When the
            effective worker count is 1 (or only one shard exists) the solves
            run inline and share ``inum`` — no pickling, no process startup.
        backend: BIP solver backend for the per-shard solves.
        gap_tolerance / time_limit_seconds: Per-shard solver settings.
        retry_policy: Retry/backoff schedule for failed or crashed shard
            solves (``None`` = the default policy; pass
            ``RetryPolicy(max_attempts=1)`` to disable retries).
        fault_plan: Explicit fault-injection plan; ``None`` defers to the
            process-wide armed plan / ``REPRO_FAULT_PLAN``.
        degrade: When True (default), a shard whose every attempt — pool
            retries plus the inline fallback — failed with a transient
            error is returned as a ``failed=True`` result instead of
            raising, so the advisor can merge over the survivors.
    """

    def __init__(self, workers: int | None = None,
                 backend: SolverBackend = SolverBackend.MILP,
                 gap_tolerance: float = 0.05,
                 time_limit_seconds: float | None = None,
                 retry_policy: RetryPolicy | None = None,
                 fault_plan: FaultPlan | None = None,
                 degrade: bool = True):
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.backend = backend
        self.gap_tolerance = gap_tolerance
        self.time_limit_seconds = time_limit_seconds
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.fault_plan = fault_plan
        self.degrade = degrade

    def effective_workers(self, shard_count: int) -> int:
        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(workers, shard_count))

    def solve_shards(self, plan: "PartitionPlan", schema: Schema,
                     inum: InumCache | None = None,
                     shard_time_limit: float | None = None,
                     budget: SolveBudget | None = None
                     ) -> tuple[ShardResult, ...]:
        """Solve every shard and return results in shard order.

        ``shard_time_limit`` is a per-shard wall-clock slice (an anytime
        budget apportioned by the caller); it is min-merged with the
        executor's own ``time_limit_seconds``.  ``budget`` is the request's
        :class:`~repro.lp.budget.SolveBudget`, consulted before every retry
        backoff so recovery never pushes the request past its deadline.
        """
        shards = plan.shards
        if not shards:
            return ()
        time_limit = self.time_limit_seconds
        if shard_time_limit is not None:
            time_limit = (shard_time_limit if time_limit is None
                          else min(time_limit, shard_time_limit))
        faults = (self.fault_plan if self.fault_plan is not None
                  else armed_plan())
        workers = self.effective_workers(len(shards))
        if workers <= 1:
            if inum is None:
                inum = InumCache(WhatIfOptimizer(schema))
            return tuple(
                self._solve_inline_with_retry(shard, inum, time_limit,
                                              faults, budget)
                for shard in shards)
        return self._solve_pooled(shards, schema, inum, time_limit, workers,
                                  faults, budget)

    # -------------------------------------------------------------- inline path
    def _solve_inline_with_retry(self, shard: Shard, inum: InumCache,
                                 time_limit: float | None,
                                 faults: FaultPlan | None,
                                 budget: SolveBudget | None) -> ShardResult:
        counters = {"retries": 0, "survived": 0}

        def on_retry(attempt: int, exc: BaseException, delay: float) -> None:
            counters["retries"] += 1
            counters["survived"] += 1
            _retry_metric("shard_solve")
            log_event(logging.WARNING, "shard_retry", shard=shard.position,
                      attempt=attempt, error=repr(exc),
                      delay=round(delay, 3))

        try:
            result = self.retry_policy.call(
                lambda attempt: _solve_shard_inline(
                    shard, inum, self.backend, self.gap_tolerance, time_limit,
                    fault_plan=faults, attempt=attempt),
                budget=budget, on_retry=on_retry)
        except Exception as exc:
            if not (self.degrade and default_retryable(exc)):
                raise
            counters["survived"] += 1
            log_event(logging.WARNING, "shard_degraded",
                      shard=shard.position, error=repr(exc))
            return _failed_shard_result(shard, exc, counters)
        return replace(result, retries=counters["retries"],
                       faults_survived=counters["survived"])

    # ---------------------------------------------------------------- pool path
    def _solve_pooled(self, shards: Sequence[Shard], schema: Schema,
                      inum: InumCache | None, time_limit: float | None,
                      workers: int, faults: FaultPlan | None,
                      budget: SolveBudget | None) -> tuple[ShardResult, ...]:
        caps = (inum.enumeration_caps if inum is not None
                else (DEFAULT_MAX_ORDERS_PER_TABLE,
                      DEFAULT_MAX_TEMPLATES_PER_QUERY))
        policy = self.retry_policy
        rng = random.Random(policy.seed) if policy.seed is not None else None
        results: dict[int, ShardResult] = {}
        attempt_no = {shard.position: 1 for shard in shards}
        retries = {shard.position: 0 for shard in shards}
        survived = {shard.position: 0 for shard in shards}
        remaining = list(shards)
        fallback: list[Shard] = []
        round_no = 1
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while remaining:
                futures = [
                    (shard, pool.submit(
                        _solve_shard_job,
                        self._shard_job(shard, schema, inum, caps,
                                        time_limit, faults,
                                        attempt_no[shard.position])))
                    for shard in remaining]
                failed_round: list[Shard] = []
                pool_broken = False
                for shard, future in futures:
                    # A broken pool resolves every pending future with
                    # BrokenProcessPool immediately, while siblings that
                    # finished before the crash keep their results — so
                    # every .result() below returns without blocking.
                    try:
                        results[shard.position] = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        failed_round.append(shard)
                    except Exception as exc:
                        if not default_retryable(exc):
                            raise
                        failed_round.append(shard)
                if pool_broken:
                    log_event(logging.WARNING, "shard_pool_broken",
                              round=round_no, workers=workers,
                              shards=[s.position for s in failed_round])
                    pool.shutdown(wait=False)
                    pool = ProcessPoolExecutor(max_workers=workers)
                if not failed_round:
                    break
                # A broken pool cannot attribute the crash to one shard, so
                # every unfinished shard advances its attempt — otherwise
                # the guilty shard would rerun at attempt 1 forever against
                # an attempt-keyed fault schedule.
                retry_next: list[Shard] = []
                for shard in failed_round:
                    position = shard.position
                    survived[position] += 1
                    if attempt_no[position] >= policy.max_attempts:
                        fallback.append(shard)
                    else:
                        attempt_no[position] += 1
                        retries[position] += 1
                        _retry_metric("shard_solve")
                        retry_next.append(shard)
                if retry_next:
                    delay = policy.backoff_delay(round_no, rng)
                    if budget is not None and (budget.expired()
                                               or not budget.can_spend(delay)):
                        # No wall clock left for another pool round: the
                        # inline fallback is the only recovery still allowed.
                        fallback.extend(retry_next)
                        retry_next = []
                    elif delay > 0:
                        time.sleep(delay)
                remaining = retry_next
                round_no += 1
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

        if fallback:
            if inum is None:
                inum = InumCache(WhatIfOptimizer(schema))
            for shard in sorted(fallback, key=lambda s: s.position):
                position = shard.position
                retries[position] += 1
                _retry_metric("shard_solve")
                log_event(logging.WARNING, "shard_fallback_inline",
                          shard=position, attempt=attempt_no[position] + 1)
                try:
                    result = _solve_shard_inline(
                        shard, inum, self.backend, self.gap_tolerance,
                        time_limit, fault_plan=faults,
                        attempt=attempt_no[position] + 1)
                except Exception as exc:
                    if not (self.degrade and default_retryable(exc)):
                        raise
                    survived[position] += 1
                    log_event(logging.WARNING, "shard_degraded",
                              shard=position, error=repr(exc))
                    results[position] = _failed_shard_result(
                        shard, exc, {"retries": retries[position],
                                     "survived": survived[position]})
                else:
                    results[position] = replace(result, recovered_inline=True)

        return tuple(
            replace(results[shard.position],
                    retries=retries[shard.position],
                    faults_survived=survived[shard.position])
            for shard in shards)

    def _shard_job(self, shard: Shard, schema: Schema,
                   inum: InumCache | None, caps,
                   time_limit: float | None, faults: FaultPlan | None,
                   attempt: int) -> tuple:
        # Worker-built entries come back only for shells the caller's cache
        # lacks right now: after gamma-signature compression pre-built the
        # whole workload, nothing is shipped.
        ship = frozenset() if inum is None else frozenset(
            shell.name for shell in inum.pending_shells(
                statement.query for statement in shard.workload))
        # The ambient trace id rides the job tuple so the worker records its
        # spans under the same trace as the request that dispatched it; the
        # dispatch timestamp is wall-clock (time.time) because perf_counter
        # epochs are not comparable across processes — the worker turns the
        # delta into the shard span's queue_wait_ms.
        return (schema, shard.position, shard.workload.statements,
                shard.candidates, shard.budget_bytes, self.backend.value,
                self.gap_tolerance, time_limit, caps, faults,
                attempt, current_trace_id(), time.time(), ship)


def _retry_metric(site: str) -> None:
    """Count one reliability-layer retry against the active registry."""
    active_registry().counter(
        "repro_retries_total",
        "Retries taken by the reliability layer", ("site",)).inc(site=site)


def _failed_shard_result(shard: Shard, exc: BaseException,
                         counters: dict[str, int]) -> ShardResult:
    return ShardResult(
        position=shard.position, indexes=(), objective=float("inf"),
        gap=float("inf"), solve_seconds=0.0,
        statistics={"statements": float(len(shard.workload)),
                    "candidates": float(len(shard.candidates))},
        retries=counters["retries"], faults_survived=counters["survived"],
        failed=True, failure=f"{type(exc).__name__}: {exc}")


# reprolint: requires-lock (inline path runs under the caller's context lock;
# the worker path operates on a process-local cache)
def _solve_shard_inline(shard: Shard, inum: InumCache,
                        backend: SolverBackend, gap_tolerance: float,
                        time_limit_seconds: float | None,
                        fault_plan: FaultPlan | None = None,
                        attempt: int = 1,
                        in_worker: bool = False,
                        queue_wait_ms: float | None = None) -> ShardResult:
    """Solve one shard reusing the caller's INUM cache (no process hop).

    The fault check fires *before* any optimizer work, so a retried attempt
    repeats exactly the work the failed one never did — optimizer-call
    accounting (and with it the result fingerprint) stays identical to a
    fault-free run.  ``queue_wait_ms`` is the dispatch-to-start gap a
    process-pool job measured; it lands on the shard span so a saturated
    worker pool is visible in the trace.
    """
    with span(f"shard[{shard.position}]", statements=len(shard.workload),
              candidates=len(shard.candidates), attempt=attempt,
              in_worker=in_worker) as shard_span:
        if queue_wait_ms is not None:
            shard_span.set(queue_wait_ms=round(queue_wait_ms, 3))
        maybe_check(fault_plan, "shard_solve", key=shard.position,
                    attempt=attempt, in_worker=in_worker)
        candidates = CandidateSet(inum.schema, shard.candidates)
        inum.prepare(shard.workload, candidates)
        bip = BipBuilder(inum).build(shard.workload, candidates,
                                     model_name=f"shard-{shard.position}-bip")
        constraints = ()
        if shard.budget_bytes is not None:
            constraints = (StorageBudgetConstraint(
                shard.budget_bytes,
                name=f"storage_budget[shard{shard.position}]"),)
        solver = CoPhySolver(backend=backend, gap_tolerance=gap_tolerance,
                             time_limit_seconds=time_limit_seconds)
        report = solver.solve(bip, hard_constraints=constraints)
        shard_span.set(gap=round(report.gap, 6), timed_out=report.timed_out,
                       indexes=len(report.configuration.indexes))
    return ShardResult(
        position=shard.position,
        indexes=report.configuration.indexes,
        objective=report.objective,
        gap=report.gap,
        solve_seconds=shard_span.seconds,
        timed_out=report.timed_out,
        statistics={
            "statements": float(len(shard.workload)),
            "candidates": float(len(shard.candidates)),
            "variables": bip.statistics.get("variables", 0.0),
            "constraints": bip.statistics.get("constraints", 0.0),
        },
    )


def _solve_shard_job(job: tuple) -> ShardResult:
    """Worker-side shard solve: rebuild the full stack from pickled inputs."""
    (schema, position, statements, indexes, budget_bytes, backend_value,
     gap_tolerance, time_limit_seconds, caps, fault_plan,
     attempt, trace_id, dispatch_ts, ship) = job
    queue_wait_ms = max(0.0, (time.time() - dispatch_ts) * 1000.0)
    plan = fault_plan if fault_plan is not None else armed_plan()
    optimizer = WhatIfOptimizer(schema)
    inum = InumCache(optimizer, max_orders_per_table=caps[0],
                     max_templates_per_query=caps[1])
    workload = Workload(statements, name=f"shard{position}")
    shard = Shard(position=position, workload=workload, candidates=indexes,
                  statement_positions=tuple(range(len(statements))),
                  budget_bytes=budget_bytes)
    # The worker records its own tracer under the caller's trace id; the
    # shard span opened inside _solve_shard_inline becomes its root and the
    # exported tree is pickled back for the advisor to graft into the
    # request trace.
    tracer = Tracer(trace_id) if trace_id is not None else None
    scope = (activate(tracer) if tracer is not None
             else contextlib.nullcontext())
    with scope:
        result = _solve_shard_inline(shard, inum,
                                     SolverBackend(backend_value),
                                     gap_tolerance, time_limit_seconds,
                                     fault_plan=plan, attempt=attempt,
                                     in_worker=True,
                                     queue_wait_ms=queue_wait_ms)
    # The caller's counters never saw this process's optimizer: report its
    # work so the advisor's whatif_calls metric covers the shard phase, and
    # return what it built so the caller never repeats it.
    result = replace(result,
                     worker_optimizer_calls=(optimizer.whatif_calls
                                             + inum.template_build_calls),
                     built=tuple(entry for entry in inum.export_built(workload)
                                 if entry[0].name in ship))
    if tracer is not None:
        result = replace(result, trace=tracer.export())
    return result


# --------------------------------------------------------- matrix build shards
def build_matrices_in_processes(cache: InumCache, shells: Sequence[Query],
                                indexes: tuple[Index, ...],
                                workers: int | None = None,
                                retry_policy: RetryPolicy | None = None,
                                fault_plan: FaultPlan | None = None) -> int:
    """Build pending gamma matrices in worker processes and adopt them.

    Only shells the cache has not built yet are dispatched; each worker
    constructs its own optimizer/cache from the pickled schema, builds its
    chunk of matrices (candidate columns included) and pickles them back.
    Adoption happens on the calling side in workload order.  Returns the
    number of shells built remotely.

    Worker failures are retried under ``retry_policy`` (a fresh pool per
    attempt); when retries are exhausted on a transient error the function
    returns 0 and the caller builds the matrices locally — the process pool
    is an accelerator, never a correctness dependency.
    """
    pending = list(cache.pending_shells(shells))
    workers = workers if workers is not None else (os.cpu_count() or 1)
    workers = min(workers, len(pending))
    if workers <= 1 or len(pending) < 2:
        return 0
    caps = cache.enumeration_caps
    chunks = [pending[offset::workers] for offset in range(workers)]
    plan = fault_plan if fault_plan is not None else armed_plan()
    policy = retry_policy if retry_policy is not None else RetryPolicy()

    def build_all(attempt: int) -> list:
        jobs = [(cache.schema, chunk, indexes, caps, plan, attempt)
                for chunk in chunks if chunk]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_build_matrices_job, jobs))

    def on_retry(attempt: int, exc: BaseException, delay: float) -> None:
        _retry_metric("matrix_build")
        log_event(logging.WARNING, "matrix_build_retry", attempt=attempt,
                  shells=len(pending), error=repr(exc),
                  delay=round(delay, 3))

    try:
        results = policy.call(build_all, on_retry=on_retry)
    except Exception as exc:
        if not default_retryable(exc):
            raise
        # Degraded, not silent: the caller rebuilds the matrices locally,
        # and the log records that the process pool was lost doing it.
        log_event(logging.WARNING, "matrix_build_degraded",
                  shells=len(pending), workers=workers, error=repr(exc))
        return 0
    by_name: dict[str, tuple[Query, tuple[TemplatePlan, ...],
                             QueryGammaMatrix]] = {}
    build_calls = 0
    for entries, calls in results:
        build_calls += calls
        for entry in entries:
            by_name[entry[0].name] = entry
    cache.adopt_built((by_name[shell.name] for shell in pending
                       if shell.name in by_name), build_calls=build_calls)
    return len(pending)


def _build_matrices_job(job: tuple) -> tuple[list, int]:
    """Worker-side matrix build for one chunk of query shells."""
    schema, shells, indexes, caps, fault_plan, attempt = job
    plan = fault_plan if fault_plan is not None else armed_plan()
    maybe_check(plan, "matrix_build", attempt=attempt, in_worker=True)
    optimizer = WhatIfOptimizer(schema)
    cache = InumCache(optimizer, max_orders_per_table=caps[0],
                      max_templates_per_query=caps[1])
    entries = [cache.build_entry(shell, indexes) for shell in shells]
    return entries, cache.template_build_calls
