"""One observability layer for the whole tuning stack (PR 8).

Three pillars, all stdlib-only and all ambient (no signature churn through
the advisor/solver layers):

* :mod:`repro.obs.trace` — a :class:`Tracer` producing nested spans with
  monotonic durations and attributes.  The active tracer travels via a
  ``contextvars`` context variable, so deep layers call the module-level
  :func:`~repro.obs.trace.span` helper, which times the block either way
  and keeps the span only when a tracer is recording.  The span is the
  pipeline's one stage clock: :func:`~repro.obs.trace.stage` books a stage
  span's seconds under its ``timings`` key
  (:data:`~repro.obs.trace.STAGE_SPANS` binds the two names), so the
  ``timings`` of a result are readings of the spans of its trace.
  A per-request ``trace_id`` propagates over the wire
  in the ``X-Repro-Trace-Id`` header and into shard worker processes; the
  finished span tree is exported in ``TuningResult.extras["trace"]`` and —
  like timings — excluded from ``fingerprint()``.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labelled
  counters, gauges and histograms with Prometheus text exposition
  (``GET /v1/metrics``).  Each :class:`~repro.api.tuner.Tuner` owns one
  registry; it is activated alongside the tracer so solver/cache/executor
  layers record into the registry of whichever request is running.
* :mod:`repro.obs.log` — structured JSON logging with trace-id correlation
  and a ``REPRO_LOG_LEVEL`` / ``log_level=`` knob.  The silent
  except-and-degrade paths of the scale executor and the HTTP server now
  emit warnings through it, so degradations are never invisible.

Performance introspection (PR 10) builds on those pillars:

* :mod:`repro.obs.profile` — :class:`InstrumentedLock` wait-time accounting
  (``repro_lock_wait_seconds{lock}``), pool queue-wait accounting
  (``repro_queue_wait_seconds``), per-request CPU/peak-memory attributes on
  every span, and opt-in sampled ``cProfile`` capture
  (``Tuner(profile_every=N)``) whose hotspot table rides
  ``extras["profile"]`` — volatile and fingerprint-excluded, like the trace.
* :mod:`repro.obs.store` — :class:`TraceStore`, a bounded thread-safe ring
  of recent completed traces with slow-request pinning
  (``slow_threshold_ms``), served at ``GET /v1/traces`` and
  ``GET /v1/traces/{id}`` and correlated to the metrics through exemplar
  trace ids on the latency histograms.
* :mod:`repro.obs.report` — ``python -m repro.obs.report`` renders a stored
  or exported trace as a flame-style span/hotspot summary.
* :func:`repro.obs.metrics.histogram_quantiles` — streaming p50/p95/p99
  from one atomic histogram snapshot; the service surfaces per-advisor
  latency SLOs in ``/v1/stats`` with it.

Typical usage::

    tuner = Tuner(trace_store_size=128, slow_threshold_ms=250.0,
                  profile_every=20)
    result = tuner.tune(request)          # result.extras may carry "profile"
    tuner.trace_store.summaries(5)        # the last five requests
"""

from repro.obs.log import configure as configure_logging
from repro.obs.log import log_event
from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    histogram_quantiles,
    use_registry,
)
from repro.obs.profile import (
    InstrumentedLock,
    ProfileSampler,
    drain_pending_waits,
    ensure_memory_tracking,
    note_queue_wait,
)
from repro.obs.store import TraceStore
from repro.obs.trace import (
    Tracer,
    activate,
    adopt,
    current_trace_id,
    new_trace_id,
    span,
    stage,
    trace_context,
)

__all__ = [
    "InstrumentedLock",
    "MetricsRegistry",
    "ProfileSampler",
    "TraceStore",
    "Tracer",
    "activate",
    "active_registry",
    "adopt",
    "configure_logging",
    "current_trace_id",
    "drain_pending_waits",
    "ensure_memory_tracking",
    "histogram_quantiles",
    "log_event",
    "new_trace_id",
    "note_queue_wait",
    "span",
    "stage",
    "trace_context",
    "use_registry",
]
