"""A labelled metrics registry with Prometheus text exposition (stdlib-only).

One :class:`MetricsRegistry` holds counter/gauge/histogram *families*; a
family is keyed by metric name, carries fixed label names, and stores one
sample per label-value combination.  All mutation and reading happens under
one registry lock, so :meth:`MetricsRegistry.snapshot` is an atomic view of
every counter at one instant — which is exactly what
``TuningService.stats()`` needs to never serve torn reads — and
:meth:`MetricsRegistry.render` emits the standard Prometheus text format
(``# HELP`` / ``# TYPE`` / sample lines) for ``GET /v1/metrics``.

Like the tracer, the registry is ambient: the facade activates the owning
:class:`~repro.api.tuner.Tuner`'s registry around each request
(:func:`use_registry`), deep layers record through :func:`active_registry`,
and code running outside any request falls back to the process-wide
:data:`DEFAULT_REGISTRY`.  Metric families are get-or-create, so call sites
simply declare name/help/labels inline; :func:`declare_standard_metrics`
pre-registers the stack's standard families so ``/v1/metrics`` exposes them
(as empty families) even before the first request.

Label cardinality contract (enforced by the ``metric-label-cardinality``
reprolint rule): every label value must come from a *bounded* set, because
each distinct value materializes one sample series per family.  The bounded
domains and where each is pinned:

* ``advisor`` — names in the advisor registry (``repro.api.registry``).
* ``site`` — ``FAULT_SITES`` in ``repro.reliability.faults`` (plus the
  literal ``http_client``).
* ``tier`` / ``solve_tier`` — the anytime solve tiers, validated on
  ``SolveBudget`` construction.
* ``endpoint`` — route *patterns* from ``repro.server.app._endpoint_pattern``
  (never raw request paths).
* ``method`` / ``status`` — HTTP verbs and status codes.
* ``cache`` — the caches of ``repro_cache_events_total``: ``template``,
  ``tensor``, ``bip`` (the per-workload BIP kept beside the tensor),
  ``candidates`` (generated candidate indexes per workload),
  ``canonical_workload``, ``schema_payload``.
* ``event`` / ``outcome`` / ``kind`` / ``stage`` — short literal event names
  at the call site.
* ``lock`` — :class:`~repro.obs.profile.InstrumentedLock` names, fixed at
  construction (``schema_context``, ``inum_metrics``).  Lock-wait histograms
  count *every* acquisition — re-entrant and uncontended acquires record a
  zero wait, so ``_count`` doubles as the acquisition rate.

Histograms optionally carry one *exemplar* per label set — the trace id of
the slowest observation so far (``observe(value, exemplar=trace_id)``).
Exemplars surface only through :meth:`MetricsRegistry.snapshot` (and from
there ``/v1/stats``); :meth:`MetricsRegistry.render` stays plain Prometheus
text exposition, which the CI grammar check pins.

Raw request data — statement names, schema names, paths, anything
interpolated into a string — must never become a label value; put it in a
log event or a trace span attribute instead.
"""

from __future__ import annotations

import math
import threading
from contextvars import ContextVar
from typing import Any, Iterator

import contextlib

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_REGISTRY", "METRICS_CONTENT_TYPE", "active_registry",
           "declare_standard_metrics", "histogram_quantiles", "use_registry"]

#: Content type of the Prometheus text exposition format, as scrapers expect.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default histogram buckets for second-valued latencies.
SECONDS_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0)
#: Buckets for solver node counts.
NODES_BUCKETS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0)
#: Buckets for relative optimality gaps.
GAP_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)
#: Finer sub-second buckets for lock/queue wait times — contention waits are
#: usually far below request latency, so SECONDS_BUCKETS would flatten them.
WAIT_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                1.0, 2.5, 5.0, 10.0)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_text(names: tuple[str, ...], values: tuple[str, ...],
                extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{name}="{_escape_label(value)}"'
             for name, value in zip(names, values)]
    pairs.extend(f'{name}="{_escape_label(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Metric:
    """Common family machinery: fixed label names, per-labelset samples."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: tuple[str, ...], lock: threading.Lock):
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._lock = lock
        self._samples: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"Metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(_Metric):
    """A monotonically increasing value per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))

    def total(self) -> float:
        """Sum over every label combination (the registry-view rollup)."""
        with self._lock:
            return float(sum(self._samples.values()))

    def _render(self) -> list[str]:
        return [f"{self.name}{_label_text(self.labelnames, key)} "
                f"{_format_value(value)}"
                for key, value in sorted(self._samples.items())]


class Gauge(_Metric):
    """A value that can go up and down per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))

    _render = Counter._render


class Histogram(_Metric):
    """Cumulative-bucket histogram per label set (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: tuple[str, ...], lock: threading.Lock,
                 buckets: tuple[float, ...] = SECONDS_BUCKETS):
        super().__init__(name, help_text, labelnames, lock)
        self.buckets = tuple(sorted(float(bound) for bound in buckets))
        if not self.buckets:
            raise ValueError("histograms need at least one bucket bound")

    def observe(self, value: float, exemplar: str | None = None,
                **labels: Any) -> None:
        """Record one observation; ``exemplar`` optionally attaches a trace
        id, and the slowest observation's exemplar wins (the one a reader of
        the latency histogram wants to drill into)."""
        key = self._key(labels)
        value = float(value)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                sample = {"counts": [0] * (len(self.buckets) + 1),
                          "sum": 0.0, "count": 0}
                self._samples[key] = sample
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    sample["counts"][position] += 1
                    break
            else:
                sample["counts"][-1] += 1
            sample["sum"] += value
            sample["count"] += 1
            if exemplar is not None:
                held = sample.get("exemplar")
                if held is None or value >= held["value"]:
                    sample["exemplar"] = {"trace_id": str(exemplar),
                                          "value": value}

    def count(self, **labels: Any) -> int:
        key = self._key(labels)
        with self._lock:
            sample = self._samples.get(key)
            return 0 if sample is None else int(sample["count"])

    def sum(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            sample = self._samples.get(key)
            return 0.0 if sample is None else float(sample["sum"])

    def _render(self) -> list[str]:
        lines: list[str] = []
        for key, sample in sorted(self._samples.items()):
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, sample["counts"]):
                cumulative += bucket_count
                lines.append(
                    f"{self.name}_bucket"
                    f"{_label_text(self.labelnames, key, (('le', _format_value(bound)),))}"
                    f" {cumulative}")
            cumulative += sample["counts"][-1]
            lines.append(
                f"{self.name}_bucket"
                f"{_label_text(self.labelnames, key, (('le', '+Inf'),))}"
                f" {cumulative}")
            lines.append(f"{self.name}_sum{_label_text(self.labelnames, key)} "
                         f"{_format_value(sample['sum'])}")
            lines.append(f"{self.name}_count"
                         f"{_label_text(self.labelnames, key)} "
                         f"{sample['count']}")
        return lines


class MetricsRegistry:
    """Get-or-create metric families behind one lock.

    The single lock makes every read — including the full
    :meth:`snapshot` / :meth:`render` — atomic against concurrent updates
    from serving threads, at the cost of one uncontended acquire per metric
    operation (cheap next to any optimizer call).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # ------------------------------------------------------------ registration
    def counter(self, name: str, help_text: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text,
                                   tuple(labelnames))

    def gauge(self, name: str, help_text: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, tuple(labelnames))

    def histogram(self, name: str, help_text: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = SECONDS_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help_text,
                                   tuple(labelnames), buckets=buckets)

    def _get_or_create(self, cls, name: str, help_text: str,
                       labelnames: tuple[str, ...], **kwargs) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, labelnames, self._lock, **kwargs)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"Metric {name!r} is already registered as a "
                f"{metric.kind}, not a {cls.kind}")
        if metric.labelnames != labelnames:
            raise ValueError(
                f"Metric {name!r} is already registered with labels "
                f"{metric.labelnames}, not {labelnames}")
        return metric

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    # ---------------------------------------------------------------- reading
    def snapshot(self) -> dict[str, dict[tuple[str, ...], Any]]:
        """Every sample of every family, read under one lock acquisition.

        Histograms snapshot as ``{"sum": float, "count": int, "buckets":
        [[bound, cumulative_count], ...]}`` per label set — the buckets are
        *cumulative* (Prometheus ``le`` semantics) and always end with the
        ``[inf, count]`` overflow entry, so percentiles are computable from
        one atomic snapshot (:func:`histogram_quantiles`).  A retained
        exemplar rides along as ``{"trace_id", "value"}``.  Counters and
        gauges snapshot as plain floats.
        """
        with self._lock:
            out: dict[str, dict[tuple[str, ...], Any]] = {}
            for name, metric in self._metrics.items():
                if isinstance(metric, Histogram):
                    out[name] = {key: self._histogram_sample(metric, sample)
                                 for key, sample in metric._samples.items()}
                else:
                    out[name] = dict(metric._samples)
            return out

    @staticmethod
    def _histogram_sample(metric: "Histogram",
                          sample: dict[str, Any]) -> dict[str, Any]:
        buckets: list[list[float]] = []
        cumulative = 0
        for bound, bucket_count in zip(metric.buckets, sample["counts"]):
            cumulative += bucket_count
            buckets.append([bound, cumulative])
        buckets.append([math.inf, sample["count"]])
        view: dict[str, Any] = {"sum": sample["sum"],
                                "count": sample["count"],
                                "buckets": buckets}
        exemplar = sample.get("exemplar")
        if exemplar is not None:
            view["exemplar"] = dict(exemplar)
        return view

    def render(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            families = sorted(self._metrics.items())
            lines: list[str] = []
            for name, metric in families:
                help_text = metric.help or name
                lines.append(f"# HELP {name} "
                             + help_text.replace("\\", "\\\\")
                                        .replace("\n", "\\n"))
                lines.append(f"# TYPE {name} {metric.kind}")
                lines.extend(metric._render())
            return "\n".join(lines) + "\n"


def histogram_quantiles(sample: dict[str, Any],
                        quantiles: tuple[float, ...]) -> list[float | None]:
    """Quantile estimates from one snapshot histogram sample.

    Standard Prometheus ``histogram_quantile`` semantics: linear
    interpolation inside the bucket containing the target rank, with the
    first bucket's lower edge at 0.  A rank landing in the ``+Inf`` overflow
    bucket answers the highest finite bound (the estimate is then a floor,
    exactly as Prometheus reports it).  Returns ``None`` per quantile when
    the sample holds no observations.
    """
    buckets = sample.get("buckets") or []
    count = int(sample.get("count", 0))
    results: list[float | None] = []
    for quantile in quantiles:
        if count <= 0 or not buckets:
            results.append(None)
            continue
        rank = max(0.0, min(1.0, float(quantile))) * count
        previous_bound, previous_cumulative = 0.0, 0
        estimate: float | None = None
        for bound, cumulative in buckets:
            if cumulative >= rank and cumulative > previous_cumulative:
                if math.isinf(bound):
                    estimate = previous_bound
                else:
                    fraction = ((rank - previous_cumulative)
                                / (cumulative - previous_cumulative))
                    estimate = (previous_bound
                                + (bound - previous_bound) * fraction)
                break
            previous_bound, previous_cumulative = bound, cumulative
        if estimate is None:  # rank == 0 in a non-empty sample
            estimate = 0.0
        results.append(estimate)
    return results


#: Fallback registry for code running outside any request/service scope.
DEFAULT_REGISTRY = MetricsRegistry()

_ACTIVE_REGISTRY: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_metrics_registry", default=None)


def active_registry() -> MetricsRegistry:
    """The ambient registry (the owning Tuner's during a request)."""
    registry = _ACTIVE_REGISTRY.get()
    return registry if registry is not None else DEFAULT_REGISTRY


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the ambient registry for the duration of the block."""
    token = _ACTIVE_REGISTRY.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE_REGISTRY.reset(token)


# --------------------------------------------------------- standard families
def declare_standard_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Pre-register the stack's standard metric families.

    Families only exist once first touched; declaring them up front makes
    ``GET /v1/metrics`` expose the full schema (empty families render as
    ``# HELP`` / ``# TYPE`` headers) from the moment the server starts, so
    scrapers and dashboards never see a shifting metric set.
    """
    registry.counter("repro_requests_total",
                     "Tuning requests served through the facade",
                     ("advisor", "tier", "status"))
    registry.histogram("repro_request_seconds",
                       "End-to-end facade latency per tuning request",
                       ("advisor",))
    registry.counter("repro_result_retries_total",
                     "Reliability-layer retries reported by served results")
    registry.counter("repro_namespaced_requests_total",
                     "Requests whose statements were auto-namespaced")
    registry.counter("repro_sessions_reaped_total",
                     "Interactive sessions reaped by idle TTL")
    registry.counter("repro_overload_rejected_total",
                     "Requests rejected by admission control (429)")
    registry.counter("repro_degraded_total",
                     "Served results flagged degraded (lost shards)")
    registry.gauge("repro_pending_requests",
                   "Requests admitted but not yet finished")
    registry.counter("repro_solver_solves_total",
                     "Branch-and-bound solves by terminal status",
                     ("status",))
    registry.histogram("repro_solver_nodes",
                       "Nodes explored per branch-and-bound solve",
                       buckets=NODES_BUCKETS)
    registry.histogram("repro_solver_gap",
                       "Relative optimality gap per solve",
                       buckets=GAP_BUCKETS)
    registry.histogram("repro_lock_wait_seconds",
                       "Seconds callers waited to acquire a named lock",
                       ("lock",), buckets=WAIT_BUCKETS)
    registry.histogram("repro_queue_wait_seconds",
                       "Seconds requests waited in the service pool queue",
                       buckets=WAIT_BUCKETS)
    registry.counter("repro_cache_events_total",
                     "Hits and misses of the tuning-stack caches",
                     ("cache", "event"))
    registry.counter("repro_retries_total",
                     "Retries taken by the reliability layer, by site",
                     ("site",))
    registry.counter("repro_faults_injected_total",
                     "Fault-plan injections observed in this process",
                     ("site",))
    registry.counter("repro_http_requests_total",
                     "HTTP requests served by the tuning server",
                     ("endpoint", "method", "status"))
    registry.histogram("repro_http_request_seconds",
                       "HTTP dispatch latency by endpoint",
                       ("endpoint",))
    return registry
