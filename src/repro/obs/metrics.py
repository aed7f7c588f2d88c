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
:data:`DEFAULT_REGISTRY`.  Every family the stack records is declared once,
as a :class:`Family` row of the table :data:`FAMILIES` (name, kind, help,
labels, buckets, label domains): recording sites name their row
(``active_registry().family(CACHE_EVENTS).inc(...)``),
:func:`declare_standard_metrics` pre-registers the rows so ``/v1/metrics``
exposes them before the first request, and ``TuningService.stats()`` reads
its counters off one snapshot by row.

Label cardinality: each distinct label value materializes one sample series
per family, so every label of a row carries its closed domain
(``Family.domains``) — a literal tuple, or a zero-arg callable reading a
named source (``FAULT_SITES``, the advisor registry, the solve tiers,
``SolutionStatus``, the server's route patterns, ``http.HTTPStatus``).  A
family created from its row keys any value outside a domain as the one
series ``other``: a metric bug costs one series, never a failed request,
and ``tests/test_obs.py::TestFamilyTable`` holds every recording path to
zero ``other`` series.  Lock-wait histograms count *every* acquisition —
re-entrant and uncontended acquires record a zero wait, so ``_count``
doubles as the acquisition rate.

Histograms optionally carry one *exemplar* per label set — the trace id of
the slowest observation so far (``observe(value, exemplar=trace_id)``).
Exemplars surface only through :meth:`MetricsRegistry.snapshot` (and from
there ``/v1/stats``); :meth:`MetricsRegistry.render` stays plain Prometheus
text exposition, which the CI grammar check pins.

Raw request data — statement names, schema names, paths, anything
interpolated into a string — belongs in a log event or a trace span
attribute, never in a label.
"""

from __future__ import annotations

import contextlib
import math
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "Family",
           "FAMILIES", "OTHER", "DEFAULT_REGISTRY", "METRICS_CONTENT_TYPE",
           "active_registry", "declare_standard_metrics",
           "histogram_quantiles", "use_registry"]

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


#: The one series a family created from its row keys every out-of-domain
#: label value as.
OTHER = "other"


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
        # The row's domains (set by MetricsRegistry.family), read on first
        # miss — a callable's source is imported lazily — and re-read on
        # each miss, so a source that grew (a newly registered advisor) is
        # admitted.
        self._row: Family | None = None
        self._admitted = [frozenset()] * len(labelnames)

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"Metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        if self._row is None or all(
                map(frozenset.__contains__, self._admitted, key)):
            return key
        return tuple(map(self._bound, range(len(key)), key))

    def _bound(self, position: int, value: str) -> str:
        if value not in self._admitted[position]:
            self._admitted[position] = self._row.domain(
                self.labelnames[position])
        return value if value in self._admitted[position] else OTHER


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


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


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

    def family(self, row: "Family") -> Any:
        """The family declared by a :data:`FAMILIES` row (get-or-create),
        keying out-of-domain label values as :data:`OTHER`."""
        cls = _KINDS[row.kind]
        kwargs = {"buckets": row.buckets} if cls is Histogram else {}
        return self._get_or_create(cls, row.name, row.help, row.labelnames,
                                   row=row, **kwargs)

    def _get_or_create(self, cls, name: str, help_text: str,
                       labelnames: tuple[str, ...],
                       row: Family | None = None, **kwargs) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, labelnames, self._lock, **kwargs)
                metric._row = row
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


# ------------------------------------------------------------ the family table
#: A label's closed value set: literal values, or a zero-arg callable reading
#: a named source.
Domain = Union[tuple[str, ...], Callable[[], Iterable[str]]]


@dataclass(frozen=True)
class Family:
    """One row of the family table; ``buckets`` is for histograms only and
    ``domains`` holds one :data:`Domain` per label name."""

    name: str
    kind: str  # the Prometheus type: counter, gauge or histogram
    help: str
    labelnames: tuple[str, ...] = ()
    buckets: tuple[float, ...] = ()
    domains: tuple[Domain, ...] = ()

    def domain(self, label: str) -> frozenset[str]:
        """The values ``label`` may take, read from its source now."""
        source = self.domains[self.labelnames.index(label)]
        return frozenset(source() if callable(source) else source)


# The named sources are imported when first read, so this module imports
# none of the layers that record into it.
def _advisors() -> set[str]:
    from repro.api.registry import available_advisors, canonical_name
    return {canonical_name(name) for name in available_advisors()}


def _solve_tiers() -> tuple[str, ...]:
    from repro.lp.budget import SOLVE_TIERS
    return SOLVE_TIERS + ("none",)


def _solution_statuses() -> list[str]:
    from repro.lp.solution import SolutionStatus
    return [status.value for status in SolutionStatus]


def _fault_sites() -> tuple[str, ...]:
    from repro.reliability.faults import FAULT_SITES
    return FAULT_SITES


def _retry_sites() -> tuple[str, ...]:
    return _fault_sites() + ("http_client",)


def _endpoints() -> tuple[str, ...]:
    from repro.server.app import ENDPOINT_PATTERNS
    return ENDPOINT_PATTERNS + ("unknown",)


def _http_statuses() -> list[str]:
    from http import HTTPStatus
    return [str(status.value) for status in HTTPStatus]


REQUESTS = Family("repro_requests_total", "counter",
                  "Tuning requests served through the facade",
                  ("advisor", "tier", "status"),
                  domains=(_advisors, _solve_tiers,
                           ("ok", "degraded", "error")))
REQUEST_SECONDS = Family("repro_request_seconds", "histogram",
                         "End-to-end facade latency per tuning request",
                         ("advisor",), SECONDS_BUCKETS, (_advisors,))
RESULT_RETRIES = Family("repro_result_retries_total", "counter",
                        "Reliability-layer retries reported by served results")
NAMESPACED_REQUESTS = Family("repro_namespaced_requests_total", "counter",
                             "Requests whose statements were auto-namespaced")
SESSIONS_REAPED = Family("repro_sessions_reaped_total", "counter",
                         "Interactive sessions reaped by idle TTL")
OVERLOAD_REJECTED = Family("repro_overload_rejected_total", "counter",
                           "Requests rejected by admission control (429)")
DEGRADED = Family("repro_degraded_total", "counter",
                  "Served results flagged degraded (lost shards)")
PENDING_REQUESTS = Family("repro_pending_requests", "gauge",
                          "Requests admitted but not yet finished")
CONTEXTS_DROPPED = Family("repro_contexts_dropped_total", "counter",
                          "Schema contexts dropped, by reason (lru or ttl)",
                          ("reason",), domains=(("lru", "ttl"),))
SOLVER_SOLVES = Family("repro_solver_solves_total", "counter",
                       "HiGHS solves by terminal status", ("status",),
                       domains=(_solution_statuses,))
SOLVER_NODES = Family("repro_solver_nodes", "histogram",
                      "Nodes explored per HiGHS solve",
                      buckets=NODES_BUCKETS)
SOLVER_GAP = Family("repro_solver_gap", "histogram",
                    "Relative optimality gap per finished HiGHS solve",
                    buckets=GAP_BUCKETS)
SOLVER_STARTS = Family("repro_solver_starts_total", "counter",
                       "Starts offered to HiGHS, by whether they satisfied "
                       "the program and were handed on", ("outcome",),
                       domains=(("accepted", "rejected"),))
LOCK_WAIT_SECONDS = Family("repro_lock_wait_seconds", "histogram",
                           "Seconds callers waited to acquire a named lock",
                           ("lock",), WAIT_BUCKETS,
                           (("schema_context", "inum_metrics"),))
QUEUE_WAIT_SECONDS = Family("repro_queue_wait_seconds", "histogram",
                            "Seconds requests waited in the service pool "
                            "queue", buckets=WAIT_BUCKETS)
CACHE_EVENTS = Family("repro_cache_events_total", "counter",
                      "Hits and misses of the tuning-stack caches",
                      ("cache", "event"),
                      domains=(("template", "tensor", "bip", "candidates",
                                "canonical_workload", "schema_payload"),
                               ("hit", "miss", "unknown_digest")))
RETRIES = Family("repro_retries_total", "counter",
                 "Retries taken by the reliability layer, by site", ("site",),
                 domains=(_retry_sites,))
FAULTS_INJECTED = Family("repro_faults_injected_total", "counter",
                         "Fault-plan injections observed in this process",
                         ("site",), domains=(_fault_sites,))
HTTP_REQUESTS = Family("repro_http_requests_total", "counter",
                       "HTTP requests served by the tuning server",
                       ("endpoint", "method", "status"),
                       domains=(_endpoints, ("GET", "POST", "DELETE"),
                                _http_statuses))
HTTP_REQUEST_SECONDS = Family("repro_http_request_seconds", "histogram",
                              "HTTP dispatch latency by endpoint",
                              ("endpoint",), SECONDS_BUCKETS, (_endpoints,))

#: The family table: every family the stack records, declared once above.
FAMILIES: tuple[Family, ...] = (
    REQUESTS, REQUEST_SECONDS, RESULT_RETRIES, NAMESPACED_REQUESTS,
    SESSIONS_REAPED, OVERLOAD_REJECTED, DEGRADED, PENDING_REQUESTS,
    CONTEXTS_DROPPED, SOLVER_SOLVES, SOLVER_NODES, SOLVER_GAP, SOLVER_STARTS,
    LOCK_WAIT_SECONDS, QUEUE_WAIT_SECONDS, CACHE_EVENTS, RETRIES,
    FAULTS_INJECTED, HTTP_REQUESTS, HTTP_REQUEST_SECONDS)


def declare_standard_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Pre-register every row of :data:`FAMILIES`, so ``GET /v1/metrics``
    exposes the full schema (empty families render as ``# HELP`` / ``# TYPE``
    headers) from the moment the server starts and scrapers never see a
    shifting metric set."""
    for row in FAMILIES:
        registry.family(row)
    return registry
