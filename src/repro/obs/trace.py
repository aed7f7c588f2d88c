"""Request tracing: nested spans with monotonic durations and attributes.

One :class:`Tracer` records one request.  The facade
(:func:`repro.api.tuner.tune_in_context`) creates it, activates it on a
``contextvars`` context variable and opens the root ``tune`` span; every
deeper layer — advisors, interactive sessions, the shard executor — calls
the module-level :func:`span` helper, which nests under whatever span is
currently open.  The layers therefore carry no tracer parameters.

The span is also the pipeline's only stage clock.  :func:`span` always
yields a timed :class:`Span` whose ``seconds`` can be read after the block;
with no ambient tracer the span is *detached* — nothing retains or logs it
and ``is_recording`` is false — so an untraced stage costs what the
stopwatch it replaced did.  :func:`stage` books that reading into a
``timings`` dict, and :data:`STAGE_SPANS` is the one table binding the
payload's timing keys to the span names; spans are opened per stage, never
inside a solver or costing loop.

Trace identity and propagation:

* every trace has a ``trace_id`` (a 32-hex-char random id unless supplied);
* :func:`trace_context` plants a *pending* trace id that the next tracer
  created on the same thread/context inherits — the HTTP server sets it
  from the ``X-Repro-Trace-Id`` request header, and the client SDK sends
  that header from the same pending id (or a fresh one), which is how one
  id spans client → server → result;
* shard jobs carry the trace id into worker processes
  (:mod:`repro.scale.executor`); the worker builds its own tracer under the
  same id, and the finished worker span tree is pickled back and grafted
  into the parent trace with :func:`adopt`.

The exported payload (:meth:`Tracer.export`) is plain JSON data::

    {"trace_id": "…", "root": {"name": "tune", "duration_ms": 12.3,
                               "attrs": {…}, "children": […]}}

Durations are ``time.perf_counter`` deltas — monotonic, never wall-clock —
so they are timing-like jitter and are stripped from result fingerprints
along with the rest of the ``trace`` payload.
"""

from __future__ import annotations

import contextlib
import logging
import time
import tracemalloc
import uuid
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = ["STAGE_SPANS", "Span", "Tracer", "activate", "adopt",
           "current_span", "current_tracer", "current_trace_id",
           "new_trace_id", "pending_trace_id", "span", "stage",
           "trace_context"]

#: The tracer recording the current request (None = tracing off).
_ACTIVE: ContextVar["Tracer | None"] = ContextVar("repro_tracer",
                                                  default=None)
#: A trace id planted ahead of tracer creation (header/client propagation).
_PENDING: ContextVar[str | None] = ContextVar("repro_pending_trace_id",
                                              default=None)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


class Span:
    """One named, timed tree node of a trace.

    ``attrs`` hold whatever the instrumented layer reports (node counts,
    shard ids, retry attempts, …); :meth:`set` adds more after the span
    opened — typically outcomes known only once the stage finished.
    ``seconds`` is the span's elapsed time once it finished — the reading
    every ``timings`` entry is taken from.  ``is_recording`` tells whether
    a tracer keeps the span in its tree or it is a detached stopwatch.

    Resource accounting (PR 10): every span records the CPU seconds its
    thread spent inside it (``attrs["cpu_ms"]``, via ``time.thread_time`` —
    wall minus CPU is wait time, which is how a reader tells a contended
    span from a busy one).  With ``track_memory`` on *and* ``tracemalloc``
    tracing, the span also records the process peak-allocation delta over
    its own start (``attrs["mem_peak_kb"]``).
    """

    __slots__ = ("name", "attrs", "children", "is_recording", "_opened",
                 "_cpu_opened", "_mem_opened", "seconds")

    def __init__(self, name: str | None, attrs: dict[str, Any] | None = None,
                 track_memory: bool = False, recording: bool = True):
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs or {})
        #: Finished child spans (Span objects) or adopted payload dicts.
        self.children: list[Any] = []
        self.is_recording = recording
        self._opened = time.perf_counter()
        self._cpu_opened = time.thread_time()
        self._mem_opened = (tracemalloc.get_traced_memory()[0]
                            if track_memory and tracemalloc.is_tracing()
                            else None)
        self.seconds: float = 0.0

    @property
    def duration_ms(self) -> float:
        return self.seconds * 1000.0

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def finish(self) -> None:
        self.seconds = time.perf_counter() - self._opened
        cpu_ms = (time.thread_time() - self._cpu_opened) * 1000.0
        self.attrs["cpu_ms"] = round(cpu_ms, 3)
        if self._mem_opened is not None and tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1]
            self.attrs["mem_peak_kb"] = round(
                max(0.0, peak - self._mem_opened) / 1024.0, 1)

    def to_payload(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 3),
            "attrs": dict(self.attrs),
            "children": [child.to_payload() if isinstance(child, Span)
                         else child for child in self.children],
        }


class Tracer:
    """Records one request's span tree.

    A tracer is request-scoped and driven by one thread at a time (the
    service serializes each request's pipeline), so the open-span stack
    needs no locking.  Shard worker processes get their *own* tracer under
    the same trace id; their exported trees are grafted back with
    :func:`adopt`.
    """

    def __init__(self, trace_id: str | None = None,
                 track_memory: bool = False):
        self.trace_id = trace_id or pending_trace_id() or new_trace_id()
        #: Record per-span tracemalloc peak deltas (requires tracemalloc to
        #: be tracing; see ``repro.obs.profile.ensure_memory_tracking``).
        self.track_memory = bool(track_memory)
        self.root: Span | None = None
        self._stack: list[Span] = []

    # ------------------------------------------------------------------- spans
    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of the innermost open span (or the root)."""
        node = Span(name, attrs, track_memory=self.track_memory)
        if self._stack:
            self._stack[-1].children.append(node)
        elif self.root is None:
            self.root = node
        else:
            # A second top-level span (the tracer is being reused): keep one
            # tree by parenting it under the existing root.
            self.root.children.append(node)
        self._stack.append(node)
        _log_span_event("span_start", self.trace_id, node)
        try:
            yield node
        finally:
            node.finish()
            self._stack.pop()
            _log_span_event("span_end", self.trace_id, node)

    def adopt(self, payload: dict[str, Any] | None) -> None:
        """Graft an exported (sub)trace under the innermost open span.

        Worker processes export their span tree as a payload dict
        (:meth:`export`); the parent passes either the whole export or just
        its ``root`` node — both are accepted, and the worker's tree becomes
        a child of the span currently open here.
        """
        if not payload:
            return
        node = payload.get("root", payload)
        if not isinstance(node, dict) or "name" not in node:
            return
        target = self.current or self.root
        if target is not None:
            target.children.append(node)

    # ------------------------------------------------------------------ export
    def export(self) -> dict[str, Any] | None:
        """The finished (or partial) span tree as plain JSON data."""
        if self.root is None:
            return None
        if self._stack:
            # Partial export (a failed pipeline): close what is still open
            # so durations are meaningful in the logged trace.
            for node in self._stack:
                node.finish()
        return {"trace_id": self.trace_id, "root": self.root.to_payload()}


# ----------------------------------------------------------------- ambient API
@contextlib.contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` the ambient tracer for the duration of the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def current_tracer() -> Tracer | None:
    return _ACTIVE.get()


def current_span() -> Span | None:
    tracer = _ACTIVE.get()
    return tracer.current if tracer is not None else None


def current_trace_id() -> str | None:
    """The trace id of the request currently recording (None when idle)."""
    tracer = _ACTIVE.get()
    return tracer.trace_id if tracer is not None else None


@contextlib.contextmanager
def span(name: str | None, **attrs: Any) -> Iterator[Span]:
    """Open a timed span: on the ambient tracer's tree, else detached.

    The instrumentation call sites throughout the stack all go through
    here.  With no tracer active — or no ``name`` to file it under — the
    span is one nothing retains or logs: only its ``seconds`` outlive the
    block.
    """
    tracer = _ACTIVE.get()
    if tracer is not None and name is not None:
        with tracer.span(name, **attrs) as node:
            yield node
        return
    node = Span(name, attrs, recording=False)
    try:
        yield node
    finally:
        node.finish()


#: Payload timing key -> span name: the two public vocabularies of one
#: measurement.  ``total`` (an advisor's or session step's whole run) is not
#: a stage: its span is named by whoever owns the run, and stays detached
#: where the run's stages already are the nodes of the request's tree.
STAGE_SPANS: dict[str, str] = {
    "candidate_generation": "candidates",
    "inum": "prepare",
    "heuristic": "greedy",
    "build": "bip_build",
    "solve": "solve",
    "compress": "compress",
    "partition": "partition",
    "merge": "merge",
    "facade.prepare": "prepare",
    "facade.evaluate": "evaluate",
    "facade.total": "tune",
}


@contextlib.contextmanager
def stage(timings: dict[str, float], key: str, run: str | None = None,
          **attrs: Any) -> Iterator[Span]:
    """Run one pipeline stage under its span and book its reading.

    The span is named ``STAGE_SPANS[key]``; on exit — normal, early return
    or raise — its ``seconds`` are added to ``timings[key]``, so a stage
    that repeats sums.  ``stage(timings, "total", run)`` around the other
    stages is the whole run: traced as ``run`` when given, detached when not.
    """
    name = run if key == "total" else STAGE_SPANS[key]
    try:
        with span(name, **attrs) as node:
            yield node
    finally:
        timings[key] = timings.get(key, 0.0) + node.seconds


def adopt(payload: dict[str, Any] | None) -> None:
    """Graft an exported worker span tree into the ambient trace (no-op
    when tracing is off or the payload is empty)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.adopt(payload)


# --------------------------------------------------------------- id propagation
@contextlib.contextmanager
def trace_context(trace_id: str | None = None) -> Iterator[str]:
    """Plant a pending trace id for the duration of the block.

    The next :class:`Tracer` created in this context (and the client SDK's
    outgoing ``X-Repro-Trace-Id`` header) picks it up, which is how the
    HTTP server threads a client-supplied id into the pipeline and how a
    caller pins a known id for end-to-end correlation tests.
    """
    chosen = trace_id or new_trace_id()
    token = _PENDING.set(chosen)
    try:
        yield chosen
    finally:
        _PENDING.reset(token)


def pending_trace_id() -> str | None:
    return _PENDING.get()


# -------------------------------------------------------------------- logging
def _log_span_event(event: str, trace_id: str, node: Span) -> None:
    """Span start/end at DEBUG — guarded so tracing stays cheap by default."""
    from repro.obs.log import logger, log_event

    if not logger.isEnabledFor(logging.DEBUG):
        return
    fields: dict[str, Any] = {"span": node.name, "trace_id": trace_id}
    if event == "span_end":
        fields["duration_ms"] = round(node.duration_ms, 3)
    log_event(logging.DEBUG, event, **fields)
