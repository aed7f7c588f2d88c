"""Contention accounting and resource profiling primitives (PR 10).

Three pieces, all stdlib-only:

* :class:`InstrumentedLock` — a named wrapper around a ``threading``
  lock that measures how long each acquirer *waited* (held time is what the
  span tree already shows; waited time is what a lock-split decision needs).
  Every acquisition lands in the ambient registry's
  ``repro_lock_wait_seconds{lock}`` histogram — uncontended and re-entrant
  acquires record a zero wait, so the ``_count`` series doubles as the
  acquisition rate — and positive waits additionally accumulate in a
  thread-local so the request's root span can carry a ``lock_wait_ms``
  attribute (:func:`drain_pending_waits`).
* :func:`note_queue_wait` — the service's thread pool records how long an
  admitted request sat queued before a worker picked it up; drained into the
  root span the same way (``queue_wait_ms``).
* :class:`ProfileSampler` — opt-in sampled ``cProfile`` capture
  (``Tuner(profile_every=N)``): every Nth request runs under a profiler and
  its top-N hotspot table (:meth:`ProfileSampler.hotspots`) rides
  ``TuningResult.extras["profile"]`` — volatile and fingerprint-excluded,
  like the trace.

The wait accumulator is per-thread on purpose: a pool thread serves one
request at a time, the facade drains the accumulator when the root span
opens (attributing the context-lock and queue waits that preceded it) and
discards any residue when the request finishes, so waits never leak across
requests that reuse the thread.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import threading
import time
import tracemalloc
from typing import Any

from repro.obs.metrics import LOCK_WAIT_SECONDS, active_registry

__all__ = ["InstrumentedLock", "ProfileSampler", "drain_pending_waits",
           "ensure_memory_tracking", "note_queue_wait"]


class InstrumentedLock:
    """A named lock recording wait-time per acquisition.

    Wraps an ``RLock`` by default (the schema-context lock is re-entrant);
    pass ``lock=threading.Lock()`` for plain mutexes.  The fast path tries a
    non-blocking acquire first, so an uncontended acquisition costs one
    extra histogram observe and no second clock read.

    ``name`` becomes the bounded ``lock`` label value — construct these with
    literal names only (see the label-cardinality contract in
    :mod:`repro.obs.metrics`).
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str, lock: Any = None):
        self.name = name
        self._lock = lock if lock is not None else threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._lock.acquire(blocking=False):
            self._record(0.0)
            return True
        if not blocking:
            return False
        started = time.perf_counter()
        acquired = self._lock.acquire(True, timeout)
        if acquired:
            self._record(time.perf_counter() - started)
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def _record(self, waited: float) -> None:
        active_registry().family(LOCK_WAIT_SECONDS).observe(waited,
                                                            lock=self.name)
        if waited > 0.0:
            _note_wait("lock_wait_s", waited)


# ------------------------------------------------------- per-request waits
_PENDING_WAITS = threading.local()


def _note_wait(key: str, seconds: float) -> None:
    waits = getattr(_PENDING_WAITS, "waits", None)
    if waits is None:
        waits = _PENDING_WAITS.waits = {}
    waits[key] = waits.get(key, 0.0) + seconds


def note_queue_wait(seconds: float) -> None:
    """Accumulate pool-queue wait for attribution to the next root span."""
    _note_wait("queue_wait_s", seconds)


def drain_pending_waits() -> dict[str, float]:
    """Take (and clear) this thread's accumulated waits.

    Called by the facade when the root span opens — the returned
    ``lock_wait_s`` / ``queue_wait_s`` seconds become root-span attributes —
    and again, discarding, when the request finishes.
    """
    waits = getattr(_PENDING_WAITS, "waits", None)
    if not waits:
        return {}
    _PENDING_WAITS.waits = {}
    return waits


def ensure_memory_tracking() -> None:
    """Start ``tracemalloc`` if it is not already tracing (idempotent)."""
    if not tracemalloc.is_tracing():
        tracemalloc.start()


class ProfileSampler:
    """Thread-safe every-Nth-request ``cProfile`` sampling.

    The first request is always captured (``every=1`` profiles everything),
    so a single smoke request is enough to exercise the whole path.
    """

    def __init__(self, every: int, top: int = 10):
        if every < 1:
            raise ValueError("profile_every must be >= 1 (or None to disable)")
        if top < 1:
            raise ValueError("top must be positive")
        self.every = int(every)
        #: Hotspot rows kept per capture — the capacity bound on everything
        #: this sampler retains (the raw profile dies with the request).
        self.top = int(top)
        self._lock = threading.Lock()
        self._count = 0

    def should_capture(self) -> bool:
        with self._lock:
            self._count += 1
            return (self._count - 1) % self.every == 0

    def hotspots(self, profile: cProfile.Profile) -> dict[str, Any]:
        """The top-N hotspot table of one finished capture (JSON data)."""
        stats = pstats.Stats(profile)
        rows = []
        for (filename, lineno, funcname), entry in stats.stats.items():
            _, ncalls, tottime, cumtime, _ = entry
            rows.append({
                "function": funcname,
                "file": f"{os.path.basename(filename)}:{lineno}",
                "calls": int(ncalls),
                "tottime_ms": round(tottime * 1000.0, 3),
                "cumtime_ms": round(cumtime * 1000.0, 3),
            })
        rows.sort(key=lambda row: (-row["tottime_ms"], row["function"]))
        return {"engine": "cProfile", "sort": "tottime",
                "top": rows[:self.top]}
