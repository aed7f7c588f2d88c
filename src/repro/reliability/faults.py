"""Deterministic fault injection for the tuning stack (PR 7).

A :class:`FaultPlan` is a seeded, replayable schedule of failures.  Code on
the hot paths of the three execution layers calls ``plan.check(site, ...)``
at a named **fault site**; the plan decides — deterministically, from its
rules, seed and per-site call counters — whether that call crashes, stalls,
or kills its worker process.  Because the decision is a pure function of the
plan (never of wall-clock time or global randomness), a failing chaos run
can be replayed exactly by re-arming the same plan.

Fault sites wired through the stack:

* ``shard_solve``  — one per-shard BIP solve (key: shard position), both in
  worker processes and on the inline path;
* ``http_request`` — one client-side HTTP call (key: URL path);
* ``solver``       — the advisor invocation inside
  ``Tuner.tune_in_context`` (key: canonical advisor name).

Activation, strongest first:

1. an explicit ``fault_plan=...`` argument (``Tuner``, ``ShardExecutor``,
   ``TuningClient``) — also how tests stay hermetic under the chaos lane:
   passing an empty ``FaultPlan()`` masks any armed/env plan;
2. a process-wide plan armed via :func:`arm` / the :func:`armed` context
   manager;
3. the ``REPRO_FAULT_PLAN`` environment variable (a JSON plan), which worker
   processes inherit — the chaos CI lane's switch.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.exceptions import ReproError

__all__ = ["ENV_VAR", "FAULT_SITES", "FaultRule", "FaultPlan",
           "InjectedFault", "arm", "disarm", "armed", "armed_plan"]

#: Environment variable holding a JSON-encoded plan for the chaos CI lane.
ENV_VAR = "REPRO_FAULT_PLAN"

#: The named fault sites wired through the stack.
FAULT_SITES = ("shard_solve", "http_request", "solver")

_ACTIONS = ("raise", "latency", "kill")

#: Worker-process exit code of a ``kill`` fault (recognizable in CI logs).
KILL_EXIT_CODE = 86


class InjectedFault(ReproError):
    """A failure raised on purpose by an armed :class:`FaultPlan`.

    Message-only ``args`` keep it pickle-safe across process boundaries
    (worker-side injections travel back through the future machinery).
    """

    def __init__(self, message: str = "Injected fault"):
        super().__init__(message)


@dataclass(frozen=True)
class FaultRule:
    """One entry of a fault schedule.

    Args:
        site: Which fault site this rule arms (one of :data:`FAULT_SITES`).
        action: ``"raise"`` (raise :class:`InjectedFault`), ``"latency"``
            (sleep ``latency_s``, then proceed) or ``"kill"`` (``os._exit``
            the *worker* process mid-call; outside a worker the rule
            degrades to ``"raise"`` — a plan must never take down the host).
        calls: 1-based per-process call indices of the site at which the
            rule may fire (``None`` = every call).  Counters are per plan
            object, so worker processes — which rebuild the plan from the
            pickled jobs or the environment — count their own calls.
        attempts: Retry attempts (1-based) at which the rule may fire;
            ``(1,)`` makes a fault that every retry recovers from, ``None``
            fires on every attempt (retry-exhaustion schedules).
        key: Exact-match filter on the call's key (shard position, URL
            path, advisor name); ``None`` matches any key.  Exact, not
            substring: a rule for ``"/v1/tune"`` does not catch
            ``"/v1/sessions/s1/tune"``.
        latency_s: Sleep applied before the action fires (the whole action
            for ``"latency"``).
        probability: Chance the matching rule actually fires, drawn from
            the plan's seeded RNG — deterministic for a given plan/seed and
            call sequence.
    """

    site: str
    action: str = "raise"
    calls: tuple[int, ...] | None = None
    attempts: tuple[int, ...] | None = (1,)
    key: str | None = None
    latency_s: float = 0.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"Unknown fault site {self.site!r}; expected one "
                             f"of {', '.join(FAULT_SITES)}")
        if self.action not in _ACTIONS:
            raise ValueError(f"Unknown fault action {self.action!r}; expected "
                             f"one of {', '.join(_ACTIONS)}")
        if self.calls is not None:
            object.__setattr__(self, "calls",
                               tuple(int(call) for call in self.calls))
        if self.attempts is not None:
            object.__setattr__(self, "attempts",
                               tuple(int(a) for a in self.attempts))
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")

    def matches(self, site: str, key: str | None, attempt: int,
                call_index: int) -> bool:
        if site != self.site:
            return False
        if self.key is not None and key != self.key:
            return False
        if self.calls is not None and call_index not in self.calls:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True

    def to_payload(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "action": self.action,
            "calls": None if self.calls is None else list(self.calls),
            "attempts": (None if self.attempts is None
                         else list(self.attempts)),
            "key": self.key,
            "latency_s": self.latency_s,
            "probability": self.probability,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FaultRule":
        calls = payload.get("calls")
        attempts = payload.get("attempts", [1])
        return cls(
            site=payload["site"],
            action=payload.get("action", "raise"),
            calls=None if calls is None else tuple(calls),
            attempts=None if attempts is None else tuple(attempts),
            key=payload.get("key"),
            latency_s=float(payload.get("latency_s", 0.0)),
            probability=float(payload.get("probability", 1.0)),
        )


@dataclass
class FaultPlan:
    """A seeded, thread-safe schedule of injected failures.

    The plan is picklable (its lock is rebuilt on unpickling) so the
    executor can ship it into worker processes inside shard jobs; the
    worker's copy counts its own calls, which is exactly the per-process
    semantics the ``calls`` filter documents.
    """

    rules: Sequence[FaultRule] = ()
    seed: int = 0
    _calls: dict[str, int] = field(default_factory=dict, repr=False,
                                   compare=False)
    _injected: dict[str, int] = field(default_factory=dict, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        self.rules = tuple(
            rule if isinstance(rule, FaultRule)
            else FaultRule.from_payload(rule)
            for rule in self.rules)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- checking
    def check(self, site: str, key: Any = None, attempt: int = 1,
              in_worker: bool = False) -> None:
        """Count one call of ``site`` and fire a matching rule, if any.

        Raises :class:`InjectedFault` (action ``"raise"``, and ``"kill"``
        outside a worker), exits the process (``"kill"`` inside a worker),
        sleeps (``"latency"``), or returns untouched.
        """
        key = None if key is None else str(key)
        with self._lock:
            call_index = self._calls.get(site, 0) + 1
            self._calls[site] = call_index
            fired = None
            for rule in self.rules:
                if not rule.matches(site, key, attempt, call_index):
                    continue
                if rule.probability < 1.0 and \
                        self._rng.random() >= rule.probability:
                    continue
                fired = rule
                self._injected[site] = self._injected.get(site, 0) + 1
                break
        if fired is None:
            return
        from repro.obs.metrics import FAULTS_INJECTED, active_registry

        active_registry().family(FAULTS_INJECTED).inc(site=site)
        if fired.latency_s > 0:
            time.sleep(fired.latency_s)
        if fired.action == "latency":
            return
        if fired.action == "kill" and in_worker:
            os._exit(KILL_EXIT_CODE)
        raise InjectedFault(
            f"Injected {fired.action!r} fault at site {site!r} "
            f"(key={key!r}, call={call_index}, attempt={attempt})")

    # ---------------------------------------------------------------- counters
    @property
    def injected_total(self) -> int:
        """Faults fired *in this process* (worker-side firings are counted
        by the worker's copy and surface as ``faults_survived`` instead)."""
        with self._lock:
            return sum(self._injected.values())

    def counters(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {"checks": dict(self._calls),
                    "injected": dict(self._injected)}

    # ----------------------------------------------------------- serialization
    def to_json(self) -> str:
        return json.dumps({"seed": self.seed,
                           "rules": [rule.to_payload()
                                     for rule in self.rules]})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(rules=tuple(FaultRule.from_payload(entry)
                               for entry in payload.get("rules", ())),
                   seed=int(payload.get("seed", 0)))

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None
                 ) -> "FaultPlan | None":
        raw = (environ if environ is not None else os.environ).get(ENV_VAR)
        if not raw:
            return None
        return cls.from_json(raw)

    # --------------------------------------------------------------- pickling
    def __getstate__(self) -> dict[str, Any]:
        # Counters and RNG are per-process state (the ``calls`` filter is
        # documented per-process): a worker unpickling the plan starts its
        # own fresh sequence from the same rules and seed.
        state = self.__dict__.copy()
        del state["_lock"]
        del state["_rng"]
        state["_calls"] = {}
        state["_injected"] = {}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()


# ----------------------------------------------------------- process arming
_armed_lock = threading.Lock()
_armed: FaultPlan | None = None
_env_plan: FaultPlan | None = None
_env_read = False


def arm(plan: FaultPlan | None) -> FaultPlan | None:
    """Arm ``plan`` process-wide; returns the previously armed plan."""
    global _armed
    with _armed_lock:
        previous = _armed
        _armed = plan
        return previous


def disarm() -> FaultPlan | None:
    """Disarm any explicitly armed plan (the env plan stays reachable)."""
    return arm(None)


class armed:
    """Context manager arming a plan for a block (restores the previous).

    ``with armed(FaultPlan()): ...`` masks the chaos lane's env plan, which
    is how tests that assert exact fault schedules stay hermetic.
    """

    def __init__(self, plan: FaultPlan | None):
        self._plan = plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan | None:
        self._previous = arm(self._plan)
        return self._plan

    def __exit__(self, *exc_info) -> None:
        arm(self._previous)


def armed_plan() -> FaultPlan | None:
    """The plan governing this process: explicitly armed, else from the env.

    The environment is parsed once (lazily); worker processes re-read it
    themselves, since they start with fresh module state.
    """
    global _env_plan, _env_read
    with _armed_lock:
        if _armed is not None:
            return _armed
        if not _env_read:
            _env_read = True
            _env_plan = FaultPlan.from_env()
        return _env_plan


def maybe_check(plan: FaultPlan | None, site: str, key: Any = None,
                attempt: int = 1, in_worker: bool = False) -> None:
    """``plan.check(...)`` tolerant of ``plan=None`` (no plan armed)."""
    if plan is not None:
        plan.check(site, key=key, attempt=attempt, in_worker=in_worker)
