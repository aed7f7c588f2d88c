"""Tests on the source tree and on fingerprint purity: no ``assert`` and no
unused import in ``src/repro``, the clock allow-list, and fingerprints
under an erratic clock."""

from __future__ import annotations

import ast
import importlib
import random
import re
import threading
import time
import types
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------- source hygiene
def _hygiene(source: str, init: bool = False) -> list[str]:
    """An ``assert`` (it vanishes under ``python -O``; library code raises a
    typed exception) and an imported name never mentioned again — as a
    whole word anywhere outside its import, docstrings and comments
    included.  A package ``__init__`` re-exports, and a name in ``__all__``
    is exported, so neither counts as unused."""
    tree = ast.parse(source)
    found = [f"{node.lineno}: assert" for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    if init:
        return found
    exported = {node.value for statement in tree.body
                if isinstance(statement, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in statement.targets)
                for node in ast.walk(statement.value)
                if isinstance(node, ast.Constant)}
    lines = source.splitlines()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names
                     if alias.name != "*"]
        else:
            continue
        rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
        found += [f"{node.lineno}: unused import {name}" for name in names
                  if not name.startswith("_") and name not in exported
                  and not re.search(rf"\b{re.escape(name)}\b", rest)]
    return found


def test_source_has_no_assert_and_no_unused_import():
    package = REPO_ROOT / "src" / "repro"
    found = {path.relative_to(package).as_posix(): problems
             for path in sorted(package.rglob("*.py"))
             if (problems := _hygiene(path.read_text(encoding="utf-8"),
                                      init=path.name == "__init__.py"))}
    assert found == {}


@pytest.mark.parametrize("source,init,found", [
    pytest.param("def check(x):\n    assert x > 0\n    return x\n", False,
                 ["2: assert"], id="assert"),
    pytest.param("import os\nfrom typing import Mapping\n\nVALUE = 1\n",
                 False, ["1: unused import os", "2: unused import Mapping"],
                 id="unused-imports"),
    pytest.param("import os\nfrom typing import Mapping\n\n"
                 "def env() -> Mapping[str, str]:\n"
                 "    return dict(os.environ)\n", False, [],
                 id="used-imports"),
    pytest.param("from os import path\n", True, [], id="init-re-export"),
    pytest.param("from os import path\n\n__all__ = [\"path\"]\n", False, [],
                 id="all-export"),
    pytest.param("assert True\n", True, ["1: assert"], id="assert-in-init"),
])
def test_hygiene_flags_asserts_and_unused_imports(source, init, found):
    assert _hygiene(source, init=init) == found


# ------------------------------------------------------------------ one clock
#: Every ``src/repro`` module that may read a clock, which one, and why.  A
#: pipeline stage is timed by its span (``repro.obs.trace.stage``); anything
#: else that wants a stopwatch has to argue its way onto this list.
_CLOCK_READERS = {
    "obs/trace.py": ({"perf_counter", "thread_time"}, "the clock: Span"),
    "obs/profile.py": ({"perf_counter"}, "the clock: lock-wait accounting"),
    "lp/budget.py": ({"perf_counter"}, "solver-intrinsic: the deadline"),
    "lp/highs_backend.py": ({"perf_counter"},
                            "solver-intrinsic: solve_seconds"),
    "core/solver.py": ({"perf_counter"}, "SolveReport.solve_seconds"),
    "core/soft_constraints.py": ({"perf_counter"},
                                 "ParetoPoint.solve_seconds"),
    "api/tuner.py": ({"monotonic"}, "context TTL"),
    "api/service.py": ({"perf_counter"}, "pool queue wait"),
    "server/app.py": ({"monotonic", "perf_counter"},
                      "session TTL, drain deadline, HTTP latency"),
    "scale/executor.py": ({"time"}, "cross-process dispatch timestamp"),
    "bench/harness.py": ({"perf_counter"}, "the evaluation harness"),
}
_CLOCKS = {"perf_counter", "monotonic", "time", "thread_time", "process_time"}
_CLOCKS |= {f"{clock}_ns" for clock in _CLOCKS}
#: ``datetime`` / ``date`` constructors that read the wall clock.
_DATE_CLOCKS = {"now", "utcnow", "today"}


def _clock_reads(source: str) -> set:
    """The clocks a module's source calls: ``time`` functions however they
    were imported, and the ``datetime`` / ``date`` readers as ``datetime.*``."""
    tree = ast.parse(source)
    modules = {"time"}
    clocks = {clock: clock for clock in _CLOCKS - {"time"}}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.name == "time" and alias.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            clocks.update((alias.asname or alias.name, alias.name)
                          for alias in node.names if alias.name in _CLOCKS)
    found = set()
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id in clocks:
            found.add(clocks[func.id])
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            receiver = (receiver.id if isinstance(receiver, ast.Name) else
                        receiver.attr if isinstance(receiver, ast.Attribute)
                        else None)
            if receiver in modules and func.attr in _CLOCKS:
                found.add(func.attr)
            elif receiver in {"datetime", "date"} and \
                    func.attr in _DATE_CLOCKS:
                found.add(f"datetime.{func.attr}")
    return found


def test_clock_reads_are_confined_to_the_allow_list():
    package = REPO_ROOT / "src" / "repro"
    readers = {}
    for path in sorted(package.rglob("*.py")):
        found = _clock_reads(path.read_text(encoding="utf-8"))
        if found:
            readers[path.relative_to(package).as_posix()] = found
    assert readers == {module: clocks
                       for module, (clocks, _why) in _CLOCK_READERS.items()}


@pytest.mark.parametrize("source,clocks", [
    ("import time\ntime.perf_counter_ns()", {"perf_counter_ns"}),
    ("import time as clock\nclock.monotonic()", {"monotonic"}),
    ("from time import monotonic_ns\nmonotonic_ns()", {"monotonic_ns"}),
    ("from time import time as now\nnow()", {"time"}),
    ("from time import perf_counter as tick\ntick()", {"perf_counter"}),
    ("from datetime import datetime\ndatetime.now()", {"datetime.now"}),
    ("import datetime\ndatetime.datetime.utcnow()", {"datetime.utcnow"}),
    ("from datetime import date\ndate.today()", {"datetime.today"}),
    ("import time\ntime.sleep(0)\nfrom datetime import timedelta\n"
     "timedelta(1)", set()),
])
def test_every_clock_form_is_seen(source, clocks):
    assert _clock_reads(source) == clocks


# --------------------------------------------------------- fingerprint purity
class _ErraticClock:
    """A seeded clock that never runs backwards but keeps no pace: a read
    advances it by nothing, a nanosecond, or anything up to seconds."""

    _STEPS = (0.0, 1e-9, 1e-4, 0.37, 3.1)

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._now = 1e6
        self._lock = threading.Lock()
        self.reads = 0

    def read(self) -> float:
        with self._lock:
            self.reads += 1
            self._now += self._rng.choice(self._STEPS)
            return self._now

    def module(self) -> types.SimpleNamespace:
        """A stand-in ``time`` module whose every clock reads this one."""
        fake = types.SimpleNamespace(**{name: getattr(time, name)
                                        for name in dir(time)
                                        if not name.startswith("_")})
        for clock in _CLOCKS:
            setattr(fake, clock, (lambda: int(self.read() * 1e9))
                    if clock.endswith("_ns") else self.read)
        return fake


def _fingerprints(schema, workload) -> list:
    """Every advisor, CoPhy's two anytime tiers, the four steps of a service
    session and one request over HTTP — none under a time budget, so no
    deadline can change a decision and only a leak can change a digest."""
    from repro.api import AdvisorSpec, Tuner, TuningRequest, TuningService
    from repro.core.constraints import (IndexCountConstraint,
                                        StorageBudgetConstraint)
    from repro.indexes.index import Index
    from repro.server import TuningClient, TuningServer

    budget = StorageBudgetConstraint.from_fraction_of_data(schema, 1.0)

    def request(spec=None):
        return TuningRequest(workload=workload, schema=schema,
                             constraints=[budget], advisor=spec)

    specs = [AdvisorSpec(name) for name in ("cophy", "ilp", "dta",
                                            "relaxation")]
    specs += [AdvisorSpec("scaleout", {"shard_workers": 2}),
              AdvisorSpec("cophy", solve_tier="cascade"),
              AdvisorSpec("cophy", solve_tier="heuristic")]
    tuner = Tuner()
    results = [tuner.tune(request(spec)) for spec in specs]
    extra = Index("items", ("i_shipdate",), include_columns=("i_price",))
    with TuningService() as service:
        session = service.open_session(request())
        results += [session.recommend(),
                    session.update_constraints(
                        [budget, IndexCountConstraint(limit=2)]),
                    session.add_candidates([extra]),
                    session.remove_candidates([extra])]
    with TuningServer() as server:
        results.append(TuningClient(server.url).tune(request()))
    return [result.fingerprint() for result in results]


def test_fingerprints_do_not_depend_on_the_clock(monkeypatch, simple_schema,
                                                 simple_workload):
    """The behavioural guard of fingerprint purity: every module allowed to
    read a clock reads an erratic one, and no fingerprint moves.  A clock
    value stored under a key the fingerprint keeps — in any function,
    through any helper — changes a digest here."""
    steady = _fingerprints(simple_schema, simple_workload)
    clock = _ErraticClock(seed=20111)
    for module in _CLOCK_READERS:
        name = "repro." + module.removesuffix(".py").replace("/", ".")
        monkeypatch.setattr(importlib.import_module(name), "time",
                            clock.module())
    assert _fingerprints(simple_schema, simple_workload) == steady
    assert clock.reads > 100  # the stand-in really was the clock
