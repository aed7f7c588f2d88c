"""Tests for repo tooling: the reprolint CLI contract (PR 9):
``python -m repro.analysis``, the clock allow-list, and fingerprint purity
under an erratic clock."""

from __future__ import annotations

import ast
import importlib
import json
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
import types
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_LINT_ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def _lint(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True, text=True, env=_LINT_ENV, cwd=REPO_ROOT)


def _tree(tmp_path: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


_BAD_TREE = {
    "pkg/mod.py": """\
    import os

    def check(x):
        assert x > 0
        return x
    """,
}

_CLEAN_TREE = {
    "pkg/mod.py": """\
    def check(x):
        if x <= 0:
            raise ValueError(x)
        return x
    """,
}


class TestReprolintCli:
    def test_clean_tree_exits_zero(self, tmp_path):
        root = _tree(tmp_path, _CLEAN_TREE)
        done = _lint("--root", str(root), "--no-baseline")
        assert done.returncode == 0, done.stdout + done.stderr
        assert "0 finding(s)" in done.stdout

    def test_findings_exit_one_with_file_line_rule(self, tmp_path):
        root = _tree(tmp_path, _BAD_TREE)
        done = _lint("--root", str(root), "--no-baseline")
        assert done.returncode == 1
        assert "pkg/mod.py:4: [runtime-assert]" in done.stdout
        assert "pkg/mod.py:1: [unused-import]" in done.stdout

    def test_unknown_rule_exits_two(self, tmp_path):
        root = _tree(tmp_path, _CLEAN_TREE)
        done = _lint("--root", str(root), "--rule", "no-such-rule")
        assert done.returncode == 2
        assert "unknown rule" in done.stderr

    def test_bad_flag_exits_two(self):
        done = _lint("--frobnicate")
        assert done.returncode == 2

    def test_rule_filter_restricts_findings(self, tmp_path):
        root = _tree(tmp_path, _BAD_TREE)
        done = _lint("--root", str(root), "--no-baseline",
                     "--rule", "runtime-assert")
        assert done.returncode == 1
        assert "[runtime-assert]" in done.stdout
        assert "[unused-import]" not in done.stdout

    def test_update_baseline_round_trip(self, tmp_path):
        root = _tree(tmp_path, _BAD_TREE)
        baseline = tmp_path / "baseline.json"
        done = _lint("--root", str(root), "--baseline", str(baseline),
                     "--update-baseline")
        assert done.returncode == 0, done.stdout + done.stderr
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 1
        assert {entry["rule"] for entry in payload["findings"]} == {
            "runtime-assert", "unused-import"}
        assert all("justification" in entry for entry in payload["findings"])
        # One finding object per line keeps baseline diffs reviewable.
        body = baseline.read_text()
        assert body.count('"rule"') == len(payload["findings"])
        for line in body.splitlines():
            assert line.count('"rule"') <= 1
        # The grandfathered findings no longer fail the run...
        done = _lint("--root", str(root), "--baseline", str(baseline))
        assert done.returncode == 0
        assert "2 grandfathered" in done.stdout
        # ...but a fresh violation still does.
        (root / "pkg" / "extra.py").write_text(
            "def f(y):\n    assert y\n", encoding="utf-8")
        done = _lint("--root", str(root), "--baseline", str(baseline))
        assert done.returncode == 1
        assert "pkg/extra.py:2: [runtime-assert]" in done.stdout

    def test_stale_baseline_entries_are_reported_not_fatal(self, tmp_path):
        root = _tree(tmp_path, _BAD_TREE)
        baseline = tmp_path / "baseline.json"
        _lint("--root", str(root), "--baseline", str(baseline),
              "--update-baseline")
        _tree(tmp_path, _CLEAN_TREE)  # fix the violations in place
        (root / "pkg" / "mod.py").write_text(
            textwrap.dedent(_CLEAN_TREE["pkg/mod.py"]), encoding="utf-8")
        done = _lint("--root", str(root), "--baseline", str(baseline))
        assert done.returncode == 0
        assert "stale baseline" in done.stdout

    def test_inline_suppression_parsing(self, tmp_path):
        root = _tree(tmp_path, {"pkg/mod.py": """\
            def check(x):
                assert x > 0  # reprolint: disable=runtime-assert
                return x
            """})
        done = _lint("--root", str(root), "--no-baseline")
        assert done.returncode == 0, done.stdout + done.stderr

    def test_missing_baseline_path_exits_two(self, tmp_path):
        root = _tree(tmp_path, _CLEAN_TREE)
        done = _lint("--root", str(root), "--baseline",
                     str(tmp_path / "nope.json"))
        assert done.returncode == 2

    def test_list_rules(self):
        done = _lint("--list-rules")
        assert done.returncode == 0
        for name in ("fault-site-discipline",
                     "lock-discipline", "metric-label-cardinality",
                     "worker-pickle-safety",
                     "runtime-assert", "unused-import"):
            assert name in done.stdout

    def test_repo_default_run_is_clean_and_fast(self):
        done = _lint()
        assert done.returncode == 0, done.stdout + done.stderr


# ------------------------------------------------------------------ one clock
#: Every ``src/repro`` module that may read a clock, which one, and why.  A
#: pipeline stage is timed by its span (``repro.obs.trace.stage``); anything
#: else that wants a stopwatch has to argue its way onto this list.
_CLOCK_READERS = {
    "obs/trace.py": ({"perf_counter", "thread_time"}, "the clock: Span"),
    "obs/profile.py": ({"perf_counter"}, "the clock: lock-wait accounting"),
    "lp/budget.py": ({"perf_counter"}, "solver-intrinsic: the deadline"),
    "lp/branch_and_bound.py": ({"perf_counter"},
                               "solver-intrinsic: solve_seconds, gap trace"),
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
    "analysis/cli.py": ({"perf_counter"}, "the linter's own run time"),
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
