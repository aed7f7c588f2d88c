"""Tests for repo tooling: the reprolint CLI contract (PR 9):
``python -m repro.analysis``, and the clock allow-list."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
        for name in ("fingerprint-purity", "fault-site-discipline",
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


def _clock_reads(path: Path) -> set:
    """Names of the ``time`` module clocks a source file calls."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and func.attr in _CLOCKS
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"):
            found.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in _CLOCKS - {"time"}:
            found.add(func.id)
    return found


def test_clock_reads_are_confined_to_the_allow_list():
    package = REPO_ROOT / "src" / "repro"
    readers = {}
    for path in sorted(package.rglob("*.py")):
        found = _clock_reads(path)
        if found:
            readers[path.relative_to(package).as_posix()] = found
    assert readers == {module: clocks
                       for module, (clocks, _why) in _CLOCK_READERS.items()}
