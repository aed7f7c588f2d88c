"""Fixture tests for the reprolint rules (PR 9).

Every rule is proven on a seeded violation (the rule fires) and on the fixed
tree (the rule stays quiet).  Fixtures are tiny source trees written into
``tmp_path`` and analyzed through the Python API via ``--root``-style loading;
rules that read repo configuration (``FAULT_SITES``) fall back to built-in
defaults when the config modules are absent from the tree.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_analysis, rule_by_name
from repro.analysis.rules import ALL_RULES


def run_tree(tmp_path: Path, files: dict[str, str], rule: str | None = None):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    rules = None
    if rule is not None:
        selected = rule_by_name(rule)
        assert selected is not None, rule
        rules = [selected]
    return run_analysis(tmp_path, rules=rules)


def test_rule_registry_is_complete():
    names = {rule.name for rule in ALL_RULES}
    assert {"fault-site-discipline", "lock-discipline",
            "metric-label-cardinality", "bounded-buffer",
            "worker-pickle-safety",
            "runtime-assert", "unused-import"} <= names
    assert rule_by_name("no-such-rule") is None


# ---------------------------------------------------------------- fault sites
def test_fault_site_rule_requires_literal_known_site(tmp_path):
    findings = run_tree(tmp_path, {"pkg/solve.py": """\
        def solve(plan, site):
            maybe_check(plan, site)

        def solve2(plan):
            maybe_check(plan, "not_a_site")
        """}, rule="fault-site-discipline")
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "string literal" in messages[1]
    assert "not a member of FAULT_SITES" in messages[0]


def test_fault_site_rule_requires_check_before_work(tmp_path):
    bad = run_tree(tmp_path / "bad", {"pkg/solve.py": """\
        def solve(plan, inum, workload, candidates):
            inum.prepare(workload, candidates)
            maybe_check(plan, "shard_solve")
        """}, rule="fault-site-discipline")
    assert len(bad) == 1 and "dominate" in bad[0].message

    good = run_tree(tmp_path / "good", {"pkg/solve.py": """\
        def solve(plan, inum, workload, candidates):
            maybe_check(plan, "shard_solve")
            inum.prepare(workload, candidates)
        """}, rule="fault-site-discipline")
    assert good == []


# ----------------------------------------------------------------- lock rule
def test_lock_rule_flags_unprotected_root(tmp_path):
    findings = run_tree(tmp_path, {"pkg/uses.py": """\
        def refresh(context, workload, candidates):
            context.inum.prepare(workload, candidates)
        """}, rule="lock-discipline")
    assert len(findings) == 1
    assert "prepare" in findings[0].message


def test_lock_rule_flags_unlocked_workload_memo(tmp_path):
    # The memo hands one BIP to every request of a workload: a caller
    # without the context lock could solve on it while another merges rows.
    findings = run_tree(tmp_path, {"pkg/uses.py": """\
        def reuse(context, workload, tag, build):
            return context.inum.workload_memo(workload, tag, build)
        """}, rule="lock-discipline")
    assert len(findings) == 1
    assert "workload_memo" in findings[0].message


def test_lock_rule_accepts_lexical_lock_and_annotation(tmp_path):
    findings = run_tree(tmp_path, {"pkg/uses.py": """\
        def locked(context, workload, candidates):
            with context.lock:
                context.inum.prepare(workload, candidates)

        # reprolint: requires-lock (caller serializes)
        def annotated(context, workload, candidates):
            context.inum.prepare(workload, candidates)
        """}, rule="lock-discipline")
    assert findings == []


def test_lock_rule_walks_callers(tmp_path):
    # The mutator sits in a helper; safety is decided by the caller edges.
    good = run_tree(tmp_path / "good", {"pkg/uses.py": """\
        def _refresh(context, workload, candidates):
            context.inum.prepare(workload, candidates)

        def entry(context, workload, candidates):
            with context.lock:
                _refresh(context, workload, candidates)
        """}, rule="lock-discipline")
    assert good == []

    bad = run_tree(tmp_path / "bad", {"pkg/uses.py": """\
        def _refresh(context, workload, candidates):
            context.inum.prepare(workload, candidates)

        def entry(context, workload, candidates):
            _refresh(context, workload, candidates)
        """}, rule="lock-discipline")
    assert len(bad) == 1


# -------------------------------------------------------------- metric labels
def test_metric_label_rule_flags_interpolated_label(tmp_path):
    findings = run_tree(tmp_path, {"pkg/obs.py": """\
        def record(registry, query_name):
            registry.counter("c", "d", ("q",)).inc(q=f"query-{query_name}")
        """}, rule="metric-label-cardinality")
    assert len(findings) == 1 and "bounded" in findings[0].message


def test_metric_label_rule_accepts_bounded_values(tmp_path):
    findings = run_tree(tmp_path, {"pkg/obs.py": """\
        def record(registry, site, outcome):
            registry.counter("c", "d", ("site",)).inc(site=site)
            registry.counter("c2", "d", ("s",)).inc(s="literal")
            registry.histogram("h", "d", ("o",)).observe(1.0, o=outcome)

        def enumish(registry, solution):
            registry.counter("c3", "d", ("s",)).inc(
                s=solution.status.name.lower())
        """}, rule="metric-label-cardinality")
    assert findings == []


def test_metric_label_rule_ignores_exemplar_kwarg(tmp_path):
    # ``exemplar=`` deliberately carries a per-request trace id; it is
    # snapshot metadata, not a label, so it must never be flagged.
    findings = run_tree(tmp_path, {"pkg/obs.py": """\
        def record(registry, trace_id):
            registry.histogram("h", "d").observe(1.0, exemplar=trace_id)
        """}, rule="metric-label-cardinality")
    assert findings == []


# -------------------------------------------------------------- bounded buffer
def test_bounded_buffer_flags_unbounded_deque_in_obs(tmp_path):
    findings = run_tree(tmp_path, {"repro/obs/ring.py": """\
        from collections import deque

        events = deque()
        """}, rule="bounded-buffer")
    assert len(findings) == 1 and "maxlen" in findings[0].message


def test_bounded_buffer_accepts_capped_deque_and_other_packages(tmp_path):
    findings = run_tree(tmp_path, {
        "repro/obs/ring.py": """\
            from collections import deque

            events = deque(maxlen=64)
            """,
        # outside obs/ the rule does not apply at all
        "repro/core/scratch.py": """\
            from collections import deque

            frontier = deque()
            """}, rule="bounded-buffer")
    assert findings == []


def test_bounded_buffer_flags_recorder_without_capacity(tmp_path):
    findings = run_tree(tmp_path, {"repro/obs/keeper.py": """\
        class Keeper:
            def __init__(self):
                self.entries = {}

            def record(self, entry):
                self.entries[entry["id"]] = entry
        """}, rule="bounded-buffer")
    assert len(findings) == 1 and "capacity" in findings[0].message


def test_bounded_buffer_accepts_recorder_with_bounded_capacity(tmp_path):
    findings = run_tree(tmp_path, {"repro/obs/keeper.py": """\
        class Keeper:
            def __init__(self, capacity=32):
                self.capacity = int(capacity)
                self.entries = {}

            def record(self, entry):
                self.entries[entry["id"]] = entry
        """}, rule="bounded-buffer")
    assert findings == []


# ------------------------------------------------------------- pickle safety
def test_pickle_rule_flags_cached_hash_without_setstate(tmp_path):
    findings = run_tree(tmp_path, {"pkg/thing.py": """\
        class Thing:
            def __init__(self, key):
                self.key = key
                self._hash = hash(key)
        """}, rule="worker-pickle-safety")
    assert len(findings) == 1 and "Thing" in findings[0].message


def test_pickle_rule_accepts_setstate_recompute(tmp_path):
    findings = run_tree(tmp_path, {"pkg/thing.py": """\
        class Thing:
            def __init__(self, key):
                self.key = key
                self._hash = hash(key)

            def __getstate__(self):
                state = dict(self.__dict__)
                state.pop("_hash", None)
                return state

            def __setstate__(self, state):
                self.__dict__.update(state)
                self._hash = hash(self.key)

        class Frozen:
            def __init__(self, key):
                object.__setattr__(self, "_hash", hash(key))

            def __setstate__(self, state):
                object.__setattr__(self, "_hash", hash(state["key"]))
        """}, rule="worker-pickle-safety")
    assert findings == []


# ------------------------------------------------------------------- hygiene
def test_runtime_assert_rule_and_suppression(tmp_path):
    bad = run_tree(tmp_path / "bad", {"pkg/mod.py": """\
        def check(x):
            assert x > 0
            return x
        """}, rule="runtime-assert")
    assert len(bad) == 1 and "python -O" in bad[0].message

    suppressed = run_tree(tmp_path / "ok", {"pkg/mod.py": """\
        def check(x):
            assert x > 0  # reprolint: disable=runtime-assert
            return x
        """}, rule="runtime-assert")
    assert suppressed == []


def test_unused_import_rule(tmp_path):
    bad = run_tree(tmp_path / "bad", {"pkg/mod.py": """\
        import os
        from typing import Mapping

        VALUE = 1
        """}, rule="unused-import")
    assert sorted(f.message for f in bad) == [
        "imported name 'Mapping' is unused",
        "imported name 'os' is unused",
    ]

    good = run_tree(tmp_path / "good", {"pkg/mod.py": """\
        import os
        from typing import Mapping

        def env() -> Mapping[str, str]:
            return dict(os.environ)
        """}, rule="unused-import")
    assert good == []


def test_unused_import_rule_respects_all_and_init(tmp_path):
    findings = run_tree(tmp_path, {
        "pkg/__init__.py": "from os import path\n",
        "pkg/mod.py": """\
        from os import path

        __all__ = ["path"]
        """}, rule="unused-import")
    assert findings == []


# ------------------------------------------------------------------- engine
def test_parse_errors_surface_as_findings(tmp_path):
    findings = run_tree(tmp_path, {"pkg/broken.py": "def broken(:\n"})
    assert [f.rule for f in findings] == ["parse-error"]


def test_docstring_pragma_examples_are_not_live(tmp_path):
    findings = run_tree(tmp_path, {"pkg/mod.py": '''\
        """Docs quoting ``# reprolint: disable=<rule>`` must not parse."""

        def check(x):
            assert x > 0
            return x
        '''}, rule="runtime-assert")
    assert len(findings) == 1  # the assert still fires; the docstring is inert


def test_repo_tree_is_clean_under_all_rules():
    src = Path(__file__).resolve().parents[1] / "src"
    findings = run_analysis(src)
    assert findings == [], [f.render() for f in findings]
