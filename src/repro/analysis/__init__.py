"""reprolint — repo-specific static analysis for the tuning stack (PR 9).

Usage: ``PYTHONPATH=src python -m repro.analysis`` lints ``src/repro`` with
every rule and exits 0 when all findings are either fixed, suppressed inline
(``# reprolint: disable=<rule>`` on the offending line) or grandfathered in
``analysis/baseline.json`` (one justified entry per finding; refresh with
``--update-baseline`` after deliberate changes, then replace the TODO
justifications in review).  ``--rule <name>`` (repeatable) narrows the run,
``--list-rules`` shows the catalogue, ``--root`` points the engine at any
other tree (the fixture tests use this).  The engine parses source with
:mod:`ast` and never imports the code under analysis, so it has no runtime
dependencies; a full run over the repo takes well under ten seconds.  The
rules encode the repo's established conventions — fault-site discipline,
context-lock discipline, bounded metric labels, bounded buffers, worker
pickle safety, no runtime asserts, no dead imports — see the ROADMAP's
"Static analysis" notes for each rule's origin and the suppression
workflow.  Fingerprint purity is checked by behaviour, not by a rule:
``tests/test_tooling.py`` confines clock reads to an allow-list and re-runs
every advisor under an erratic clock.
"""

from repro.analysis.baseline import Baseline, split_by_baseline
from repro.analysis.engine import analyze_project, run_analysis
from repro.analysis.project import Project, load_project
from repro.analysis.rules import ALL_RULES, Finding, Rule, rule_by_name

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "Project",
    "Rule",
    "analyze_project",
    "load_project",
    "rule_by_name",
    "run_analysis",
    "split_by_baseline",
]
