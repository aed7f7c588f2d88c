"""Rule registry for reprolint."""

from __future__ import annotations

from repro.analysis.rules.base import Finding, Rule
from repro.analysis.rules.buffers import BoundedBufferRule
from repro.analysis.rules.faultsites import FaultSiteRule
from repro.analysis.rules.hygiene import RuntimeAssertRule, UnusedImportRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.pickling import PickleHashRule

__all__ = ["Finding", "Rule", "ALL_RULES", "rule_by_name"]

#: Every shipped rule, instantiated once; order is the report order.
ALL_RULES: tuple[Rule, ...] = (
    FaultSiteRule(),
    LockDisciplineRule(),
    BoundedBufferRule(),
    PickleHashRule(),
    RuntimeAssertRule(),
    UnusedImportRule(),
)


def rule_by_name(name: str) -> Rule | None:
    for rule in ALL_RULES:
        if rule.name == name:
            return rule
    return None
