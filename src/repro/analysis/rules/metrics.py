"""metric-label-cardinality: metric labels come from bounded sets only.

PR 8's exposition contract: every label value on ``.inc()`` / ``.observe()``
/ ``.set()`` / ``.labels()`` derives from a bounded set — advisor registry
names, ``FAULT_SITES``, route patterns, enum names, literal event strings —
never raw paths, statement names or interpolated request data, which would
grow an unbounded number of series and blow up the scrape.  The bounded sets
themselves are pinned in the ``obs/metrics.py`` docstrings.

A label value is accepted when it is a literal, a parameter whose name is one
of the documented bounded-domain names, a local assigned from an accepted
expression, an enum ``.name``/``.value`` access (optionally case-folded), or
a call to an allowlisted bounded derivation (``_endpoint_pattern``,
``canonical_name``).  F-strings, ``%``/``.format``/concatenation and any
other dynamic expression are findings.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.loader import SourceModule
from repro.analysis.project import Project, call_name
from repro.analysis.rules.base import Finding, Rule, keyword_arguments

__all__ = ["MetricLabelRule"]

_LABEL_METHODS = frozenset({"inc", "observe", "labels"})
_SET_TOKENS = ("metric", "counter", "gauge", "histogram", "family")

#: Parameter names whose values are validated/bounded upstream (see the
#: bounded-set table in ``obs/metrics.py``).
BOUNDED_PARAMS = frozenset({"site", "event", "cache", "advisor",
                            "advisor_name", "tier", "solve_tier", "status",
                            "endpoint",
                            "method", "outcome", "kind", "stage", "code",
                            "route", "label", "reason"})

#: Functions documented to return bounded values.
BOUNDED_DERIVATIONS = frozenset({"_endpoint_pattern", "canonical_name"})

_CASE_FOLDS = frozenset({"lower", "upper"})

#: Keyword arguments of the metric methods that are NOT labels: ``exemplar``
#: deliberately carries a per-request trace id (it becomes snapshot metadata
#: on the one slowest sample, never a new series).
_NON_LABEL_KWARGS = frozenset({"exemplar"})


def _receiver_mentions_metric(call: ast.Call) -> bool:
    if not isinstance(call.func, ast.Attribute):
        return False
    for sub in ast.walk(call.func.value):
        token = (sub.id if isinstance(sub, ast.Name)
                 else sub.attr if isinstance(sub, ast.Attribute)
                 else call_name(sub) or "" if isinstance(sub, ast.Call)
                 else "")
        if token and any(word in token.lower() for word in _SET_TOKENS):
            return True
    return False


class MetricLabelRule(Rule):
    name = "metric-label-cardinality"
    description = "metric label values must derive from bounded sets"

    def visit(self, module: SourceModule,
              project: Project) -> Iterable[Finding]:
        if module.relpath.endswith("obs/metrics.py"):
            return  # the registry's own machinery handles labels generically
        for info in project.functions.values():
            if info.module is not module:
                continue
            params = {arg.arg for arg in info.node.args.args}
            params |= {arg.arg for arg in info.node.args.kwonlyargs}
            assigns: dict[str, ast.expr] = {}
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assigns[target.id] = node.value
            for site in info.calls:
                name = site.name
                if name not in _LABEL_METHODS and not (
                        name == "set"
                        and _receiver_mentions_metric(site.node)):
                    continue
                if name in ("inc", "observe", "set") and not (
                        isinstance(site.node.func, ast.Attribute)):
                    continue  # bare inc()/observe() helpers, not metric calls
                for arg, value in keyword_arguments(site.node):
                    if arg in _NON_LABEL_KWARGS:
                        continue
                    if not self._bounded(value, params, assigns, depth=0):
                        yield self.finding(
                            module, value,
                            f"label '{arg}' is not derived from a bounded "
                            "set (literal, bounded parameter, enum .name, or "
                            "allowlisted derivation); unbounded labels grow "
                            "one series per value")

    # ------------------------------------------------------------ classification
    def _bounded(self, expr: ast.expr, params: set[str],
                 assigns: dict[str, ast.expr], depth: int) -> bool:
        if depth > 6:
            return False
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, (str, int, bool, type(None)))
        if isinstance(expr, ast.Name):
            if expr.id in assigns:
                return self._bounded(assigns[expr.id], params, assigns,
                                     depth + 1)
            return expr.id in params and expr.id in BOUNDED_PARAMS
        if isinstance(expr, ast.Attribute):
            # enum member access, or an attribute named after a documented
            # bounded domain (e.g. ``budget.tier`` — tiers are validated
            # against a closed set on construction).
            return expr.attr in ("name", "value") or expr.attr in BOUNDED_PARAMS
        if isinstance(expr, ast.IfExp):
            return (self._bounded(expr.body, params, assigns, depth + 1)
                    and self._bounded(expr.orelse, params, assigns, depth + 1))
        if isinstance(expr, ast.Call):
            name = call_name(expr)
            if name in _CASE_FOLDS and isinstance(expr.func, ast.Attribute):
                return self._bounded(expr.func.value, params, assigns,
                                     depth + 1)
            if name in BOUNDED_DERIVATIONS:
                return True
            if name == "str" and len(expr.args) == 1:
                return self._bounded(expr.args[0], params, assigns, depth + 1)
            return False
        # JoinedStr (f-strings), BinOp (% / +), Subscript, ... are unbounded.
        return False
