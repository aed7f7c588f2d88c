"""lock-discipline: shared INUM cache mutation stays under the context lock.

PR 4's concurrency contract: ``InumCache`` does not lock itself — every
mutating pipeline (``prepare``, ``ensure_columns``, ``adopt_built``,
lazy tensor/matrix builds, the ``workload_memo`` that hands one BIP to
every request of a workload) is serialized by the owning ``SchemaContext``'s
RLock (or the service's ``_stats_lock``).  This rule walks the name-based
call graph *backwards* from every mutator call site outside ``inum/`` and
requires each path to hit, before reaching an entry point, either

* a ``with <...lock...>:`` block in some caller, or
* a function annotated ``# reprolint: requires-lock`` (the documented
  "caller must serialize" contracts: worker-process entry points whose cache
  is process-local, and single-threaded embedding APIs).

A mutator reachable from an unannotated root is a finding: some entry point
can reach the shared cache without any serialization story.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.project import FunctionInfo, Project
from repro.analysis.rules.base import Finding, Rule

__all__ = ["LockDisciplineRule"]

MUTATORS = frozenset({"prepare", "ensure_columns", "adopt_built",
                      "build_workload", "workload_tensor", "gamma_matrix",
                      "workload_memo"})

#: Receiver tokens identifying the shared cache (or one of its views).
_RECEIVER_TOKENS = ("inum", "cache", "tensor", "gamma", "matrix")

_MAX_DEPTH = 24


def _cache_receiver(call: ast.Call) -> bool:
    if not isinstance(call.func, ast.Attribute):
        return False
    for sub in ast.walk(call.func.value):
        token = (sub.id if isinstance(sub, ast.Name)
                 else sub.attr if isinstance(sub, ast.Attribute) else "")
        if any(word in token.lower() for word in _RECEIVER_TOKENS):
            return True
    return False


class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = ("InumCache mutators must be reachable only via lock-held "
                   "or requires-lock-annotated frames")

    def check_project(self, project: Project) -> Iterable[Finding]:
        self._safe_memo: dict[str, bool] = {}
        for info in project.functions.values():
            if "/inum/" in f"/{info.module.relpath}":
                continue  # the cache's own internals
            for site in info.calls:
                if site.name not in MUTATORS:
                    continue
                if not _cache_receiver(site.node):
                    continue
                if site.in_lock or self._frame_safe(project, info, 0):
                    continue
                yield self.finding(
                    info.module, site.lineno,
                    f"'{site.name}' mutates the shared INUM cache but "
                    f"'{info.qualname.split(':', 1)[1]}' can be entered "
                    "without the context lock; wrap the call in `with "
                    "context.lock` or annotate the function "
                    "`# reprolint: requires-lock`")

    # -------------------------------------------------------------- reachability
    def _frame_safe(self, project: Project, info: FunctionInfo,
                    depth: int) -> bool:
        """True when every path into *info* holds a lock before entering."""
        if info.requires_lock:
            return True
        if depth >= _MAX_DEPTH:
            return False
        memo = self._safe_memo
        cached = memo.get(info.qualname)
        if cached is not None:
            return cached
        memo[info.qualname] = True  # optimistic for cycles
        callers = [
            (caller, site) for caller, site in project.callers_of(info.name)
            if caller.qualname != info.qualname]
        if not callers:
            memo[info.qualname] = False  # unannotated root
            return False
        safe = all(site.in_lock or self._frame_safe(project, caller, depth + 1)
                   for caller, site in callers)
        memo[info.qualname] = safe
        return safe
