"""Project-wide symbol table and call graph for reprolint.

The model is deliberately name-based: a call site ``x.m(...)`` links to every
project function named ``m`` and a bare call ``f(...)`` to every project
function named ``f``.  That over-approximates the true call graph, which is
the right bias for a linter — rules that walk *callers* (lock discipline) see
a superset of real paths, so a clean run is meaningful, and noisy edges are
silenced with annotations rather than by weakening the graph.

Lock tracking is lexical: every ``with`` statement whose context expression
mentions a name containing ``lock`` contributes a line range, and a call site
inside such a range is considered lock-protected.  Lambdas are folded into
their enclosing function (the closures the repo passes to retry policies run
synchronously on the caller's frame); nested ``def``s get their own frame.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.loader import SourceModule, iter_source_files, load_module

__all__ = ["CallSite", "FunctionInfo", "Project", "load_project",
           "call_name"]


def call_name(node: ast.Call) -> str | None:
    """The simple name a call dispatches on: ``m`` for ``x.m()`` and ``f()``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _mentions_lock(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
    return False


@dataclass
class CallSite:
    name: str               # simple callee name
    node: ast.Call
    lineno: int
    in_lock: bool           # lexically inside a with-lock range


@dataclass
class FunctionInfo:
    qualname: str           # "repro.api.tuner:Tuner.tune"
    name: str               # simple name, "tune"
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    start: int
    end: int
    requires_lock: bool = False
    lock_ranges: list[tuple[int, int]] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)

    def in_lock_range(self, lineno: int) -> bool:
        return any(start <= lineno <= end for start, end in self.lock_ranges)


class _FunctionCollector(ast.NodeVisitor):
    """Collect FunctionInfo frames, with-lock ranges and call sites."""

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.functions: list[FunctionInfo] = []
        self._class_stack: list[str] = []
        self._frame_stack: list[FunctionInfo] = []

    # -------------------------------------------------------------- structure
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self,
                        node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        prefix = ".".join(self._class_stack)
        local = f"{prefix}.{node.name}" if prefix else node.name
        qualname = f"{self.module.modname}:{local}"
        # An annotation counts on the signature lines or anywhere in the
        # contiguous comment/decorator block directly above the ``def``.
        first = node.lineno
        lines = self.module.lines
        while first > 1:
            above = lines[first - 2].strip()
            if above.startswith("#") or above.startswith("@"):
                first -= 1
            else:
                break
        annotated = any(
            line in self.module.lock_annotations
            for line in range(first, node.body[0].lineno))
        info = FunctionInfo(qualname=qualname, name=node.name,
                            module=self.module, node=node,
                            start=node.lineno,
                            end=node.end_lineno or node.lineno,
                            requires_lock=annotated)
        self.functions.append(info)
        self._frame_stack.append(info)
        self.generic_visit(node)
        self._frame_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # ------------------------------------------------------------------ facts
    def _frame(self) -> FunctionInfo | None:
        return self._frame_stack[-1] if self._frame_stack else None

    def visit_With(self, node: ast.With) -> None:
        frame = self._frame()
        if frame is not None and any(_mentions_lock(item.context_expr)
                                     for item in node.items):
            frame.lock_ranges.append((node.lineno,
                                      node.end_lineno or node.lineno))
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        frame = self._frame()
        name = call_name(node)
        if frame is not None and name is not None:
            frame.calls.append(CallSite(
                name=name, node=node, lineno=node.lineno,
                in_lock=frame.in_lock_range(node.lineno)))
        self.generic_visit(node)


class Project:
    """Every loaded module plus derived symbol/call-graph indexes."""

    def __init__(self, root: Path, modules: list[SourceModule],
                 errors: list[tuple[str, int, str]]) -> None:
        self.root = root
        self.modules = modules
        self.errors = errors  # (relpath, lineno, message) parse failures
        self.functions: dict[str, FunctionInfo] = {}
        self._functions_by_name: dict[str, list[FunctionInfo]] = {}
        self._callers_by_name: dict[str, list[tuple[FunctionInfo, CallSite]]] = {}
        for module in modules:
            collector = _FunctionCollector(module)
            collector.visit(module.tree)
            for info in collector.functions:
                self.functions[info.qualname] = info
                self._functions_by_name.setdefault(info.name, []).append(info)
                for site in info.calls:
                    self._callers_by_name.setdefault(site.name, []).append(
                        (info, site))

    # ------------------------------------------------------------------ query
    def iter_modules(self) -> Iterator[SourceModule]:
        return iter(self.modules)

    def find_module(self, suffix: str) -> SourceModule | None:
        """The module whose relpath ends with *suffix* (posix), if any."""
        for module in self.modules:
            if module.relpath.endswith(suffix):
                return module
        return None

    def functions_named(self, name: str) -> list[FunctionInfo]:
        return self._functions_by_name.get(name, [])

    def callers_of(self, name: str) -> list[tuple[FunctionInfo, CallSite]]:
        """Every (caller frame, call site) pair dispatching on *name*."""
        return self._callers_by_name.get(name, [])

    def enclosing_function(self, module: SourceModule,
                           lineno: int) -> FunctionInfo | None:
        """The innermost function frame of *module* containing *lineno*."""
        best: FunctionInfo | None = None
        for info in self.functions.values():
            if info.module is not module or not info.start <= lineno <= info.end:
                continue
            if best is None or info.start > best.start:
                best = info
        return best

    # -------------------------------------------------- assignment extraction
    def assigned_strings(self, module: SourceModule, name: str) -> set[str]:
        """String constants in the module-level assignment of *name*."""
        for node in module.tree.body:
            if isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            else:
                continue
            if value is not None and any(
                    isinstance(target, ast.Name) and target.id == name
                    for target in targets):
                return {sub.value for sub in ast.walk(value)
                        if isinstance(sub, ast.Constant)
                        and isinstance(sub.value, str)}
        return set()


def load_project(root: Path,
                 paths: Iterable[Path] | None = None) -> Project:
    """Load every module under *root* (or the explicit *paths*) into a Project."""
    root = root.resolve()
    modules: list[SourceModule] = []
    errors: list[tuple[str, int, str]] = []
    for path in (paths if paths is not None else iter_source_files(root)):
        try:
            modules.append(load_module(path, root))
        except SyntaxError as exc:
            rel = path.resolve().relative_to(root).as_posix()
            errors.append((rel, exc.lineno or 1, f"syntax error: {exc.msg}"))
    return Project(root, modules, errors)
