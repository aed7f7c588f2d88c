"""Solver results: status, solution vector and optimality gap."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["SolutionStatus", "GapTracePoint", "Solution"]


class SolutionStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"          # stopped early (gap / time / node limit)
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE)


@dataclass(frozen=True)
class GapTracePoint:
    """One point of a solver's progress feedback (Figure 6a of the paper).

    The element type of ``TuningDiagnostics.gap_trace``, the wire record's
    field, which no solve fills: HiGHS reports its gap once, at the end.
    """

    elapsed_seconds: float
    incumbent_objective: float
    best_bound: float
    gap: float
    nodes_explored: int


@dataclass
class Solution:
    """Result of solving a (relaxed or integer) model."""

    status: SolutionStatus
    objective: float = float("inf")
    best_bound: float = float("-inf")
    gap: float = float("inf")
    solve_seconds: float = 0.0
    nodes_explored: int = 0
    message: str = ""
    #: True when a wall-clock deadline interrupted the solve: the solution is
    #: the best-so-far incumbent, ``gap`` the optimality bound HiGHS proved.
    timed_out: bool = False
    #: The value of every column, by column index (set whenever there is a
    #: solution; binary columns are snapped to exact 0.0 / 1.0).
    vector: np.ndarray | None = None
    #: True when the solve was handed a start that satisfied every row and
    #: bound of its program, so HiGHS held an incumbent before the root.
    warm_started: bool = False

    @property
    def is_feasible(self) -> bool:
        return self.status.has_solution

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Solution(status={self.status.value}, objective={self.objective:.4g}, "
                f"gap={self.gap:.4g}, nodes={self.nodes_explored})")
