"""Solver results: status, values and optimality gap."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.lp.variable import Variable

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
    values: dict[Variable, float] = field(default_factory=dict)
    best_bound: float = float("-inf")
    gap: float = float("inf")
    solve_seconds: float = 0.0
    nodes_explored: int = 0
    iterations: int = 0
    message: str = ""
    #: True when a wall-clock deadline interrupted the solve: the solution is
    #: the best-so-far incumbent, ``gap`` the optimality bound HiGHS proved.
    timed_out: bool = False
    #: Raw solution vector indexed by column (set whenever there is a
    #: solution).  It is the whole assignment — ``values`` covers only the
    #: columns that have a :class:`Variable` — and lets vectorized consumers
    #: (objective evaluation) avoid per-variable dict traffic.
    vector: np.ndarray | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status.has_solution

    def value(self, variable: Variable) -> float:
        """Value of a variable in the solution (0.0 when absent)."""
        return self.values.get(variable, 0.0)

    def selected(self, tolerance: float = 0.5) -> tuple[Variable, ...]:
        """Binary variables whose value rounds to 1."""
        return tuple(variable for variable, value in self.values.items()
                     if value >= tolerance)

    def assignment_by_name(self) -> dict[str, float]:
        """Values keyed by variable name (stable across re-solves)."""
        return {variable.name: value for variable, value in self.values.items()}

    def with_status(self, status: SolutionStatus) -> "Solution":
        """Copy of the solution with a different status (used by wrappers)."""
        return Solution(status=status, objective=self.objective,
                        values=dict(self.values), best_bound=self.best_bound,
                        gap=self.gap, solve_seconds=self.solve_seconds,
                        nodes_explored=self.nodes_explored,
                        iterations=self.iterations, message=self.message,
                        timed_out=self.timed_out, vector=self.vector)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Solution(status={self.status.value}, objective={self.objective:.4g}, "
                f"gap={self.gap:.4g}, nodes={self.nodes_explored})")
