"""scipy/HiGHS backends: LP relaxation and direct MILP solving."""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize

from repro.lp.budget import SolveBudget
from repro.lp.model import Model, ObjectiveSense
from repro.lp.solution import Solution, SolutionStatus
from repro.lp.variable import Variable


__all__ = ["LinearRelaxationBackend", "MilpBackend"]


def _values_of(model: Model, vector: np.ndarray) -> dict[Variable, float]:
    """A solution vector read through the model's variables."""
    return {variable: float(vector[variable.index])
            for variable in model.variables}


def _status_from_scipy(status_code: int, success: bool) -> SolutionStatus:
    if success:
        return SolutionStatus.OPTIMAL
    if status_code == 2:
        return SolutionStatus.INFEASIBLE
    if status_code == 3:
        return SolutionStatus.UNBOUNDED
    return SolutionStatus.ERROR


class LinearRelaxationBackend:
    """Solves the LP relaxation of a model with :func:`scipy.optimize.linprog`.

    The branch-and-bound solver calls this repeatedly with per-node variable
    bounds; the matrices are built once by the model and shared across calls.
    """

    def __init__(self, method: str = "highs"):
        self._method = method

    def solve(self, model: Model, bounds_override: np.ndarray | None = None,
              matrices: dict | None = None) -> Solution:
        """Solve the relaxation; ``bounds_override`` replaces variable bounds.

        ``matrices`` lets callers that solve the same model many times with
        different bounds (branch and bound) pass the matrix export once
        instead of re-fetching it on every node.
        """
        if matrices is None:
            matrices = model.to_matrices()
        bounds = matrices["bounds"] if bounds_override is None else bounds_override
        started = time.perf_counter()
        result = optimize.linprog(
            c=matrices["c"],
            A_ub=matrices["A_ub"],
            b_ub=matrices["b_ub"],
            A_eq=matrices["A_eq"],
            b_eq=matrices["b_eq"],
            bounds=bounds,
            method=self._method,
        )
        elapsed = time.perf_counter() - started
        status = _status_from_scipy(result.status, result.success)
        if not status.has_solution:
            return Solution(status=status, solve_seconds=elapsed,
                            message=str(result.message))
        objective = float(result.fun) + matrices["objective_constant"]
        if model.sense is ObjectiveSense.MAXIMIZE:
            objective = -float(result.fun) + matrices["objective_constant"]
        vector = np.asarray(result.x, dtype=np.float64)
        values = _values_of(model, vector)
        return Solution(status=status, objective=objective, values=values,
                        best_bound=objective, gap=0.0, solve_seconds=elapsed,
                        iterations=int(getattr(result, "nit", 0) or 0),
                        message=str(result.message), vector=vector)


class MilpBackend:
    """Solves the integer model directly with :func:`scipy.optimize.milp` (HiGHS).

    Supports the two termination knobs CoPhy relies on: a relative optimality
    gap (early termination at e.g. 5%) and a wall-clock time limit.
    """

    def __init__(self, gap_tolerance: float = 0.0,
                 time_limit_seconds: float | None = None):
        self.gap_tolerance = max(0.0, float(gap_tolerance))
        self.time_limit_seconds = time_limit_seconds

    def solve(self, model: Model, gap_tolerance: float | None = None,
              time_limit_seconds: float | None = None,
              budget: "SolveBudget | None" = None,
              matrices: dict | None = None) -> Solution:
        """Solve ``model``, or the export ``matrices`` of it when a caller
        passes one (a solve's own rows, objective or relaxation)."""
        if matrices is None:
            matrices = model.to_matrices()
        constraints = []
        if matrices["A_ub"] is not None:
            constraints.append(optimize.LinearConstraint(
                matrices["A_ub"], -np.inf, matrices["b_ub"]))
        if matrices["A_eq"] is not None:
            constraints.append(optimize.LinearConstraint(
                matrices["A_eq"], matrices["b_eq"], matrices["b_eq"]))
        bounds = optimize.Bounds(matrices["bounds"][:, 0], matrices["bounds"][:, 1])
        options: dict[str, float] = {}
        effective_gap = self.gap_tolerance if gap_tolerance is None else gap_tolerance
        if effective_gap > 0:
            options["mip_rel_gap"] = effective_gap
        effective_time = (self.time_limit_seconds if time_limit_seconds is None
                          else time_limit_seconds)
        if budget is not None:
            budget.start()
            effective_time = budget.clamp_time_limit(effective_time)
            if budget.gap_limit is not None:
                effective_gap = max(effective_gap, budget.gap_limit)
                options["mip_rel_gap"] = effective_gap
        if effective_time is not None:
            options["time_limit"] = float(effective_time)

        started = time.perf_counter()
        result = optimize.milp(
            c=matrices["c"],
            constraints=constraints or None,
            integrality=matrices["integrality"],
            bounds=bounds,
            options=options or None,
        )
        elapsed = time.perf_counter() - started

        if result.x is None:
            status = (SolutionStatus.INFEASIBLE if result.status == 2
                      else SolutionStatus.ERROR)
            return Solution(status=status, solve_seconds=elapsed,
                            message=str(result.message))
        objective = float(result.fun) + matrices["objective_constant"]
        if model.sense is ObjectiveSense.MAXIMIZE:
            objective = -float(result.fun) + matrices["objective_constant"]
        vector = np.asarray(result.x, dtype=np.float64).copy()
        # Snap binaries to exact integers for downstream consumers.
        binary = matrices["integrality"].astype(bool)
        vector[binary] = np.round(vector[binary])
        values = _values_of(model, vector)
        gap = float(getattr(result, "mip_gap", 0.0) or 0.0)
        # HiGHS bounds the minimised ``c x`` alone: add the constant back and
        # undo the sign flip of a maximisation, as for the objective.
        bound = getattr(result, "mip_dual_bound", None)
        if bound is None:
            bound = objective
        elif model.sense is ObjectiveSense.MAXIMIZE:
            bound = -float(bound) + matrices["objective_constant"]
        else:
            bound = float(bound) + matrices["objective_constant"]
        status = (SolutionStatus.OPTIMAL if result.status == 0
                  else SolutionStatus.FEASIBLE)
        # HiGHS status 1 = iteration / time limit reached with an incumbent;
        # treat it as timed out only when a wall-clock limit was in force.
        timed_out = (result.status == 1 and effective_time is not None)
        return Solution(status=status, objective=objective, values=values,
                        best_bound=bound, gap=gap, solve_seconds=elapsed,
                        nodes_explored=int(getattr(result, "mip_node_count", 0) or 0),
                        message=str(result.message), timed_out=timed_out,
                        vector=vector)
