"""scipy/HiGHS backends: LP relaxation and direct MILP solving.

:class:`MilpBackend` drives the HiGHS build that scipy vendors, one
``_Highs`` object per solve.  This module is the only importer of that
private module; ``tests/test_lp_solvers.py::TestMilpParity`` holds it to
:func:`scipy.optimize.milp` at identical options, so a scipy upgrade that
moves it or changes a default fails there under its own name.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize, sparse
from scipy.optimize._highspy import _core as highs

from repro.exceptions import SolverError
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


#: HiGHS 1.12 runs a feasibility-jump heuristic before the root LP.  A
#: CoPhy BIP usually closes at its first node, so the pass is a roughly fixed
#: cost on every solve: turning it off took 96 replayed served solves from
#: 13.9 to 8.6 ms (median, lower on 95 of 96; ROADMAP, design note "One
#: HiGHS object").  Off, and not an option.
FEASIBILITY_JUMP = False

_VAR_TYPES = (highs.HighsVarType.kContinuous, highs.HighsVarType.kInteger)

#: Statuses at which HiGHS stops with an incumbent, when it has found one.
_LIMITS = frozenset({highs.HighsModelStatus.kTimeLimit,
                     highs.HighsModelStatus.kIterationLimit,
                     highs.HighsModelStatus.kSolutionLimit})


def run_highs(matrices: dict, options: dict[str, float]) -> highs._Highs:
    """One HiGHS object loaded with the export ``matrices`` and run, silently.

    The backend's one entry point into HiGHS.  ``A_ub`` and ``A_eq`` go in
    as one column-wise matrix, inequality rows first, as
    :func:`scipy.optimize.milp` stacks them; ``options`` maps HiGHS option
    names (``mip_rel_gap``, ``time_limit``, ``mip_max_nodes``) to values.
    """
    cost = matrices["c"]
    blocks, row_lower, row_upper = [], [], []
    if matrices["A_ub"] is not None:
        blocks.append(matrices["A_ub"])
        row_lower.append(np.full(matrices["b_ub"].size, -np.inf))
        row_upper.append(matrices["b_ub"])
    if matrices["A_eq"] is not None:
        blocks.append(matrices["A_eq"])
        row_lower.append(matrices["b_eq"])
        row_upper.append(matrices["b_eq"])
    matrix = (sparse.vstack(blocks, format="csc") if blocks
              else sparse.csc_array((0, cost.size)))
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
    lp.num_row_ = lp.a_matrix_.num_row_ = matrix.shape[0]
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    lp.col_cost_ = cost
    lp.col_lower_ = matrices["bounds"][:, 0]
    lp.col_upper_ = matrices["bounds"][:, 1]
    lp.row_lower_ = np.concatenate(row_lower) if blocks else np.empty(0)
    lp.row_upper_ = np.concatenate(row_upper) if blocks else np.empty(0)
    lp.integrality_ = [_VAR_TYPES[kind] for kind in matrices["integrality"]]
    settings = highs.HighsOptions()
    settings.output_flag = False
    settings.mip_heuristic_run_feasibility_jump = FEASIBILITY_JUMP
    for name, value in options.items():
        setattr(settings, name, value)
    solver = highs._Highs()
    if solver.passOptions(settings) == highs.HighsStatus.kError:
        # HiGHS would otherwise run on its defaults, console log included.
        raise SolverError(f"HiGHS rejected the solve options {options!r}")
    solver.passModel(lp)
    solver.run()
    return solver


class MilpBackend:
    """Solves the integer model directly with HiGHS (:func:`run_highs`).

    Supports the termination knobs CoPhy relies on: a relative optimality
    gap (early termination at e.g. 5%), a wall-clock time limit and a
    budget's node limit.
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
            if budget.node_limit is not None:
                options["mip_max_nodes"] = budget.node_limit
        if effective_time is not None:
            options["time_limit"] = float(effective_time)

        started = time.perf_counter()
        solver = run_highs(matrices, options)
        elapsed = time.perf_counter() - started

        status = solver.getModelStatus()
        info = solver.getInfo()
        message = solver.modelStatusToString(status)
        # A wall-clock stop; a node limit stops at kSolutionLimit instead.
        timed_out = status == highs.HighsModelStatus.kTimeLimit
        integral = matrices["integrality"].astype(bool)
        mip = bool(integral.any())
        # A MIP stopped at a limit answers with its incumbent, if it has
        # one; an LP answers only at kOptimal (as milp reads HiGHS).
        found = (status == highs.HighsModelStatus.kOptimal
                 or (mip and status in _LIMITS
                     and info.objective_function_value != highs.kHighsInf))
        if not found:
            return Solution(
                status=(SolutionStatus.INFEASIBLE
                        if status == highs.HighsModelStatus.kInfeasible
                        else SolutionStatus.ERROR),
                solve_seconds=elapsed, message=message, timed_out=timed_out)
        constant = matrices["objective_constant"]
        sign = -1.0 if model.sense is ObjectiveSense.MAXIMIZE else 1.0
        objective = sign * info.objective_function_value + constant
        vector = np.array(solver.getSolution().col_value)
        # Snap binaries to exact integers for downstream consumers.
        vector[integral] = np.round(vector[integral])
        if mip:
            # HiGHS bounds the minimised ``c x`` alone: add the constant back
            # and undo the sign flip of a maximisation, as for the objective.
            gap = info.mip_gap
            bound = sign * info.mip_dual_bound + constant
            nodes = info.mip_node_count
        else:
            # An LP: HiGHS leaves the MIP fields of its info unset.
            gap, bound, nodes = 0.0, objective, 0
        return Solution(
            status=(SolutionStatus.OPTIMAL
                    if status == highs.HighsModelStatus.kOptimal
                    else SolutionStatus.FEASIBLE),
            objective=objective, values=_values_of(model, vector),
            best_bound=bound, gap=gap, solve_seconds=elapsed,
            nodes_explored=nodes, message=message, timed_out=timed_out,
            vector=vector)
