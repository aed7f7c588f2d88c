"""The BIP solver: the HiGHS build that scipy vendors.

:class:`MilpBackend` is the off-the-shelf solver of the paper's Figure 3 and
the only one the package has: every CoPhy, ILP, shard and merge solve runs
on one ``_Highs`` object built by :func:`run_highs`.  This module is the only
importer of scipy's private ``_highspy``;
``tests/test_lp_solvers.py::TestMilpParity`` holds it to
:func:`scipy.optimize.milp` at identical options, so a scipy upgrade that
moves it or changes a default fails there under its own name.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs

from repro.exceptions import SolverError
from repro.lp.budget import SolveBudget
from repro.lp.solution import Solution, SolutionStatus
from repro.obs.metrics import (
    SOLVER_GAP, SOLVER_NODES, SOLVER_SOLVES, active_registry)


__all__ = ["MilpBackend"]


#: HiGHS 1.12 runs a feasibility-jump heuristic before the root LP.  A
#: CoPhy BIP usually closes at its first node, so the pass is a roughly fixed
#: cost on every solve: turning it off took 96 replayed served solves from
#: 13.9 to 8.6 ms (median, lower on 95 of 96; ROADMAP, design note "One
#: HiGHS object").  Off, and not an option.
FEASIBILITY_JUMP = False

#: HiGHS's soft cap on the cut pool (its default is 10,000).  A cold CoPhy
#: BIP closes at the root, and its long solves were cut separation: the
#: slowest seed-1 ``cold_tune`` call held 1,332 cuts at the root and took
#: 0.16 s; at 10 it held 63 and took 0.07 s, with a slightly better answer.
#: Summed over 128 replayed cold programs, HiGHS time fell 2,012 -> 1,297 ms
#: (ROADMAP, design note "One HiGHS object").  Fixed, and not an option.
CUT_POOL_SOFT_LIMIT = 10

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
    settings.mip_pool_soft_limit = CUT_POOL_SOFT_LIMIT
    for name, value in options.items():
        setattr(settings, name, value)
    solver = highs._Highs()
    # Silent before ``passOptions``, which logs a rejected value to stdout.
    solver.setOptionValue("output_flag", False)
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
    budget's node limit.  Every solve is counted here, once, whoever asked
    for it: ``repro_solver_solves_total`` by status, and the node count
    and the finite gap in their histograms.
    """

    def __init__(self, gap_tolerance: float = 0.0,
                 time_limit_seconds: float | None = None):
        self.gap_tolerance = max(0.0, float(gap_tolerance))
        self.time_limit_seconds = time_limit_seconds

    def solve(self, matrices: dict, gap_tolerance: float | None = None,
              time_limit_seconds: float | None = None,
              budget: "SolveBudget | None" = None) -> Solution:
        """Solve a model's export (:meth:`~repro.lp.model.Model.to_matrices`,
        with a solve's own rows, objective or relaxation)."""
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

        solution = _read_solution(matrices, solver, elapsed)
        registry = active_registry()
        registry.family(SOLVER_SOLVES).inc(status=solution.status.name.lower())
        registry.family(SOLVER_NODES).observe(float(solution.nodes_explored))
        if math.isfinite(solution.gap):
            # A failed solve reports an infinite gap, which would poison the
            # histogram's _sum.
            registry.family(SOLVER_GAP).observe(float(solution.gap))
        return solution


def _read_solution(matrices: dict, solver: highs._Highs,
                   elapsed: float) -> Solution:
    """What a HiGHS run answered, in the terms of the export's objective."""
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
    objective = info.objective_function_value + constant
    vector = np.array(solver.getSolution().col_value)
    # Snap binaries to exact integers for downstream consumers.
    vector[integral] = np.round(vector[integral])
    if mip:
        # HiGHS bounds ``c x`` alone: add the constant back, as for the
        # objective.
        gap = info.mip_gap
        bound = info.mip_dual_bound + constant
        nodes = info.mip_node_count
    else:
        # An LP: HiGHS leaves the MIP fields of its info unset.
        gap, bound, nodes = 0.0, objective, 0
    return Solution(
        status=(SolutionStatus.OPTIMAL
                if status == highs.HighsModelStatus.kOptimal
                else SolutionStatus.FEASIBLE),
        objective=objective, best_bound=bound, gap=gap, solve_seconds=elapsed,
        nodes_explored=nodes, message=message, timed_out=timed_out,
        vector=vector)
