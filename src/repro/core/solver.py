"""The Solver component of CoPhy (Figure 3 of the paper).

Responsibilities:

1. translate the DBA's hard constraints into rows over the BIP's columns;
2. optionally apply a Lagrangian-style relaxation of the slot-assignment
   constraints (weakening them to inequalities) to avoid solver corner
   cases;
3. hand the program to the off-the-shelf BIP solver, HiGHS
   (:class:`~repro.lp.highs_backend.MilpBackend`), with a start when the
   caller has one (the scale-out shard and merge solves pass the greedy's
   answer, :meth:`~repro.core.bip_builder.CophyBip.warm_start_from`), and
   report a constraint set it proves infeasible back to the DBA (raising
   :class:`~repro.exceptions.InfeasibleProblemError`);
4. extract the recommended configuration ``X*`` from the solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from typing import Sequence

import numpy as np

from repro.core.bip_builder import CophyBip
from repro.core.constraints import TuningConstraint
from repro.exceptions import (
    InfeasibleProblemError,
    SolveInterrupted,
    SolverError,
)
from repro.indexes.configuration import Configuration
from repro.lp.budget import SolveBudget
from repro.lp.highs_backend import MilpBackend
from repro.lp.model import Objective, RowBlock
from repro.lp.solution import Solution, SolutionStatus

__all__ = ["SolveReport", "CoPhySolver"]


@dataclass
class SolveReport:
    """Everything the advisor needs to know about one solver run."""

    configuration: Configuration
    solution: Solution
    objective: float
    gap: float
    solve_seconds: float
    constraint_rows: int = 0
    relaxation_applied: bool = False
    #: True when a wall-clock budget interrupted the solve (best-so-far
    #: incumbent returned; ``gap`` is the optimality bound HiGHS proved).
    timed_out: bool = False
    #: Shape of the exported program the backend solved.
    rows: int = 0
    columns: int = 0
    nonzeros: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.solution.status is SolutionStatus.OPTIMAL

    def span_attributes(self) -> dict:
        """What a ``solve`` span records about this run."""
        return {"gap": round(self.gap, 6), "timed_out": self.timed_out,
                "rows": self.rows, "columns": self.columns,
                "nonzeros": self.nonzeros,
                "dual_bound": self.solution.best_bound}


class CoPhySolver:
    """Solves a CoPhy BIP under a set of hard constraints.

    Args:
        gap_tolerance: Relative optimality gap at which the solver may stop
            (the paper's default CPLEX setting is 5%).
        time_limit_seconds: Wall-clock limit per solve call.
        apply_relaxation: Whether to apply the Lagrangian-style relaxation of
            the slot-assignment constraints before solving (section 4.1).
    """

    def __init__(self, gap_tolerance: float = 0.05,
                 time_limit_seconds: float | None = None,
                 apply_relaxation: bool = False):
        self.gap_tolerance = max(0.0, gap_tolerance)
        self.time_limit_seconds = time_limit_seconds
        self.apply_relaxation = apply_relaxation

    # -------------------------------------------------------------------- public
    def solve(self, bip: CophyBip,
              hard_constraints: Sequence[TuningConstraint] = (),
              objective: Objective | None = None,
              gap_tolerance: float | None = None,
              time_limit_seconds: float | None = None,
              budget: SolveBudget | None = None,
              start: np.ndarray | None = None) -> SolveReport:
        """Merge constraints, solve, and extract ``X*``.

        Args:
            bip: The Theorem-1 BIP produced by :class:`BipBuilder`.
            hard_constraints: DBA constraints that must hold.
            objective: Optional replacement objective (used by the soft
                constraint scalarisation); when omitted the BIP's workload-cost
                objective is used.
            gap_tolerance: Per-call override of the early-termination gap.
            time_limit_seconds: Per-call override of the time limit.
            budget: Optional anytime budget; its remaining wall clock and
                node limit are merged into the backend's settings, and a
                fired deadline surfaces as ``SolveReport.timed_out``.
            start: Optional first incumbent, a value per column of the
                BIP; it is handed to HiGHS only if it satisfies this
                solve's export (``report.solution.warm_started``).

        The BIP is never modified: the constraints' rows, the objective and
        the relaxation only shape this solve's export of the model
        (:meth:`~repro.lp.model.Model.to_matrices`), so one BIP serves any
        number of solves.

        Raises:
            InfeasibleProblemError: When the hard constraints cannot be met.
            SolveInterrupted: When the time limit fired before HiGHS found
                an incumbent.
        """
        model = bip.model
        rows = RowBlock.concatenate([constraint.to_linear(bip)
                                     for constraint in hard_constraints])
        # The relaxation (section 4.1) exports the one-access equalities
        # ``sum_a x_qkia = y_qk`` as ``sum_a x_qkia >= y_qk``: every gamma is
        # non-negative, so a cost-minimising solution never picks two
        # accesses for one slot and the optima are the original ones.
        relaxation_applied = (self.apply_relaxation
                              and bip.accesses.columns.size > 0)
        matrices = model.to_matrices(rows=rows, objective=objective,
                                     relax=relaxation_applied)

        effective_gap = (self.gap_tolerance if gap_tolerance is None
                         else gap_tolerance)
        effective_limit = (self.time_limit_seconds
                           if time_limit_seconds is None
                           else time_limit_seconds)

        started = time.perf_counter()
        solution = MilpBackend(gap_tolerance=effective_gap,
                               time_limit_seconds=effective_limit).solve(
            matrices, budget=budget, start=start)
        if solution.status is SolutionStatus.INFEASIBLE:
            raise InfeasibleProblemError(
                "The hard constraints cannot all be satisfied",
                violated_constraints=tuple(c.name for c in hard_constraints))
        elapsed = time.perf_counter() - started

        if not solution.is_feasible:
            error = SolveInterrupted if solution.timed_out else SolverError
            raise error(f"BIP solver failed: {solution.message}")

        blocks = [matrices[key] for key in ("A_ub", "A_eq")
                  if matrices[key] is not None]
        return SolveReport(
            configuration=bip.extract_configuration(solution),
            solution=solution,
            objective=model.objective.value(solution.vector),
            gap=solution.gap,
            solve_seconds=elapsed,
            constraint_rows=rows.row_count,
            relaxation_applied=relaxation_applied,
            timed_out=solution.timed_out,
            rows=sum(block.shape[0] for block in blocks),
            columns=model.variable_count,
            nonzeros=sum(block.nnz for block in blocks),
        )
