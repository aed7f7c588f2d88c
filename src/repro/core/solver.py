"""The Solver component of CoPhy (Figure 3 of the paper).

Responsibilities:

1. merge the DBA's hard constraints into the BIP as linear rows;
2. probe feasibility and report the offending constraints back to the DBA
   (raising :class:`~repro.exceptions.InfeasibleProblemError`);
3. optionally apply a Lagrangian-style relaxation of the slot-assignment
   constraints (weakening them to inequalities) to avoid solver corner
   cases;
4. hand the program to the off-the-shelf BIP solver — either the pure-Python
   branch-and-bound solver (which provides the gap trace used for early
   termination feedback and warm starts for interactive tuning) or the
   scipy/HiGHS MILP backend;
5. extract the recommended configuration ``X*`` from the solution.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

from typing import Mapping, Sequence

import numpy as np

from repro.core.bip_builder import CophyBip
from repro.core.constraints import TuningConstraint
from repro.exceptions import InfeasibleProblemError, SolverError
from repro.indexes.configuration import Configuration
from repro.lp.branch_and_bound import BranchAndBoundSolver
from repro.lp.budget import SolveBudget
from repro.lp.constraint import Constraint
from repro.lp.highs_backend import MilpBackend
from repro.lp.model import Objective
from repro.lp.solution import GapTracePoint, Solution, SolutionStatus
from repro.lp.variable import Variable
from repro.obs.metrics import GAP_BUCKETS, active_registry

__all__ = ["SolverBackend", "SolveReport", "CoPhySolver"]


class SolverBackend(enum.Enum):
    """Which off-the-shelf BIP solver to delegate to."""

    BRANCH_AND_BOUND = "branch_and_bound"
    MILP = "milp"


@dataclass
class SolveReport:
    """Everything the advisor needs to know about one solver run."""

    configuration: Configuration
    solution: Solution
    objective: float
    gap: float
    solve_seconds: float
    gap_trace: tuple[GapTracePoint, ...] = ()
    constraint_rows: int = 0
    relaxation_applied: bool = False
    #: True when a wall-clock budget interrupted the solve (best-so-far
    #: incumbent returned; ``gap`` is its closed-form optimality bound).
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
        backend: Off-the-shelf solver to use.  The branch-and-bound backend
            exposes gap traces and warm starts; the MILP backend is the
            fastest way to just get an answer.
        gap_tolerance: Relative optimality gap at which the solver may stop
            (the paper's default CPLEX setting is 5%).
        time_limit_seconds: Wall-clock limit per solve call.
        apply_relaxation: Whether to apply the Lagrangian-style relaxation of
            the slot-assignment constraints before solving (section 4.1).
    """

    def __init__(self, backend: SolverBackend = SolverBackend.MILP,
                 gap_tolerance: float = 0.05,
                 time_limit_seconds: float | None = None,
                 apply_relaxation: bool = False):
        self.backend = backend
        self.gap_tolerance = max(0.0, gap_tolerance)
        self.time_limit_seconds = time_limit_seconds
        self.apply_relaxation = apply_relaxation

    # -------------------------------------------------------------------- public
    def solve(self, bip: CophyBip,
              hard_constraints: Sequence[TuningConstraint] = (),
              warm_start: Mapping[Variable, float] | np.ndarray | None = None,
              objective: Objective | None = None,
              gap_tolerance: float | None = None,
              time_limit_seconds: float | None = None,
              budget: SolveBudget | None = None) -> SolveReport:
        """Merge constraints, check feasibility, solve, and extract ``X*``.

        Args:
            bip: The Theorem-1 BIP produced by :class:`BipBuilder`.
            hard_constraints: DBA constraints that must hold.
            warm_start: Optional assignment (a column vector, e.g. from
                :meth:`CophyBip.warm_start_from`) used as the initial
                incumbent (interactive re-tuning).
            objective: Optional replacement objective (used by the soft
                constraint scalarisation); when omitted the BIP's workload-cost
                objective is used.
            gap_tolerance: Per-call override of the early-termination gap.
            time_limit_seconds: Per-call override of the time limit.
            budget: Optional anytime budget; its remaining wall clock / node
                / gap limits are merged into the backend's settings, and a
                fired deadline surfaces as ``SolveReport.timed_out``.

        The BIP is never modified: the constraints' rows, the objective and
        the relaxation only shape this solve's export of the model
        (:meth:`~repro.lp.model.Model.to_matrices`), so one BIP serves any
        number of solves.

        Raises:
            InfeasibleProblemError: When the hard constraints cannot be met.
        """
        model = bip.model
        rows = self._rows(bip, hard_constraints)
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

        if budget is not None:
            budget.start()

        started = time.perf_counter()
        if self.backend is SolverBackend.BRANCH_AND_BOUND:
            solver = BranchAndBoundSolver(gap_tolerance=effective_gap,
                                          time_limit_seconds=effective_limit)
            if not solver.is_feasible(model, matrices):
                raise InfeasibleProblemError(
                    "The hard constraints cannot all be satisfied",
                    violated_constraints=tuple(c.name
                                               for c in hard_constraints))
            solution = solver.solve(model, warm_start=warm_start,
                                    gap_tolerance=effective_gap,
                                    time_limit_seconds=effective_limit,
                                    budget=budget, matrices=matrices)
        else:
            backend = MilpBackend(gap_tolerance=effective_gap,
                                  time_limit_seconds=effective_limit)
            solution = backend.solve(model, budget=budget, matrices=matrices)
            # The branch-and-bound backend records its own solve metrics
            # (it also owns the nodes histogram); the MILP backend is
            # instrumented here so repro_solver_solves_total counts every
            # solve regardless of backend.
            registry = active_registry()
            registry.counter(
                "repro_solver_solves_total",
                "Solver runs by outcome status",
                ("status",)).inc(status=solution.status.name.lower())
            if math.isfinite(solution.gap):
                registry.histogram(
                    "repro_solver_gap",
                    "Relative optimality gap per finished solve",
                    buckets=GAP_BUCKETS).observe(float(solution.gap))
            if solution.status is SolutionStatus.INFEASIBLE:
                raise InfeasibleProblemError(
                    "The hard constraints cannot all be satisfied",
                    violated_constraints=tuple(c.name
                                               for c in hard_constraints))
        elapsed = time.perf_counter() - started

        if not solution.is_feasible:
            raise SolverError(f"BIP solver failed: {solution.message}")

        blocks = [matrices[key] for key in ("A_ub", "A_eq")
                  if matrices[key] is not None]
        return SolveReport(
            configuration=bip.extract_configuration(solution),
            solution=solution,
            objective=model.objective.value(solution.vector),
            gap=solution.gap,
            solve_seconds=elapsed,
            gap_trace=solution.gap_trace,
            constraint_rows=len(rows),
            relaxation_applied=relaxation_applied,
            timed_out=solution.timed_out,
            rows=sum(block.shape[0] for block in blocks),
            columns=model.variable_count,
            nonzeros=sum(block.nnz for block in blocks),
        )

    def check_feasibility(self, bip: CophyBip,
                          hard_constraints: Sequence[TuningConstraint] = ()) -> bool:
        """The feasibility probe of line 1 in the Solver pseudo-code."""
        matrices = bip.model.to_matrices(
            rows=self._rows(bip, hard_constraints))
        return BranchAndBoundSolver().is_feasible(bip.model, matrices)

    # ---------------------------------------------------------------- internals
    @staticmethod
    def _rows(bip: CophyBip,
              hard_constraints: Sequence[TuningConstraint]) -> list[Constraint]:
        """Every hard constraint's rows over the BIP."""
        return [row for constraint in hard_constraints
                for row in constraint.to_linear(bip)]
