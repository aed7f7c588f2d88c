"""The Solver component of CoPhy (Figure 3 of the paper).

Responsibilities:

1. merge the DBA's hard constraints into the BIP as linear rows;
2. probe feasibility and report the offending constraints back to the DBA
   (raising :class:`~repro.exceptions.InfeasibleProblemError`);
3. optionally apply a Lagrangian-style relaxation of the slot-assignment
   constraints (moving them into the objective as penalty terms) to avoid
   solver corner cases;
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

from typing import Iterable, Mapping, Sequence

from repro.core.bip_builder import CophyBip
from repro.core.constraints import TuningConstraint
from repro.exceptions import InfeasibleProblemError, SolverError
from repro.indexes.configuration import Configuration
from repro.lp.branch_and_bound import BranchAndBoundSolver
from repro.lp.budget import SolveBudget
from repro.lp.constraint import Constraint, ConstraintSense
from repro.lp.expression import LinearExpression
from repro.lp.highs_backend import MilpBackend
from repro.lp.model import Model
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

    @property
    def is_optimal(self) -> bool:
        return self.solution.status is SolutionStatus.OPTIMAL


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
        relaxation_penalty: Penalty weight used by the relaxation.
    """

    def __init__(self, backend: SolverBackend = SolverBackend.MILP,
                 gap_tolerance: float = 0.05,
                 time_limit_seconds: float | None = None,
                 apply_relaxation: bool = False,
                 relaxation_penalty: float | None = None):
        self.backend = backend
        self.gap_tolerance = max(0.0, gap_tolerance)
        self.time_limit_seconds = time_limit_seconds
        self.apply_relaxation = apply_relaxation
        self.relaxation_penalty = relaxation_penalty

    # -------------------------------------------------------------------- public
    def solve(self, bip: CophyBip,
              hard_constraints: Sequence[TuningConstraint] = (),
              warm_start: Mapping[Variable, float] | None = None,
              extra_objective: LinearExpression | None = None,
              gap_tolerance: float | None = None,
              time_limit_seconds: float | None = None,
              budget: SolveBudget | None = None) -> SolveReport:
        """Merge constraints, check feasibility, solve, and extract ``X*``.

        Args:
            bip: The Theorem-1 BIP produced by :class:`BipBuilder`.
            hard_constraints: DBA constraints that must hold.
            warm_start: Optional variable assignment used as the initial
                incumbent (interactive re-tuning).
            extra_objective: Optional replacement objective (used by the soft
                constraint scalarisation); when omitted the BIP's workload-cost
                objective is used.
            gap_tolerance: Per-call override of the early-termination gap.
            time_limit_seconds: Per-call override of the time limit.
            budget: Optional anytime budget; its remaining wall clock / node
                / gap limits are merged into the backend's settings, and a
                fired deadline surfaces as ``SolveReport.timed_out``.

        The BIP is left as it was found on every exit — merged rows removed,
        relaxation undone, objective restored — including when a
        constraint's ``to_linear`` or the backend raises, so one BIP can
        serve any number of solves.

        Raises:
            InfeasibleProblemError: When the hard constraints cannot be met.
        """
        model = bip.model
        constraint_rows: list[Constraint] = []
        relaxation_applied = False
        try:
            self._merge_constraints(bip, hard_constraints, constraint_rows)
            model.set_objective(extra_objective if extra_objective is not None
                                else bip.cost_expression)
            if self.apply_relaxation:
                relaxation_applied = self._apply_relaxation(bip)

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
                if not solver.is_feasible(model):
                    raise InfeasibleProblemError(
                        "The hard constraints cannot all be satisfied",
                        violated_constraints=tuple(c.name
                                                   for c in hard_constraints))
                solution = solver.solve(model, warm_start=warm_start,
                                        gap_tolerance=effective_gap,
                                        time_limit_seconds=effective_limit,
                                        budget=budget)
            else:
                backend = MilpBackend(gap_tolerance=effective_gap,
                                      time_limit_seconds=effective_limit)
                solution = backend.solve(model, budget=budget)
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

            return SolveReport(
                configuration=bip.extract_configuration(solution),
                solution=solution,
                objective=bip.cost_expression.evaluate(solution.values),
                gap=solution.gap,
                solve_seconds=elapsed,
                gap_trace=solution.gap_trace,
                constraint_rows=len(constraint_rows),
                relaxation_applied=relaxation_applied,
                timed_out=solution.timed_out,
            )
        finally:
            # A relaxation that raised half-way is undone too: only relaxed
            # (``<=``) slot rows are flipped back.
            self._rollback(bip, constraint_rows, self.apply_relaxation)

    def check_feasibility(self, bip: CophyBip,
                          hard_constraints: Sequence[TuningConstraint] = ()) -> bool:
        """The feasibility probe of line 1 in the Solver pseudo-code."""
        constraint_rows: list[Constraint] = []
        try:
            self._merge_constraints(bip, hard_constraints, constraint_rows)
            solver = BranchAndBoundSolver()
            return solver.is_feasible(bip.model)
        finally:
            self._rollback(bip, constraint_rows, relaxation_applied=False)

    # --------------------------------------------------------------- relaxation
    def _apply_relaxation(self, bip: CophyBip) -> bool:
        """Lagrangian-style relaxation of the slot-assignment equalities.

        The equality rows ``sum_a x_qkia = y_qk`` are replaced by the weaker
        ``sum_a x_qkia >= y_qk`` inequalities while a penalty proportional to
        the selected access methods is added to the objective.  Because every
        ``gamma`` is non-negative, a cost-minimising solution never selects
        more than one access method per slot, so the relaxed program has the
        same optima as the original (this is the "key trick" of section 4.1 —
        it removes equality rows that slow some solvers down).
        """
        model = bip.model
        if not bip.slot_constraints:
            return False
        penalty = self.relaxation_penalty
        if penalty is None:
            penalty = 0.0
        new_objective_terms = bip.model.objective.terms
        for slot, constraint in bip.slot_constraints.items():
            if constraint.sense is not ConstraintSense.EQUAL:
                continue
            constraint.sense = ConstraintSense.LESS_EQUAL
            # sum_a x - y == 0  becomes  y - sum_a x <= 0  (i.e. sum_a x >= y).
            constraint.expression = constraint.expression * -1.0
            if penalty:
                for variable, coefficient in constraint.expression.terms.items():
                    if coefficient < 0:  # the x variables
                        new_objective_terms[variable] = (
                            new_objective_terms.get(variable, 0.0) + penalty)
        if penalty:
            model.set_objective(LinearExpression(new_objective_terms))
        model.invalidate_cache()
        return True

    def _undo_relaxation(self, bip: CophyBip) -> None:
        for constraint in bip.slot_constraints.values():
            if constraint.sense is ConstraintSense.LESS_EQUAL:
                constraint.sense = ConstraintSense.EQUAL
                constraint.expression = constraint.expression * -1.0
        bip.model.invalidate_cache()

    # ---------------------------------------------------------------- internals
    @staticmethod
    def _merge_constraints(bip: CophyBip,
                           hard_constraints: Sequence[TuningConstraint],
                           rows: list[Constraint]) -> None:
        """Add every constraint's rows to the model, recording each in
        ``rows`` as it lands — a ``to_linear`` that raises part-way leaves
        the caller a complete list to roll back."""
        for constraint in hard_constraints:
            for row in constraint.to_linear(bip):
                rows.append(bip.model.add_constraint(row))

    def _rollback(self, bip: CophyBip, constraint_rows: Iterable[Constraint],
                  relaxation_applied: bool) -> None:
        """Remove per-solve state so the BIP can be reused for the next call."""
        self._remove_constraints(bip.model, constraint_rows)
        if relaxation_applied:
            self._undo_relaxation(bip)
        bip.model.set_objective(bip.cost_expression)

    @staticmethod
    def _remove_constraints(model: Model, rows: Iterable[Constraint]) -> None:
        model.remove_constraints(rows)
