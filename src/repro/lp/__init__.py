"""A from-scratch binary-integer-programming toolkit.

The paper's CoPhy prototype delegates to CPLEX; this package provides the
equivalent substrate without external solvers:

* a modelling layer (:class:`Variable`, :class:`LinearExpression`,
  :class:`Constraint`, :class:`Model`) in the spirit of PuLP;
* an LP-relaxation backend built on :func:`scipy.optimize.linprog` (HiGHS);
* a :class:`BranchAndBoundSolver` that adds integrality by branch and bound,
  exposing the features CoPhy depends on: a feasibility probe, an optimality
  *gap trace* over time (for the early-termination feedback of Figure 6a),
  gap-based early stopping, node/time limits and warm starts from a known
  incumbent (for interactive re-tuning, Figure 6b);
* a :class:`MilpBackend` that hands the model to HiGHS's branch and bound,
  written in C, through one ``_Highs`` object of the build scipy vendors.
"""

from repro.lp.budget import SOLVE_TIERS, SolveBudget
from repro.lp.variable import Variable, VariableKind
from repro.lp.expression import LinearExpression
from repro.lp.constraint import Constraint, ConstraintSense
from repro.lp.model import Model, ObjectiveSense
from repro.lp.solution import GapTracePoint, Solution, SolutionStatus
from repro.lp.highs_backend import LinearRelaxationBackend, MilpBackend
from repro.lp.branch_and_bound import BranchAndBoundSolver

__all__ = [
    "SOLVE_TIERS",
    "SolveBudget",
    "Variable",
    "VariableKind",
    "LinearExpression",
    "Constraint",
    "ConstraintSense",
    "Model",
    "ObjectiveSense",
    "Solution",
    "SolutionStatus",
    "GapTracePoint",
    "LinearRelaxationBackend",
    "MilpBackend",
    "BranchAndBoundSolver",
]
