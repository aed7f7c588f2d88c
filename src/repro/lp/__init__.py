"""A binary-integer-programming toolkit over HiGHS.

The paper's CoPhy prototype delegates to CPLEX; this package provides the
equivalent substrate with the HiGHS build scipy vendors:

* a modelling layer (:class:`Variable`, :class:`LinearExpression`,
  :class:`Constraint`, :class:`Model`) in the spirit of PuLP;
* :class:`MilpBackend`, the one solver: it hands the model to HiGHS's
  branch and bound, written in C, through one ``_Highs`` object per solve,
  with the knobs CoPhy depends on — gap-based early stopping (the
  early-termination feedback of Figure 6a) and time and node limits;
* :class:`SolveBudget`, the anytime deadline every layer shares.
"""

from repro.lp.budget import SOLVE_TIERS, SolveBudget
from repro.lp.variable import Variable, VariableKind
from repro.lp.expression import LinearExpression
from repro.lp.constraint import Constraint, ConstraintSense
from repro.lp.model import Model, ObjectiveSense
from repro.lp.solution import GapTracePoint, Solution, SolutionStatus
from repro.lp.highs_backend import MilpBackend

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
    "MilpBackend",
]
