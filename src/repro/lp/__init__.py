"""A binary-integer-programming toolkit over HiGHS.

The paper's CoPhy prototype delegates to CPLEX; this package provides the
equivalent substrate with the HiGHS build scipy vendors:

* a program as arrays: a :class:`Model` of numbered binary columns, rows
  stated in bulk as CSR :class:`RowBlock` blocks, and linear forms
  (:class:`Objective`) for the objective and for constraint measures;
* :class:`MilpBackend`, the one solver: it hands a model's matrix export to
  HiGHS's branch and bound, written in C, through one ``_Highs`` object per
  solve, with the knobs CoPhy depends on — gap-based early stopping (the
  early-termination feedback of Figure 6a) and time and node limits;
* :class:`SolveBudget`, the anytime deadline every layer shares.
"""

from repro.lp.budget import SOLVE_TIERS, SolveBudget
from repro.lp.model import Model, Objective, RowBlock, RowKind
from repro.lp.solution import GapTracePoint, Solution, SolutionStatus
from repro.lp.highs_backend import MilpBackend

__all__ = [
    "SOLVE_TIERS",
    "SolveBudget",
    "Model",
    "Objective",
    "RowBlock",
    "RowKind",
    "Solution",
    "SolutionStatus",
    "GapTracePoint",
    "MilpBackend",
]
