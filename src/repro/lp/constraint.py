"""Linear constraints."""

from __future__ import annotations

import enum
from typing import Mapping

from repro.lp.expression import LinearExpression
from repro.lp.variable import Variable

__all__ = ["Constraint", "ConstraintSense"]


class ConstraintSense(enum.Enum):
    """Sense of a linear constraint (normalised to ``<=`` or ``==``)."""

    LESS_EQUAL = "<="
    EQUAL = "=="


class Constraint:
    """A linear constraint ``expression (<= | ==) 0``.

    Constraints are stored in the normalised form "expression compared to
    zero"; the original right-hand side is folded into the expression's
    constant.  :meth:`row` exposes the (coefficients, bound) view the
    solver needs.
    """

    def __init__(self, expression: LinearExpression, sense: ConstraintSense,
                 name: str = ""):
        self.expression = expression
        self.sense = sense
        self.name = name

    def named(self, name: str) -> "Constraint":
        """Return the same constraint carrying a name (fluent helper)."""
        self.name = name
        return self

    # ---------------------------------------------------------------- accessors
    def row(self) -> tuple[dict[Variable, float], float]:
        """The constraint as ``(coefficients, rhs)`` with constant moved right."""
        coefficients = self.expression.terms
        rhs = -self.expression.constant
        return coefficients, rhs

    def variables(self) -> tuple[Variable, ...]:
        return self.expression.variables()

    def is_satisfied(self, values: Mapping[Variable, float],
                     tolerance: float = 1e-6) -> bool:
        """Whether a variable assignment satisfies the constraint."""
        value = self.expression.evaluate(values)
        if self.sense is ConstraintSense.EQUAL:
            return abs(value) <= tolerance
        return value <= tolerance

    def violation(self, values: Mapping[Variable, float]) -> float:
        """Amount by which the assignment violates the constraint (0 if satisfied)."""
        value = self.expression.evaluate(values)
        if self.sense is ConstraintSense.EQUAL:
            return abs(value)
        return max(0.0, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"Constraint({self.expression!r} {self.sense.value} 0{label})"
