"""The optimization model: columns, row blocks, an objective and one matrix export."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import SolverError
from repro.lp.constraint import Constraint, ConstraintSense
from repro.lp.expression import LinearExpression
from repro.lp.variable import Variable, VariableKind

__all__ = ["Model", "Objective", "ObjectiveSense", "RowBlock", "RowKind",
           "satisfies"]


class ObjectiveSense(enum.Enum):
    """Direction of optimization (index tuning always minimises cost)."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class RowKind(enum.IntEnum):
    """How one stored row compares its left side with its right-hand side."""

    LESS_EQUAL = 0
    EQUAL = 1
    #: An equality ``a x == b`` that the relaxed export writes as
    #: ``-a x <= -b``, i.e. ``a x >= b`` (CoPhy's slot rows, section 4.1).
    RELAXABLE = 2


@dataclass(frozen=True, eq=False)
class RowBlock:
    """Rows in CSR form over a model's columns.

    Row ``i`` is ``sum_j data[j] * x[indices[j]]`` over ``j`` in
    ``indptr[i]:indptr[i + 1]``, compared by ``kinds[i]`` with ``rhs[i]``.
    Column indices ascend within a row, which is the canonical form the
    export hands to the solvers.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    kinds: np.ndarray

    @classmethod
    def from_triplets(cls, rows: np.ndarray, columns: np.ndarray,
                      values: np.ndarray, rhs: np.ndarray,
                      kinds: np.ndarray) -> "RowBlock":
        """The block holding ``values[k]`` at ``(rows[k], columns[k])``."""
        rows = np.asarray(rows, dtype=np.int64)
        columns = np.asarray(columns, dtype=np.int64)
        order = np.lexsort((columns, rows))
        indptr = np.zeros(len(rhs) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(rhs)), out=indptr[1:])
        return cls(indptr, columns[order],
                   np.asarray(values, dtype=np.float64)[order],
                   np.asarray(rhs, dtype=np.float64),
                   np.asarray(kinds, dtype=np.int8))

    @classmethod
    def of(cls, constraints: Sequence[Constraint]) -> "RowBlock":
        """One row per constraint: its non-zero coefficients, ``-constant``
        as the right-hand side."""
        rows: list[int] = []
        columns: list[int] = []
        values: list[float] = []
        rhs: list[float] = []
        for row, constraint in enumerate(constraints):
            coefficients, bound = constraint.row()
            for variable, coefficient in coefficients.items():
                if coefficient != 0.0:
                    rows.append(row)
                    columns.append(variable.index)
                    values.append(coefficient)
            rhs.append(bound)
        kinds = [RowKind.EQUAL if constraint.sense is ConstraintSense.EQUAL
                 else RowKind.LESS_EQUAL for constraint in constraints]
        return cls.from_triplets(rows, columns, values, rhs, kinds)

    @property
    def row_count(self) -> int:
        return len(self.rhs)

    def with_entries(self, rows: np.ndarray, columns: np.ndarray,
                     values: np.ndarray, rhs: np.ndarray,
                     kinds: np.ndarray) -> "RowBlock":
        """This block with more entries in (some of) its rows, and with
        ``len(rhs)`` more rows after its own (numbered on from
        :attr:`row_count`)."""
        own_rows = np.repeat(np.arange(self.row_count), np.diff(self.indptr))
        return RowBlock.from_triplets(
            np.concatenate((own_rows, rows)),
            np.concatenate((self.indices, columns)),
            np.concatenate((self.data, values)),
            np.concatenate((self.rhs, rhs)),
            np.concatenate((self.kinds, kinds)))


@dataclass(frozen=True, eq=False)
class Objective:
    """``constant + sum_i coefficients[i] * x[columns[i]]``.

    The terms are kept in the order the sum runs in, so :meth:`value` adds
    them left to right exactly as a :class:`LinearExpression` built in that
    order would.
    """

    columns: np.ndarray
    coefficients: np.ndarray
    constant: float = 0.0

    @classmethod
    def of(cls, expression: LinearExpression) -> "Objective":
        terms = expression.terms
        return cls(np.fromiter((variable.index for variable in terms),
                               dtype=np.int64, count=len(terms)),
                   np.fromiter(terms.values(), dtype=np.float64,
                               count=len(terms)),
                   expression.constant)

    def cost_vector(self, size: int) -> np.ndarray:
        """The dense cost vector over ``size`` columns (0.0 off the terms)."""
        cost = np.zeros(size)
        cost[self.columns] = self.coefficients
        return cost

    def value(self, vector: np.ndarray) -> float:
        return self.constant + sum(
            (self.coefficients * vector[self.columns]).tolist())


class Model:
    """A linear / binary-integer optimization model.

    Columns are added one at a time as named :class:`Variable` objects
    (:meth:`add_binary` / :meth:`add_continuous`) or in bulk without any
    (:meth:`add_columns`; :meth:`column` hands out a variable for one on
    demand).  Rows live in one ordered storage: whole :class:`RowBlock`
    blocks and one-row :class:`Constraint` objects.  :meth:`to_matrices` is
    the one export the solver consumes: inequality rows
    ``A_ub x <= b_ub``, equality rows ``A_eq x == b_eq``, a cost vector
    ``c`` and variable bounds.  A solve passes its own rows, objective or
    relaxation to the export instead of editing the model.
    """

    def __init__(self, name: str = "model",
                 sense: ObjectiveSense = ObjectiveSense.MINIMIZE):
        self.name = name
        self.sense = sense
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._integral: list[int] = []
        #: Column index -> its variable, for the columns that have one.
        self._variables: dict[int, Variable] = {}
        self._rows: list[RowBlock | Constraint] = []
        self._objective = Objective.of(LinearExpression())
        self._matrix_cache: dict | None = None
        self._stacked_cache: RowBlock | None = None

    # ------------------------------------------------------------------ columns
    def _add_variable(self, name: str, kind: VariableKind, lower_bound: float,
                      upper_bound: float) -> Variable:
        variable = Variable(name=name, index=len(self._lower), kind=kind,
                            lower_bound=lower_bound, upper_bound=upper_bound)
        self._lower.append(lower_bound)
        self._upper.append(upper_bound)
        self._integral.append(1 if kind is VariableKind.BINARY else 0)
        self._variables[variable.index] = variable
        self._invalidate()
        return variable

    def add_binary(self, name: str) -> Variable:
        """Add a binary decision variable."""
        return self._add_variable(name, VariableKind.BINARY, 0.0, 1.0)

    def add_continuous(self, name: str, lower_bound: float = 0.0,
                       upper_bound: float = float("inf")) -> Variable:
        """Add a continuous decision variable."""
        if upper_bound < lower_bound:
            raise SolverError(f"Variable {name!r} has empty bounds")
        return self._add_variable(name, VariableKind.CONTINUOUS, lower_bound,
                                  upper_bound)

    def add_columns(self, count: int) -> int:
        """Add ``count`` binary columns without variables; returns the first
        column's index."""
        first = len(self._lower)
        self._lower.extend([0.0] * count)
        self._upper.extend([1.0] * count)
        self._integral.extend([1] * count)
        self._invalidate()
        return first

    def column(self, index: int) -> Variable:
        """The variable of column ``index``, created on first request for a
        bulk column (so expressions can name any column)."""
        variable = self._variables.get(index)
        if variable is None:
            if not 0 <= index < len(self._lower):
                raise SolverError(
                    f"Model {self.name!r} has no column {index}")
            binary = self._integral[index] == 1
            variable = Variable(
                name=f"col[{index}]", index=index,
                kind=VariableKind.BINARY if binary else VariableKind.CONTINUOUS,
                lower_bound=self._lower[index], upper_bound=self._upper[index])
            self._variables[index] = variable
        return variable

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The columns' variables, in the order they were created."""
        return tuple(self._variables.values())

    @property
    def variable_count(self) -> int:
        """The number of columns, with or without a variable."""
        return len(self._lower)

    def binary_variables(self) -> tuple[Variable, ...]:
        return tuple(v for v in self._variables.values()
                     if v.kind is VariableKind.BINARY)

    # --------------------------------------------------------------------- rows
    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add one row, built with the expression comparison operators."""
        self._check_row(constraint)
        if name:
            constraint.name = name
        self._rows.append(constraint)
        self._invalidate()
        return constraint

    def add_rows(self, block: RowBlock) -> RowBlock:
        """Append a block of rows (bulk input, e.g. a whole BIP's rows)."""
        self._check_block(block)
        self._rows.append(block)
        self._invalidate()
        return block

    def grow_rows(self, block: RowBlock, rows: np.ndarray, columns: np.ndarray,
                  values: np.ndarray, rhs: np.ndarray,
                  kinds: np.ndarray) -> RowBlock:
        """Replace the stored ``block`` by one with extra entries in its rows
        and ``len(rhs)`` extra rows after them (see
        :meth:`RowBlock.with_entries`); returns the replacement."""
        position = next(position for position, stored in enumerate(self._rows)
                        if stored is block)
        grown = block.with_entries(rows, columns, values, rhs, kinds)
        self._check_block(grown)
        self._rows[position] = grown
        self._invalidate()
        return grown

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The one-row constraints, in the order they were added."""
        return tuple(row for row in self._rows if isinstance(row, Constraint))

    @property
    def constraint_count(self) -> int:
        """The number of rows, blocks and one-row constraints alike."""
        return sum(1 if isinstance(row, Constraint) else row.row_count
                   for row in self._rows)

    def remove_constraints(self, constraints: Iterable[Constraint]) -> int:
        """Remove previously added one-row constraints (compared by
        identity); returns how many were removed."""
        to_remove = {id(constraint) for constraint in constraints}
        before = len(self._rows)
        self._rows = [row for row in self._rows if id(row) not in to_remove]
        removed = before - len(self._rows)
        if removed:
            self._invalidate()
        return removed

    # ---------------------------------------------------------------- objective
    def set_objective(self, objective: Objective | LinearExpression | Variable,
                      sense: ObjectiveSense | None = None) -> None:
        if isinstance(objective, Variable):
            objective = LinearExpression({objective: 1.0})
        if isinstance(objective, LinearExpression):
            self._owns_variables(objective.variables())
            objective = Objective.of(objective)
        if not isinstance(objective, Objective):
            raise SolverError("Objective must be a linear expression")
        self._objective = objective
        if sense is not None:
            self.sense = sense
        self._invalidate()

    @property
    def objective(self) -> Objective:
        return self._objective

    def objective_value(self, values: Mapping[Variable, float] | np.ndarray
                        ) -> float:
        return self._objective.value(self.vector_of(values))

    # ------------------------------------------------------------------- export
    def to_matrices(self, rows: Sequence[Constraint] = (),
                    objective: Objective | None = None,
                    relax: bool = False) -> dict:
        """Export the model in the matrix form the solver consumes.

        Returns a dict with keys ``c`` (cost vector, already negated for
        maximisation), ``A_ub``/``b_ub``, ``A_eq``/``b_eq`` (sparse CSR
        matrices, or ``None`` when there are no rows of that kind),
        ``bounds`` (an ``n x 2`` array of lower/upper bounds),
        ``integrality`` (1 for binary columns, 0 otherwise) and
        ``objective_constant``.

        A solve's own pieces go in as arguments and leave the model as it
        is: ``rows`` are appended after the stored rows, ``objective``
        replaces the model's, and ``relax`` writes every
        :attr:`RowKind.RELAXABLE` equality as its ``>=`` inequality, in
        place among the ``<=`` rows.  Only the plain export is cached.
        """
        plain = not rows and objective is None and not relax
        if plain and self._matrix_cache is not None:
            return self._matrix_cache
        block = self._stacked()
        if rows:
            for row in rows:
                self._check_row(row)
            block = _concatenated((block, RowBlock.of(rows)))
        if objective is None:
            objective = self._objective
        variable_count = self.variable_count
        cost = objective.cost_vector(variable_count)
        if self.sense is ObjectiveSense.MAXIMIZE:
            cost = -cost
        bounds = np.zeros((variable_count, 2))
        bounds[:, 0] = self._lower
        bounds[:, 1] = self._upper
        relaxed = (block.kinds == RowKind.RELAXABLE) & relax
        inequality = (block.kinds == RowKind.LESS_EQUAL) | relaxed
        a_ub, b_ub = _select(block, inequality, relaxed, variable_count)
        a_eq, b_eq = _select(block, ~inequality, relaxed, variable_count)
        matrices = {
            "c": cost,
            "A_ub": a_ub,
            "b_ub": b_ub,
            "A_eq": a_eq,
            "b_eq": b_eq,
            "bounds": bounds,
            "integrality": np.array(self._integral, dtype=np.int8),
            "objective_constant": objective.constant,
        }
        if plain:
            self._matrix_cache = matrices
        return matrices

    def _stacked(self) -> RowBlock:
        """Every stored row, one-row constraints included, as one block."""
        if self._stacked_cache is None:
            blocks: list[RowBlock] = []
            pending: list[Constraint] = []
            for row in self._rows:
                if isinstance(row, Constraint):
                    pending.append(row)
                    continue
                if pending:
                    blocks.append(RowBlock.of(pending))
                    pending = []
                blocks.append(row)
            if pending:
                blocks.append(RowBlock.of(pending))
            self._stacked_cache = _concatenated(blocks)
        return self._stacked_cache

    # ----------------------------------------------------------------- checking
    def vector_of(self, values: Mapping[Variable, float] | np.ndarray
                  ) -> np.ndarray:
        """An assignment as a column vector (absent variables are 0.0)."""
        if isinstance(values, np.ndarray):
            return values
        vector = np.zeros(self.variable_count)
        for variable, value in values.items():
            vector[variable.index] = value
        return vector

    def is_feasible_assignment(self, values: Mapping[Variable, float] | np.ndarray,
                               tolerance: float = 1e-6) -> bool:
        """Whether an assignment satisfies all rows and variable bounds."""
        return satisfies(self.to_matrices(), self.vector_of(values), tolerance)

    def violated_constraints(self, values: Mapping[Variable, float],
                             tolerance: float = 1e-6) -> tuple[Constraint, ...]:
        """The one-row constraints an assignment violates."""
        return tuple(constraint for constraint in self.constraints
                     if not constraint.is_satisfied(values, tolerance))

    def _check_block(self, block: RowBlock) -> None:
        if block.indices.size and block.indices.max() >= self.variable_count:
            raise SolverError(
                f"Row block references columns model {self.name!r} lacks")

    def _check_row(self, constraint: Constraint) -> None:
        if not isinstance(constraint, Constraint):
            raise SolverError(
                "add_constraint expects a Constraint (did you compare an "
                "expression with <=, >= or ==?)")
        self._owns_variables(constraint.variables())

    def _owns_variables(self, variables: Iterable[Variable]) -> None:
        for variable in variables:
            if self._variables.get(variable.index) is not variable:
                raise SolverError(
                    f"Variable {variable.name!r} does not belong to model {self.name!r}")

    def _invalidate(self) -> None:
        self._matrix_cache = None
        self._stacked_cache = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Model(name={self.name!r}, variables={self.variable_count}, "
                f"constraints={self.constraint_count})")


def satisfies(matrices: dict, vector: np.ndarray,
              tolerance: float = 1e-6) -> bool:
    """Whether ``vector`` meets an export's bounds, integrality and rows."""
    bounds = matrices["bounds"]
    if ((vector < bounds[:, 0] - tolerance).any()
            or (vector > bounds[:, 1] + tolerance).any()):
        return False
    binary = vector[matrices["integrality"].astype(bool)]
    if (np.minimum(np.abs(binary), np.abs(binary - 1.0)) > tolerance).any():
        return False
    a_ub, b_ub = matrices["A_ub"], matrices["b_ub"]
    if a_ub is not None and (a_ub @ vector > b_ub + tolerance).any():
        return False
    a_eq, b_eq = matrices["A_eq"], matrices["b_eq"]
    return a_eq is None or np.abs(a_eq @ vector - b_eq).max() <= tolerance


def _concatenated(blocks: Sequence[RowBlock]) -> RowBlock:
    """The blocks' rows, one after the other, as one block."""
    blocks = [block for block in blocks if block.row_count]
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        return RowBlock.of(())
    offsets = np.cumsum([0] + [block.indices.size for block in blocks[:-1]])
    return RowBlock(
        np.concatenate([np.zeros(1, dtype=np.int64)]
                       + [block.indptr[1:] + offset
                          for block, offset in zip(blocks, offsets)]),
        np.concatenate([block.indices for block in blocks]),
        np.concatenate([block.data for block in blocks]),
        np.concatenate([block.rhs for block in blocks]),
        np.concatenate([block.kinds for block in blocks]))


def _select(block: RowBlock, selected: np.ndarray, negated: np.ndarray,
            variable_count: int):
    """The selected rows as a CSR matrix and right-hand side (``None, None``
    when none is); rows flagged in ``negated`` have both sides times -1."""
    if not selected.any():
        return None, None
    lengths = np.diff(block.indptr)
    entries = np.repeat(selected, lengths)
    sign = np.where(negated, -1.0, 1.0)
    data = (block.data * np.repeat(sign, lengths))[entries]
    rhs = (block.rhs * sign)[selected]
    indptr = np.zeros(int(selected.sum()) + 1, dtype=np.int64)
    np.cumsum(lengths[selected], out=indptr[1:])
    matrix = sparse.csr_matrix((data, block.indices[entries], indptr),
                               shape=(len(rhs), variable_count))
    return matrix, rhs
