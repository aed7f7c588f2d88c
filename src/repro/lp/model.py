"""The optimization model: binary columns, row blocks, linear forms and one
matrix export."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import SolverError

__all__ = ["Model", "Objective", "RowBlock", "RowKind"]


class RowKind(enum.IntEnum):
    """How one stored row compares its left side with its right-hand side."""

    LESS_EQUAL = 0
    EQUAL = 1
    #: An equality ``a x == b`` that the relaxed export writes as
    #: ``-a x <= -b``, i.e. ``a x >= b`` (CoPhy's slot rows, section 4.1).
    RELAXABLE = 2


@dataclass(frozen=True, eq=False)
class Objective:
    """``constant + sum_i coefficients[i] * x[columns[i]]``: a linear form.

    It is a model's objective and a constraint's measure alike.  The terms
    are kept in the order the sum runs in, and :meth:`value` adds them left
    to right in that order.  A form names each column at most once.
    """

    columns: np.ndarray
    coefficients: np.ndarray
    constant: float = 0.0

    @classmethod
    def of(cls, columns: Iterable[int], coefficients: Iterable[float]
           ) -> "Objective":
        """``sum_i coefficients[i] * x[columns[i]]``, no constant."""
        return cls(np.fromiter(columns, dtype=np.int64),
                   np.fromiter(coefficients, dtype=np.float64))

    def cost_vector(self, size: int) -> np.ndarray:
        """The dense cost vector over ``size`` columns (0.0 off the terms)."""
        cost = np.zeros(size)
        cost[self.columns] = self.coefficients
        return cost

    def value(self, vector: np.ndarray) -> float:
        return self.constant + sum(
            (self.coefficients * vector[self.columns]).tolist())


@dataclass(frozen=True, eq=False)
class RowBlock:
    """Rows in CSR form over a model's columns.

    Row ``i`` is ``sum_j data[j] * x[indices[j]]`` over ``j`` in
    ``indptr[i]:indptr[i + 1]``, compared by ``kinds[i]`` with ``rhs[i]``.
    Column indices ascend within a row, which is the canonical form the
    export hands to the solver.
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
    def of(cls, rows: Iterable[tuple[Objective, float, RowKind]]
           ) -> "RowBlock":
        """One row per ``(form, bound, kind)``: ``form kind bound``.

        A row keeps the form's non-zero coefficients; its right-hand side
        is ``-(constant - bound)``, so a zero bound over a form without a
        constant is written ``-0.0``.
        """
        row_ids: list[np.ndarray] = []
        columns: list[np.ndarray] = []
        values: list[np.ndarray] = []
        rhs: list[float] = []
        kinds: list[int] = []
        for row, (form, bound, kind) in enumerate(rows):
            kept = form.coefficients != 0.0
            row_ids.append(np.full(int(kept.sum()), row))
            columns.append(form.columns[kept])
            values.append(form.coefficients[kept])
            rhs.append(-(form.constant - bound))
            kinds.append(kind)
        return cls.from_triplets(
            np.concatenate([np.zeros(0, dtype=np.int64), *row_ids]),
            np.concatenate([np.zeros(0, dtype=np.int64), *columns]),
            np.concatenate([np.zeros(0), *values]), rhs, kinds)

    @classmethod
    def concatenate(cls, blocks: Sequence["RowBlock"]) -> "RowBlock":
        """The blocks' rows, one after the other, as one block."""
        blocks = [block for block in blocks if block.row_count]
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls.of(())
        offsets = np.cumsum([0] + [block.indices.size
                                   for block in blocks[:-1]])
        return cls(
            np.concatenate([np.zeros(1, dtype=np.int64)]
                           + [block.indptr[1:] + offset
                              for block, offset in zip(blocks, offsets)]),
            np.concatenate([block.indices for block in blocks]),
            np.concatenate([block.data for block in blocks]),
            np.concatenate([block.rhs for block in blocks]),
            np.concatenate([block.kinds for block in blocks]))

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


class Model:
    """A binary integer program: binary columns, row blocks and an objective.

    Columns are numbered in the order :meth:`add_columns` adds them.  Rows
    live in one ordered list of :class:`RowBlock` blocks.
    :meth:`to_matrices` is the one export the solver consumes: inequality
    rows ``A_ub x <= b_ub``, equality rows ``A_eq x == b_eq``, a cost vector
    ``c`` and column bounds.  A solve passes its own rows, objective or
    relaxation to the export instead of editing the model.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._columns = 0
        self._rows: list[RowBlock] = []
        self._objective = Objective.of((), ())
        self._matrix_cache: dict | None = None
        self._stacked_cache: RowBlock | None = None

    # ------------------------------------------------------------------ columns
    def add_columns(self, count: int) -> int:
        """Add ``count`` binary columns; returns the first one's index."""
        first = self._columns
        self._columns += count
        self._invalidate()
        return first

    @property
    def variable_count(self) -> int:
        """The number of columns."""
        return self._columns

    # --------------------------------------------------------------------- rows
    def add_rows(self, block: RowBlock) -> RowBlock:
        """Append a block of rows."""
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

    def remove_rows(self, blocks: Iterable[RowBlock]) -> int:
        """Remove stored blocks (compared by identity); returns how many
        were removed."""
        to_remove = {id(block) for block in blocks}
        before = len(self._rows)
        self._rows = [block for block in self._rows
                      if id(block) not in to_remove]
        removed = before - len(self._rows)
        if removed:
            self._invalidate()
        return removed

    @property
    def constraint_count(self) -> int:
        """The number of rows."""
        return sum(block.row_count for block in self._rows)

    # ---------------------------------------------------------------- objective
    def set_objective(self, objective: Objective) -> None:
        self._objective = objective
        self._invalidate()

    @property
    def objective(self) -> Objective:
        return self._objective

    # ------------------------------------------------------------------- export
    def to_matrices(self, rows: RowBlock | None = None,
                    objective: Objective | None = None,
                    relax: bool = False) -> dict:
        """Export the model in the matrix form the solver consumes.

        Returns a dict with keys ``c`` (cost vector), ``A_ub``/``b_ub``,
        ``A_eq``/``b_eq`` (sparse CSR matrices, or ``None`` when there are
        no rows of that kind), ``bounds`` (an ``n x 2`` array of lower/upper
        bounds), ``integrality`` (1 for every column) and
        ``objective_constant``.

        A solve's own pieces go in as arguments and leave the model as it
        is: ``rows`` are appended after the stored rows, ``objective``
        replaces the model's, and ``relax`` writes every
        :attr:`RowKind.RELAXABLE` equality as its ``>=`` inequality, in
        place among the ``<=`` rows.  Only the plain export is cached.
        """
        extra = rows is not None and rows.row_count > 0
        plain = not extra and objective is None and not relax
        if plain and self._matrix_cache is not None:
            return self._matrix_cache
        block = self._stacked()
        if extra:
            self._check_block(rows)
            block = RowBlock.concatenate((block, rows))
        if objective is None:
            objective = self._objective
        variable_count = self._columns
        bounds = np.zeros((variable_count, 2))
        bounds[:, 1] = 1.0
        relaxed = (block.kinds == RowKind.RELAXABLE) & relax
        inequality = (block.kinds == RowKind.LESS_EQUAL) | relaxed
        a_ub, b_ub = _select(block, inequality, relaxed, variable_count)
        a_eq, b_eq = _select(block, ~inequality, relaxed, variable_count)
        matrices = {
            "c": objective.cost_vector(variable_count),
            "A_ub": a_ub,
            "b_ub": b_ub,
            "A_eq": a_eq,
            "b_eq": b_eq,
            "bounds": bounds,
            "integrality": np.ones(variable_count, dtype=np.int8),
            "objective_constant": objective.constant,
        }
        if plain:
            self._matrix_cache = matrices
        return matrices

    def _stacked(self) -> RowBlock:
        """Every stored row as one block."""
        if self._stacked_cache is None:
            self._stacked_cache = RowBlock.concatenate(self._rows)
        return self._stacked_cache

    def _check_block(self, block: RowBlock) -> None:
        if block.indices.size and block.indices.max() >= self._columns:
            raise SolverError(
                f"Row block references columns model {self.name!r} lacks")

    def _invalidate(self) -> None:
        self._matrix_cache = None
        self._stacked_cache = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Model(name={self.name!r}, variables={self.variable_count}, "
                f"constraints={self.constraint_count})")


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
