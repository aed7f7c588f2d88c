"""Tests for the BIP modelling layer: linear forms, row blocks and the model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError
from repro.lp.model import Model, Objective, RowBlock, RowKind


class TestExpressions:
    """Linear forms (:class:`Objective`) and the rows built from them."""

    def test_evaluate(self):
        form = Objective(np.array([0, 1]), np.array([2.0, 3.0]), 1.0)
        assert form.value(np.array([1.0, 0.0])) == pytest.approx(3.0)
        assert form.value(np.array([1.0, 1.0])) == pytest.approx(6.0)

    def test_comparisons_produce_constraints(self):
        """A ``(form, bound, kind)`` row lands in ``A_ub`` or ``A_eq`` by its
        kind, in the order the rows were given."""
        model = Model("m")
        model.add_columns(2)
        both = Objective.of([0, 1], [1.0, 1.0])
        block = RowBlock.of([(both, 1.0, RowKind.LESS_EQUAL),
                             (both, 1.0, RowKind.EQUAL)])
        assert block.kinds.tolist() == [RowKind.LESS_EQUAL, RowKind.EQUAL]
        matrices = model.to_matrices(rows=block)
        assert matrices["A_ub"].toarray().tolist() == [[1.0, 1.0]]
        assert matrices["A_eq"].toarray().tolist() == [[1.0, 1.0]]
        assert matrices["b_ub"].tolist() == matrices["b_eq"].tolist() == [1.0]

    def test_constraint_row_moves_constant_to_rhs(self):
        """``2 x + 3 <= 7`` is stored as ``2 x <= 4``; zero coefficients are
        dropped, columns ascend, and a zero bound is written ``-0.0``."""
        block = RowBlock.of([
            (Objective(np.array([0]), np.array([2.0]), 3.0), 7.0,
             RowKind.LESS_EQUAL),
            (Objective.of([2, 0, 1], [1.0, -0.0, 4.0]), 0.0,
             RowKind.LESS_EQUAL)])
        assert block.rhs[0] == pytest.approx(4.0)
        assert block.indptr.tolist() == [0, 1, 3]
        assert block.indices.tolist() == [0, 1, 2]
        assert block.data.tolist() == [2.0, 4.0, 1.0]
        assert block.rhs[1] == 0.0 and np.signbit(block.rhs[1])

    def test_constraint_satisfaction_and_violation(self):
        """An exported ``<=`` row is violated by ``A x - b`` where that is
        positive, an ``==`` row by ``|A x - b|``."""
        model = Model("m")
        model.add_columns(2)
        both = Objective.of([0, 1], [1.0, 1.0])
        matrices = model.to_matrices(rows=RowBlock.of([
            (both, 1.0, RowKind.LESS_EQUAL), (both, 1.0, RowKind.EQUAL)]))

        def violations(vector):
            return (max(0.0, *(matrices["A_ub"] @ vector - matrices["b_ub"])),
                    max(abs(matrices["A_eq"] @ vector - matrices["b_eq"])))

        assert violations(np.array([1.0, 0.0])) == (0.0, 0.0)
        assert violations(np.array([1.0, 1.0])) == (1.0, 1.0)
        assert violations(np.array([0.0, 0.0])) == (0.0, 1.0)

    @given(a=st.floats(-5, 5, allow_nan=False), b=st.floats(-5, 5, allow_nan=False),
           vx=st.floats(0, 1), vy=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_property_evaluation_is_linear(self, a, b, vx, vy):
        form = Objective.of([0, 1], [a, b])
        assert form.value(np.array([vx, vy])) == pytest.approx(
            a * vx + b * vy, abs=1e-9)


class TestModel:
    def test_variable_registration(self):
        model = Model("m")
        assert model.add_columns(2) == 0
        assert model.add_columns(3) == 2
        assert model.variable_count == 5
        matrices = model.to_matrices()
        assert matrices["integrality"].tolist() == [1] * 5
        assert matrices["bounds"].tolist() == [[0.0, 1.0]] * 5

    def test_foreign_variables_rejected(self):
        """A block naming a column the model lacks is refused, stored or
        passed to the export."""
        model = Model("m")
        model.add_columns(1)
        foreign = RowBlock.of([(Objective.of([1], [1.0]), 1.0,
                                RowKind.LESS_EQUAL)])
        with pytest.raises(SolverError):
            model.add_rows(foreign)
        with pytest.raises(SolverError):
            model.to_matrices(rows=foreign)

    def test_objective_and_feasibility_checks(self):
        model = Model("m")
        model.add_columns(2)
        model.set_objective(Objective.of([0, 1], [1.0, 2.0]))
        model.add_rows(RowBlock.of([(Objective.of([0, 1], [1.0, 1.0]), 1.0,
                                     RowKind.LESS_EQUAL)]))
        matrices = model.to_matrices()
        feasible = np.array([1.0, 0.0])
        infeasible = np.array([1.0, 1.0])
        assert (matrices["A_ub"] @ feasible <= matrices["b_ub"]).all()
        assert not (matrices["A_ub"] @ infeasible <= matrices["b_ub"]).all()
        assert model.objective.value(feasible) == pytest.approx(1.0)
        assert matrices["c"] @ feasible == pytest.approx(1.0)

    def test_remove_constraints(self):
        model = Model("m")
        model.add_columns(1)
        x = Objective.of([0], [1.0])
        kept = model.add_rows(RowBlock.of([(x, 1.0, RowKind.LESS_EQUAL)]))
        removed = model.add_rows(RowBlock.of([(x, 0.0, RowKind.LESS_EQUAL)]))
        assert model.constraint_count == 2
        assert model.remove_rows([removed]) == 1
        assert model.constraint_count == 1
        assert model.to_matrices()["b_ub"].tolist() == kept.rhs.tolist()
        assert model.remove_rows([removed]) == 0

    def test_matrix_export_shapes(self):
        model = Model("m")
        model.add_columns(2)
        both = Objective.of([0, 1], [1.0, 1.0])
        model.add_rows(RowBlock.of([(both, 3.0, RowKind.LESS_EQUAL),
                                    (Objective.of([0, 1], [2.0, 1.0]), 2.0,
                                     RowKind.EQUAL)]))
        model.set_objective(both)
        matrices = model.to_matrices()
        assert matrices["c"].shape == (2,)
        assert matrices["A_ub"].shape == (1, 2)
        assert matrices["A_eq"].shape == (1, 2)
        assert matrices["bounds"].shape == (2, 2)
        assert list(matrices["integrality"]) == [1, 1]

    def test_matrix_cache_invalidation(self):
        model = Model("m")
        model.add_columns(1)
        model.set_objective(Objective.of([0], [1.0]))
        first = model.to_matrices()
        assert model.to_matrices() is first
        model.add_rows(RowBlock.of([(Objective.of([0], [1.0]), 1.0,
                                     RowKind.LESS_EQUAL)]))
        assert model.to_matrices() is not first
