"""Tests for HiGHS (the MILP backend) on LPs, relaxations and binary
programs, and for the solution object."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.exceptions import SolverError
from repro.lp import highs_backend
from repro.lp.budget import SolveBudget
from repro.lp.expression import LinearExpression
from repro.lp.highs_backend import MilpBackend
from repro.lp.model import Model, ObjectiveSense
from repro.lp.solution import Solution, SolutionStatus


def build_knapsack(values, weights, capacity, maximize=True) -> tuple[Model, list]:
    """A small knapsack model used throughout the solver tests."""
    model = Model("knapsack",
                  sense=ObjectiveSense.MAXIMIZE if maximize else ObjectiveSense.MINIMIZE)
    variables = [model.add_binary(f"x{i}") for i in range(len(values))]
    model.set_objective(LinearExpression.sum_of(variables, values))
    model.add_constraint(
        LinearExpression.sum_of(variables, weights) <= capacity, name="capacity")
    return model, variables


def brute_force_knapsack(values, weights, capacity) -> float:
    best = 0.0
    n = len(values)
    for mask in range(1 << n):
        weight = sum(weights[i] for i in range(n) if mask >> i & 1)
        if weight <= capacity + 1e-9:
            best = max(best, sum(values[i] for i in range(n) if mask >> i & 1))
    return best


class TestLinearRelaxationBackend:
    """Linear programs through HiGHS: a model with no binary variable, and
    the LP relaxation of a binary one (its export with the integrality
    dropped), as a caller passes it in ``matrices``."""

    def test_solves_simple_lp(self):
        model = Model("lp")
        x = model.add_continuous("x", 0.0, 10.0)
        y = model.add_continuous("y", 0.0, 10.0)
        model.add_constraint((x + y) <= 4)
        model.set_objective(-1 * x - 2 * y)  # minimise => push x+y to the bound
        solution = MilpBackend().solve(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.value(x) + solution.value(y) == pytest.approx(4.0, abs=1e-6)
        assert solution.objective == pytest.approx(-8.0, abs=1e-6)
        assert (solution.gap, solution.best_bound) == (0.0, solution.objective)

    def test_detects_infeasibility(self):
        model = Model("lp")
        x = model.add_continuous("x", 0.0, 1.0)
        model.add_constraint((1 * x) >= 2)
        model.set_objective(1 * x)
        solution = MilpBackend().solve(model)
        assert solution.status is SolutionStatus.INFEASIBLE

    def test_relaxation_of_binary_model_can_be_fractional(self):
        model, variables = build_knapsack([10, 10], [1, 1], 1.0)
        matrices = model.to_matrices()
        relaxation = {**matrices,
                      "integrality": np.zeros_like(matrices["integrality"])}
        solution = MilpBackend().solve(model, matrices=relaxation)
        assert solution.status is SolutionStatus.OPTIMAL
        total = sum(solution.value(v) for v in variables)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_bounds_override(self):
        model = Model("lp")
        x = model.add_continuous("x", 0.0, 10.0)
        model.set_objective(-1 * x)
        matrices = model.to_matrices()
        tightened = matrices["bounds"].copy()
        tightened[0, 1] = 2.0
        solution = MilpBackend().solve(model,
                                       matrices={**matrices, "bounds": tightened})
        assert solution.value(x) == pytest.approx(2.0, abs=1e-6)


class TestMilpBackend:
    def test_solves_knapsack_to_optimality(self):
        values = [6, 5, 4, 3]
        weights = [4, 3, 2, 1]
        model, variables = build_knapsack(values, weights, 6)
        solution = MilpBackend().solve(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(
            brute_force_knapsack(values, weights, 6))
        assert all(solution.value(v) in (0.0, 1.0) for v in variables)

    def test_detects_infeasibility(self):
        model = Model("m")
        x = model.add_binary("x")
        model.add_constraint((1 * x) >= 2)
        model.set_objective(1 * x)
        solution = MilpBackend().solve(model)
        assert solution.status is SolutionStatus.INFEASIBLE

    def test_gap_tolerance_accepted(self):
        values = list(range(1, 13))
        weights = [v + 0.5 for v in values]
        model, _ = build_knapsack(values, weights, 20)
        solution = MilpBackend(gap_tolerance=0.2).solve(model)
        assert solution.is_feasible
        assert solution.objective >= 0.75 * brute_force_knapsack(values, weights, 20)

    def test_node_limit_stops_without_a_timeout(self):
        """A budget's ``node_limit`` reaches HiGHS, and running out of nodes
        is not a timeout: the incumbent comes back FEASIBLE with a true
        bound.  The program needs more than one node at gap 0."""
        weights = [51, 58, 30, 28, 51, 53, 40, 25, 53, 40, 26, 25, 36, 47]
        values = [50, 62, 25, 27, 51, 58, 37, 29, 48, 38, 29, 26, 41, 50]
        capacity = 281.5
        model, _ = build_knapsack([-value for value in values], weights,
                                  capacity, maximize=False)
        optimum = -brute_force_knapsack(values, weights, capacity)
        assert MilpBackend().solve(model).nodes_explored > 1
        solution = MilpBackend().solve(model, budget=SolveBudget(node_limit=1))
        assert solution.status is SolutionStatus.FEASIBLE
        assert not solution.timed_out
        assert solution.nodes_explored == 1
        assert solution.best_bound <= optimum <= solution.objective

    def test_a_solve_is_silent(self, capfd):
        """HiGHS logs to the console by default; a served process's stdout
        is its log, so a solve writes nothing to fd 1 or fd 2."""
        model, _ = build_knapsack([6, 5, 4, 3], [4, 3, 2, 1], 6)
        capfd.readouterr()
        MilpBackend().solve(model)
        MilpBackend(gap_tolerance=0.05).solve(model, time_limit_seconds=0.0)
        assert capfd.readouterr() == ("", "")

    def test_rejected_options_raise(self):
        """HiGHS rejects a negative time limit; the solve must not go on
        under HiGHS's defaults."""
        model, _ = build_knapsack([6, 5, 4, 3], [4, 3, 2, 1], 6)
        with pytest.raises(SolverError, match="time_limit"):
            MilpBackend(time_limit_seconds=-1.0).solve(model)


class TestBranchAndBound:
    """HiGHS's branch and bound on small binary programs: optima against
    brute force, infeasibility, the gap tolerance, the node limit and the
    bound it reports."""

    def test_matches_brute_force_on_knapsacks(self):
        values = [7, 2, 9, 5, 8]
        weights = [3, 1, 5, 2, 4]
        model, _ = build_knapsack(values, weights, 8)
        solution = MilpBackend().solve(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(
            brute_force_knapsack(values, weights, 8))

    def test_minimisation_with_covering_constraint(self):
        model = Model("cover")
        x = [model.add_binary(f"x{i}") for i in range(4)]
        costs = [3.0, 2.0, 4.0, 1.0]
        model.set_objective(LinearExpression.sum_of(x, costs))
        model.add_constraint((x[0] + x[1]) >= 1)
        model.add_constraint((x[1] + x[2]) >= 1)
        model.add_constraint((x[2] + x[3]) >= 1)
        solution = MilpBackend().solve(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)  # pick x1 and x3

    def test_detects_infeasibility(self):
        model = Model("m")
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constraint((x + y) >= 3)
        model.set_objective(x + y)
        solution = MilpBackend().solve(model)
        assert solution.status is SolutionStatus.INFEASIBLE
        assert not solution.is_feasible

    def test_gap_trace_is_monotone_and_final_gap_reported(self):
        """The gap a solve reports at each rung of a falling gap tolerance
        (the trace Fig. 6a draws): each a true bound, never rising, and 0
        at the last rung."""
        values = [4, 7, 1, 9, 6, 3, 8]
        weights = [2, 5, 1, 6, 4, 2, 5]
        optimum = brute_force_knapsack(values, weights, 12)
        gaps = []
        for tolerance in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0):
            solution = MilpBackend(gap_tolerance=tolerance).solve(
                build_knapsack(values, weights, 12)[0])
            assert solution.is_feasible
            assert solution.gap <= tolerance + 1e-9
            assert solution.objective <= optimum <= solution.best_bound + 1e-9
            gaps.append(solution.gap)
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-6
        assert solution.objective == pytest.approx(optimum)

    def test_gap_tolerance_allows_early_stop(self):
        values = [4, 7, 1, 9, 6, 3, 8, 5, 2]
        weights = [2, 5, 1, 6, 4, 2, 5, 3, 1]
        exact = MilpBackend().solve(build_knapsack(values, weights, 15)[0])
        loose = MilpBackend(gap_tolerance=0.25).solve(
            build_knapsack(values, weights, 15)[0])
        assert loose.is_feasible
        assert loose.nodes_explored <= exact.nodes_explored
        # Within the advertised bound of the optimum.
        assert loose.objective >= (1 - 0.25) * exact.objective

    def test_node_limit_returns_feasible_solution(self):
        values = list(range(1, 16))
        weights = [(v * 7 % 11) + 1 for v in values]
        model, _ = build_knapsack(values, weights, 25)
        solution = MilpBackend().solve(model, budget=SolveBudget(node_limit=3))
        assert solution.nodes_explored <= 3
        assert solution.is_feasible or solution.status is SolutionStatus.ERROR

    def test_backends_expose_solution_vector(self):
        model, variables = build_knapsack([6, 5, 4], [4, 3, 2], 6)
        matrices = model.to_matrices()
        relaxation = {**matrices,
                      "integrality": np.zeros_like(matrices["integrality"])}
        relaxed = MilpBackend().solve(model, matrices=relaxation)
        assert relaxed.vector is not None
        assert relaxed.vector.shape == (len(model.variables),)
        integral = MilpBackend().solve(model)
        assert integral.vector is not None
        for variable in variables:
            assert integral.value(variable) in (0.0, 1.0)
            assert integral.value(variable) == float(
                integral.vector[variable.index])

    def test_pruned_root_closes_best_bound(self):
        """A program whose root LP is integral is proved optimal at the
        root: the best bound closes on the incumbent, with no branching."""
        model = Model("lp-integral")
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.set_objective((1.0 * x) + (1.0 * y))
        model.add_constraint((x + y) >= 1)
        solution = MilpBackend().solve(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.0)
        assert solution.best_bound == pytest.approx(1.0)
        assert solution.gap == pytest.approx(0.0)
        assert solution.nodes_explored <= 1

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_matches_brute_force(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        values = data.draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
        weights = data.draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
        capacity = data.draw(st.integers(1, 25))
        model, _ = build_knapsack([float(v) for v in values],
                                  [float(w) for w in weights], float(capacity))
        solution = MilpBackend().solve(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(
            brute_force_knapsack(values, weights, capacity))


class TestSolutionObject:
    def test_selected_and_lookup(self):
        model, variables = build_knapsack([3, 1], [1, 5], 1)
        solution = MilpBackend().solve(model)
        assert variables[0] in solution.selected()
        assert solution.value(variables[1]) == 0.0
        assert solution.assignment_by_name()["x0"] == 1.0

    def test_with_status_copies(self):
        model, _ = build_knapsack([3, 1], [1, 5], 1)
        solution = MilpBackend().solve(model)
        copy = solution.with_status(SolutionStatus.FEASIBLE)
        assert copy.status is SolutionStatus.FEASIBLE
        assert copy.objective == solution.objective
        assert copy.values == solution.values


class TestMilpDualBound:
    """``best_bound`` is in the objective's own terms: the constant added,
    the sign of a maximisation undone, and a zero bound kept as zero."""

    def test_constant_is_part_of_the_bound(self):
        model = Model("constant")
        x = model.add_binary("x")
        model.set_objective(1.0 * x + 5.0)
        model.add_constraint((1.0 * x) >= 1)
        solution = MilpBackend().solve(model)
        assert solution.objective == 6.0
        assert solution.best_bound == 6.0

    def test_maximisation_bound_has_the_objective_sign(self):
        model, _ = build_knapsack([6, 5, 4, 3], [4, 3, 2, 1], 6)
        solution = MilpBackend().solve(model)
        assert solution.best_bound == pytest.approx(solution.objective)

    def test_zero_bound_stays_zero(self):
        model = Model("zero")
        x = model.add_binary("x")
        model.set_objective(1.0 * x)
        solution = MilpBackend().solve(model)
        assert solution.objective == 0.0
        assert solution.best_bound == 0.0

    def test_cophy_bip_with_updates_at_gap_zero(self, simple_schema,
                                                simple_workload):
        from repro.core.bip_builder import BipBuilder
        from repro.core.solver import CoPhySolver
        from repro.indexes.candidate_generation import CandidateGenerator
        from repro.inum.cache import InumCache
        from repro.optimizer.whatif import WhatIfOptimizer

        assert simple_workload.update_statements()
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        bip = BipBuilder(InumCache(WhatIfOptimizer(simple_schema))).build(
            simple_workload, candidates)
        solution = CoPhySolver(gap_tolerance=0.0).solve(bip).solution
        assert solution.best_bound == pytest.approx(solution.objective)


def milp_reference(model: Model, matrices: dict, options: dict) -> Solution:
    """The parity oracle: :meth:`MilpBackend.solve` written on
    :func:`scipy.optimize.milp`, reading ``options`` as HiGHS option names."""
    constraints = []
    if matrices["A_ub"] is not None:
        constraints.append(optimize.LinearConstraint(
            matrices["A_ub"], -np.inf, matrices["b_ub"]))
    if matrices["A_eq"] is not None:
        constraints.append(optimize.LinearConstraint(
            matrices["A_eq"], matrices["b_eq"], matrices["b_eq"]))
    result = optimize.milp(
        c=matrices["c"], constraints=constraints or None,
        integrality=matrices["integrality"],
        bounds=optimize.Bounds(matrices["bounds"][:, 0],
                               matrices["bounds"][:, 1]),
        options=options or None)
    if result.x is None:
        return Solution(status=SolutionStatus.INFEASIBLE if result.status == 2
                        else SolutionStatus.ERROR)
    sign = -1.0 if model.sense is ObjectiveSense.MAXIMIZE else 1.0
    constant = matrices["objective_constant"]
    vector = np.asarray(result.x, dtype=np.float64).copy()
    binary = matrices["integrality"].astype(bool)
    vector[binary] = np.round(vector[binary])
    return Solution(
        status=(SolutionStatus.OPTIMAL if result.status == 0
                else SolutionStatus.FEASIBLE),
        objective=sign * float(result.fun) + constant,
        best_bound=sign * float(result.mip_dual_bound) + constant,
        gap=float(result.mip_gap), nodes_explored=int(result.mip_node_count),
        vector=vector)


def _cophy_bip(schema, workload, candidates=None):
    from repro.core.bip_builder import BipBuilder
    from repro.indexes.candidate_generation import CandidateGenerator
    from repro.inum.cache import InumCache
    from repro.optimizer.whatif import WhatIfOptimizer

    if candidates is None:
        candidates = CandidateGenerator(schema).generate(workload)
    return BipBuilder(InumCache(WhatIfOptimizer(schema))).build(
        workload, candidates)


def _generated_bip(tpch, kind, updates, seed):
    """A generated BIP of
    ``test_core_bip::test_solvers_agree_with_brute_force_on_generated_bips``."""
    from repro.core.constraints import StorageBudgetConstraint
    from repro.indexes.candidate_generation import (CandidateGenerator,
                                                    CandidateSet)
    from repro.workload.generators import (generate_heterogeneous_workload,
                                           generate_homogeneous_workload)

    if kind == "homogeneous":
        workload = generate_homogeneous_workload(5, seed=seed,
                                                 update_fraction=updates)
    else:
        workload = generate_heterogeneous_workload(
            5, seed=seed, update_fraction=updates, schema=tpch)
    generated = list(CandidateGenerator(tpch).generate(workload))
    candidates = CandidateSet(tpch, generated[::max(1, len(generated) // 6)][:6])
    bip = _cophy_bip(tpch, workload, candidates)
    budget = StorageBudgetConstraint(0.4 * candidates.total_size())
    return bip.model, bip.model.to_matrices(rows=budget.to_linear(bip))


@pytest.fixture(params=[True, False], ids=["jump-on", "jump-off"])
def feasibility_jump(request, monkeypatch):
    """Both settings of HiGHS's feasibility-jump pass, on both sides."""
    monkeypatch.setattr(highs_backend, "FEASIBILITY_JUMP", request.param)
    return request.param


class TestMilpParity:
    """The direct HiGHS adapter answers as :func:`scipy.optimize.milp` does
    at identical options: status, objective, vector, gap, dual bound and
    node count are equal with ``==``.  CI installs scipy unpinned, so this
    is the tripwire for an upgrade that moves ``_highspy`` or a default."""

    @staticmethod
    def assert_parity(model, matrices, feasibility_jump, gap=0.0,
                      time_limit=None):
        options = {}
        if gap > 0:
            options["mip_rel_gap"] = gap
        if time_limit is not None:
            options["time_limit"] = time_limit
        actual = MilpBackend(gap_tolerance=gap).solve(
            model, time_limit_seconds=time_limit, matrices=matrices)
        if feasibility_jump:
            expected = milp_reference(model, matrices, options)
        else:
            options["mip_heuristic_run_feasibility_jump"] = False
            with pytest.warns(RuntimeWarning, match="Unrecognized options"):
                expected = milp_reference(model, matrices, options)
        assert actual.status is expected.status
        assert actual.objective == expected.objective
        assert actual.gap == expected.gap
        assert actual.best_bound == expected.best_bound
        assert actual.nodes_explored == expected.nodes_explored
        if expected.vector is None:
            assert actual.vector is None
        else:
            assert np.array_equal(actual.vector, expected.vector)
        return actual

    @pytest.mark.parametrize("gap", [0.0, 0.05])
    def test_conftest_bip(self, simple_schema, simple_workload,
                          feasibility_jump, gap):
        model = _cophy_bip(simple_schema, simple_workload).model
        solution = self.assert_parity(model, model.to_matrices(),
                                      feasibility_jump, gap=gap)
        assert solution.status is SolutionStatus.OPTIMAL

    @pytest.mark.parametrize("gap", [0.0, 0.05])
    def test_tpch_with_updates(self, tpch, feasibility_jump, gap):
        """Under this storage budget the two feasibility-jump settings
        reach different answers, so each side must honour the setting."""
        from repro.core.constraints import StorageBudgetConstraint
        from repro.indexes.candidate_generation import CandidateGenerator
        from repro.workload.generators import generate_homogeneous_workload

        workload = generate_homogeneous_workload(8, seed=3,
                                                 update_fraction=0.4)
        assert workload.update_statements()
        candidates = CandidateGenerator(tpch).generate(workload)
        bip = _cophy_bip(tpch, workload, candidates)
        budget = StorageBudgetConstraint(0.1 * candidates.total_size())
        self.assert_parity(bip.model,
                           bip.model.to_matrices(rows=budget.to_linear(bip)),
                           feasibility_jump, gap=gap)

    @pytest.mark.parametrize("kind,updates,seed", [
        ("homogeneous", 0.0, 11), ("homogeneous", 0.5, 12),
        ("heterogeneous", 0.0, 15), ("heterogeneous", 0.5, 14)])
    def test_generated_bips(self, tpch, feasibility_jump, kind, updates, seed):
        model, matrices = _generated_bip(tpch, kind, updates, seed)
        self.assert_parity(model, matrices, feasibility_jump)

    def test_infeasible_constraint_set(self, simple_schema, simple_workload,
                                       feasibility_jump):
        from repro.core.constraints import (ComparisonSense,
                                            IndexCountConstraint,
                                            StorageBudgetConstraint)

        bip = _cophy_bip(simple_schema, simple_workload)
        rows = [*StorageBudgetConstraint(0.0).to_linear(bip),
                *IndexCountConstraint(limit=1, sense=ComparisonSense.AT_LEAST
                                      ).to_linear(bip)]
        solution = self.assert_parity(bip.model,
                                      bip.model.to_matrices(rows=rows),
                                      feasibility_jump)
        assert solution.status is SolutionStatus.INFEASIBLE

    def test_time_limited_solve(self, tpch, feasibility_jump):
        model, matrices = _generated_bip(tpch, "heterogeneous", 0.5, 14)
        solution = self.assert_parity(model, matrices, feasibility_jump,
                                      gap=0.05, time_limit=0.0)
        assert solution.status is SolutionStatus.ERROR
        assert solution.timed_out
