"""Tests for HiGHS (the MILP backend) on LPs, relaxations and binary
programs, and for the solution object."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse

from repro.exceptions import SolverError
from repro.lp import highs_backend
from repro.lp.budget import SolveBudget
from repro.lp.highs_backend import MilpBackend
from repro.lp.model import Model, Objective, RowBlock, RowKind
from repro.lp.solution import Solution, SolutionStatus


def binary_model(cost, rows=(), constant=0.0) -> Model:
    """A binary program minimising ``cost`` (plus ``constant``) under
    ``rows``, each ``(coefficients, bound)`` read as ``coefficients x <=
    bound``."""
    model = Model("binary")
    model.add_columns(len(cost))
    model.set_objective(Objective(np.arange(len(cost)),
                                  np.array(cost, dtype=float), constant))
    model.add_rows(RowBlock.of(
        [(Objective.of(range(len(row)), row), bound, RowKind.LESS_EQUAL)
         for row, bound in rows]))
    return model


def build_knapsack(values, weights, capacity) -> Model:
    """A small knapsack used throughout the solver tests: it minimises
    ``-value`` under the capacity."""
    return binary_model([-value for value in values], [(weights, capacity)])


def lp_export(cost, rows, upper) -> dict:
    """The export of a linear program over continuous columns in
    ``[0, upper]``: minimise ``cost x`` under ``A x <= b`` per
    ``(A_row, b)`` in ``rows``."""
    return {
        "c": np.array(cost, dtype=float),
        "A_ub": sparse.csr_matrix(np.array([row for row, _ in rows],
                                           dtype=float)),
        "b_ub": np.array([bound for _, bound in rows], dtype=float),
        "A_eq": None,
        "b_eq": None,
        "bounds": np.column_stack((np.zeros(len(cost)),
                                   np.array(upper, dtype=float))),
        "integrality": np.zeros(len(cost), dtype=np.int8),
        "objective_constant": 0.0,
    }


def brute_force_knapsack(values, weights, capacity) -> float:
    best = 0.0
    n = len(values)
    for mask in range(1 << n):
        weight = sum(weights[i] for i in range(n) if mask >> i & 1)
        if weight <= capacity + 1e-9:
            best = max(best, sum(values[i] for i in range(n) if mask >> i & 1))
    return best


class TestLinearRelaxationBackend:
    """Linear programs through HiGHS: an export with no integer column, and
    the LP relaxation of a binary model (its export with the integrality
    dropped), passed to the solver as the export dict."""

    def test_solves_simple_lp(self):
        # minimise -x - 2y under x + y <= 4 => push x + y to the bound
        solution = MilpBackend().solve(
            lp_export([-1.0, -2.0], [([1.0, 1.0], 4.0)], [10.0, 10.0]))
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.vector.sum() == pytest.approx(4.0, abs=1e-6)
        assert solution.objective == pytest.approx(-8.0, abs=1e-6)
        assert (solution.gap, solution.best_bound) == (0.0, solution.objective)

    def test_detects_infeasibility(self):
        # x in [0, 1] with x >= 2
        solution = MilpBackend().solve(
            lp_export([1.0], [([-1.0], -2.0)], [1.0]))
        assert solution.status is SolutionStatus.INFEASIBLE

    def test_relaxation_of_binary_model_can_be_fractional(self):
        matrices = build_knapsack([10, 10], [1, 1], 1.0).to_matrices()
        relaxation = {**matrices,
                      "integrality": np.zeros_like(matrices["integrality"])}
        solution = MilpBackend().solve(relaxation)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.vector.sum() == pytest.approx(1.0, abs=1e-6)

    def test_bounds_override(self):
        matrices = lp_export([-1.0], [([1.0], 10.0)], [10.0])
        tightened = matrices["bounds"].copy()
        tightened[0, 1] = 2.0
        solution = MilpBackend().solve({**matrices, "bounds": tightened})
        assert solution.vector[0] == pytest.approx(2.0, abs=1e-6)


class TestMilpBackend:
    def test_solves_knapsack_to_optimality(self):
        values = [6, 5, 4, 3]
        weights = [4, 3, 2, 1]
        solution = MilpBackend().solve(
            build_knapsack(values, weights, 6).to_matrices())
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(
            -brute_force_knapsack(values, weights, 6))
        assert all(value in (0.0, 1.0) for value in solution.vector)

    def test_detects_infeasibility(self):
        # binary x with x >= 2
        solution = MilpBackend().solve(
            binary_model([1.0], [([-1.0], -2.0)]).to_matrices())
        assert solution.status is SolutionStatus.INFEASIBLE

    def test_gap_tolerance_accepted(self):
        values = list(range(1, 13))
        weights = [v + 0.5 for v in values]
        solution = MilpBackend(gap_tolerance=0.2).solve(
            build_knapsack(values, weights, 20).to_matrices())
        assert solution.is_feasible
        assert -solution.objective >= 0.75 * brute_force_knapsack(
            values, weights, 20)

    def test_node_limit_stops_without_a_timeout(self):
        """A budget's ``node_limit`` reaches HiGHS, and running out of nodes
        is not a timeout: the incumbent comes back FEASIBLE with a true
        bound.  The program needs more than one node at gap 0: 39 under the
        cut-pool cap (45 on HiGHS's default pool), where the incumbent at
        one node is -312 against an optimum of -316."""
        weights = [57, 53, 46, 52, 28, 54, 29, 53, 52, 21, 48, 31, 58, 20]
        values = [54, 50, 43, 54, 32, 50, 32, 48, 52, 26, 51, 34, 61, 22]
        capacity = 301.5
        matrices = build_knapsack(values, weights, capacity).to_matrices()
        optimum = -brute_force_knapsack(values, weights, capacity)
        assert MilpBackend().solve(matrices).nodes_explored > 1
        solution = MilpBackend().solve(matrices,
                                       budget=SolveBudget(node_limit=1))
        assert solution.status is SolutionStatus.FEASIBLE
        assert not solution.timed_out
        assert solution.nodes_explored == 1
        assert solution.best_bound <= optimum <= solution.objective

    def test_a_solve_is_silent(self, capfd):
        """HiGHS logs to the console by default; a served process's stdout
        is its log, so a solve writes nothing to fd 1 or fd 2."""
        matrices = build_knapsack([6, 5, 4, 3], [4, 3, 2, 1], 6).to_matrices()
        capfd.readouterr()
        MilpBackend().solve(matrices)
        MilpBackend(gap_tolerance=0.05).solve(matrices,
                                              time_limit_seconds=0.0)
        assert capfd.readouterr() == ("", "")

    def test_rejected_options_raise(self, capfd):
        """HiGHS rejects a negative time limit; the solve must not go on
        under HiGHS's defaults, and the rejection is the exception alone:
        nothing reaches fd 1 or fd 2."""
        matrices = build_knapsack([6, 5, 4, 3], [4, 3, 2, 1], 6).to_matrices()
        capfd.readouterr()
        with pytest.raises(SolverError, match="time_limit"):
            MilpBackend(time_limit_seconds=-1.0).solve(matrices)
        assert capfd.readouterr() == ("", "")


class TestBranchAndBound:
    """HiGHS's branch and bound on small binary programs: optima against
    brute force, infeasibility, the gap tolerance, the node limit and the
    bound it reports."""

    def test_matches_brute_force_on_knapsacks(self):
        values = [7, 2, 9, 5, 8]
        weights = [3, 1, 5, 2, 4]
        solution = MilpBackend().solve(
            build_knapsack(values, weights, 8).to_matrices())
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(
            -brute_force_knapsack(values, weights, 8))

    def test_minimisation_with_covering_constraint(self):
        # x0 + x1 >= 1, x1 + x2 >= 1, x2 + x3 >= 1, written as <= rows
        model = binary_model([3.0, 2.0, 4.0, 1.0],
                             [([-1.0, -1.0, 0.0, 0.0], -1.0),
                              ([0.0, -1.0, -1.0, 0.0], -1.0),
                              ([0.0, 0.0, -1.0, -1.0], -1.0)])
        solution = MilpBackend().solve(model.to_matrices())
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)  # pick x1 and x3

    def test_detects_infeasibility(self):
        # x + y >= 3 over two binaries
        solution = MilpBackend().solve(
            binary_model([1.0, 1.0], [([-1.0, -1.0], -3.0)]).to_matrices())
        assert solution.status is SolutionStatus.INFEASIBLE
        assert not solution.is_feasible

    def test_gap_trace_is_monotone_and_final_gap_reported(self):
        """The gap a solve reports at each rung of a falling gap tolerance
        (the trace Fig. 6a draws): each a true bound, never rising, and 0
        at the last rung."""
        values = [4, 7, 1, 9, 6, 3, 8]
        weights = [2, 5, 1, 6, 4, 2, 5]
        optimum = -brute_force_knapsack(values, weights, 12)
        gaps = []
        for tolerance in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0):
            solution = MilpBackend(gap_tolerance=tolerance).solve(
                build_knapsack(values, weights, 12).to_matrices())
            assert solution.is_feasible
            assert solution.gap <= tolerance + 1e-9
            assert solution.best_bound - 1e-9 <= optimum <= solution.objective
            gaps.append(solution.gap)
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-6
        assert solution.objective == pytest.approx(optimum)

    def test_gap_tolerance_allows_early_stop(self):
        values = [4, 7, 1, 9, 6, 3, 8, 5, 2]
        weights = [2, 5, 1, 6, 4, 2, 5, 3, 1]
        exact = MilpBackend().solve(
            build_knapsack(values, weights, 15).to_matrices())
        loose = MilpBackend(gap_tolerance=0.25).solve(
            build_knapsack(values, weights, 15).to_matrices())
        assert loose.is_feasible
        assert loose.nodes_explored <= exact.nodes_explored
        # Within the advertised bound of the optimum.
        assert -loose.objective >= (1 - 0.25) * -exact.objective

    def test_node_limit_returns_feasible_solution(self):
        values = list(range(1, 16))
        weights = [(v * 7 % 11) + 1 for v in values]
        solution = MilpBackend().solve(
            build_knapsack(values, weights, 25).to_matrices(),
            budget=SolveBudget(node_limit=3))
        assert solution.nodes_explored <= 3
        assert solution.is_feasible or solution.status is SolutionStatus.ERROR

    def test_backends_expose_solution_vector(self):
        model = build_knapsack([6, 5, 4], [4, 3, 2], 6)
        matrices = model.to_matrices()
        relaxation = {**matrices,
                      "integrality": np.zeros_like(matrices["integrality"])}
        relaxed = MilpBackend().solve(relaxation)
        assert relaxed.vector is not None
        assert relaxed.vector.shape == (model.variable_count,)
        integral = MilpBackend().solve(matrices)
        assert integral.vector is not None
        assert all(value in (0.0, 1.0) for value in integral.vector)

    def test_pruned_root_closes_best_bound(self):
        """A program whose root LP is integral is proved optimal at the
        root: the best bound closes on the incumbent, with no branching."""
        # minimise x + y under x + y >= 1
        solution = MilpBackend().solve(
            binary_model([1.0, 1.0], [([-1.0, -1.0], -1.0)]).to_matrices())
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
        model = build_knapsack([float(v) for v in values],
                               [float(w) for w in weights], float(capacity))
        solution = MilpBackend().solve(model.to_matrices())
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(
            -brute_force_knapsack(values, weights, capacity))


class TestSolutionObject:
    def test_selected_and_lookup(self):
        """The vector reads which columns a solution selects."""
        solution = MilpBackend().solve(
            build_knapsack([3, 1], [1, 5], 1).to_matrices())
        assert np.flatnonzero(solution.vector >= 0.5).tolist() == [0]
        assert solution.vector[1] == 0.0


class TestMilpDualBound:
    """``best_bound`` is in the objective's own terms: the constant added,
    the objective's sign kept, and a zero bound kept as zero."""

    def test_constant_is_part_of_the_bound(self):
        # minimise x + 5 under x >= 1
        solution = MilpBackend().solve(
            binary_model([1.0], [([-1.0], -1.0)], constant=5.0).to_matrices())
        assert solution.objective == 6.0
        assert solution.best_bound == 6.0

    def test_maximisation_bound_has_the_objective_sign(self):
        """A knapsack's objective (``-value``) is negative, and so is its
        bound."""
        solution = MilpBackend().solve(
            build_knapsack([6, 5, 4, 3], [4, 3, 2, 1], 6).to_matrices())
        assert solution.objective < 0
        assert solution.best_bound == pytest.approx(solution.objective)

    def test_zero_bound_stays_zero(self):
        solution = MilpBackend().solve(binary_model([1.0]).to_matrices())
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


def milp_reference(matrices: dict, options: dict) -> Solution:
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
    constant = matrices["objective_constant"]
    vector = np.asarray(result.x, dtype=np.float64).copy()
    binary = matrices["integrality"].astype(bool)
    vector[binary] = np.round(vector[binary])
    return Solution(
        status=(SolutionStatus.OPTIMAL if result.status == 0
                else SolutionStatus.FEASIBLE),
        objective=float(result.fun) + constant,
        best_bound=float(result.mip_dual_bound) + constant,
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
    return bip.model.to_matrices(rows=budget.to_linear(bip))


@pytest.fixture(params=[True, False], ids=["jump-on", "jump-off"])
def feasibility_jump(request, monkeypatch):
    """Both settings of HiGHS's feasibility-jump pass, on both sides."""
    monkeypatch.setattr(highs_backend, "FEASIBILITY_JUMP", request.param)
    return request.param


class TestMilpParity:
    """The direct HiGHS adapter answers as :func:`scipy.optimize.milp` does
    at identical options: status, objective, vector, gap, dual bound and
    node count are equal with ``==``.  CI installs scipy unpinned, so this
    is the tripwire for an upgrade that moves ``_highspy`` or a default.
    ``milp`` gets the cut-pool cap (and the feasibility jump when off) as
    HiGHS options it does not recognise but passes on, with a warning."""

    @staticmethod
    def assert_parity(matrices, feasibility_jump, gap=0.0, time_limit=None):
        options = {"mip_pool_soft_limit": highs_backend.CUT_POOL_SOFT_LIMIT}
        if gap > 0:
            options["mip_rel_gap"] = gap
        if time_limit is not None:
            options["time_limit"] = time_limit
        if not feasibility_jump:
            options["mip_heuristic_run_feasibility_jump"] = False
        actual = MilpBackend(gap_tolerance=gap).solve(
            matrices, time_limit_seconds=time_limit)
        with pytest.warns(RuntimeWarning, match="Unrecognized options"):
            expected = milp_reference(matrices, options)
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
        solution = self.assert_parity(model.to_matrices(), feasibility_jump,
                                      gap=gap)
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
        self.assert_parity(bip.model.to_matrices(rows=budget.to_linear(bip)),
                           feasibility_jump, gap=gap)

    @pytest.mark.parametrize("kind,updates,seed", [
        ("homogeneous", 0.0, 11), ("homogeneous", 0.5, 12),
        ("heterogeneous", 0.0, 15), ("heterogeneous", 0.5, 14)])
    def test_generated_bips(self, tpch, feasibility_jump, kind, updates, seed):
        self.assert_parity(_generated_bip(tpch, kind, updates, seed),
                           feasibility_jump)

    def test_branching_knapsack(self, feasibility_jump):
        """The one case that tells the cut-pool settings apart: this
        knapsack closes after 39 nodes under the cap and after 45 on
        HiGHS's default pool, under either feasibility-jump setting."""
        weights = [57, 53, 46, 52, 28, 54, 29, 53, 52, 21, 48, 31, 58, 20]
        values = [54, 50, 43, 54, 32, 50, 32, 48, 52, 26, 51, 34, 61, 22]
        solution = self.assert_parity(
            build_knapsack(values, weights, 301.5).to_matrices(),
            feasibility_jump)
        assert solution.objective == pytest.approx(
            -brute_force_knapsack(values, weights, 301.5))

    def test_infeasible_constraint_set(self, simple_schema, simple_workload,
                                       feasibility_jump):
        from repro.core.constraints import (ComparisonSense,
                                            IndexCountConstraint,
                                            StorageBudgetConstraint)

        bip = _cophy_bip(simple_schema, simple_workload)
        rows = RowBlock.concatenate([
            StorageBudgetConstraint(0.0).to_linear(bip),
            IndexCountConstraint(limit=1, sense=ComparisonSense.AT_LEAST
                                 ).to_linear(bip)])
        solution = self.assert_parity(bip.model.to_matrices(rows=rows),
                                      feasibility_jump)
        assert solution.status is SolutionStatus.INFEASIBLE

    def test_time_limited_solve(self, tpch, feasibility_jump):
        solution = self.assert_parity(
            _generated_bip(tpch, "heterogeneous", 0.5, 14), feasibility_jump,
            gap=0.05, time_limit=0.0)
        assert solution.status is SolutionStatus.ERROR
        assert solution.timed_out
