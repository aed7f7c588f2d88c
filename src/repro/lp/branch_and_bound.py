"""A branch-and-bound binary-integer-program solver over LP relaxations.

This is the "off-the-shelf BIP solver" of the reproduction.  It provides the
behaviours CoPhy's Solver component builds on:

* a **feasibility probe** (:meth:`BranchAndBoundSolver.is_feasible`) used to
  reject unsatisfiable hard-constraint sets before solving;
* **continuous feedback**: every improvement of the incumbent or of the best
  bound is recorded as a :class:`~repro.lp.solution.GapTracePoint`, which is
  what Figure 6a of the paper plots;
* **early termination** once the relative optimality gap falls below a
  threshold (the paper tunes CPLEX to stop at 5%);
* **warm starts** from a known-good assignment, which is how interactive
  re-tuning reuses the computation of a previous solve (Figure 6b);
* node and wall-clock limits.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.lp.budget import SolveBudget
from repro.lp.highs_backend import LinearRelaxationBackend
from repro.lp.model import Model, ObjectiveSense, satisfies
from repro.lp.solution import GapTracePoint, Solution, SolutionStatus
from repro.lp.variable import Variable
from repro.obs.metrics import GAP_BUCKETS, NODES_BUCKETS, active_registry

__all__ = ["BranchAndBoundSolver"]

_INTEGRALITY_TOLERANCE = 1e-6


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by its LP bound (best-first search)."""

    bound: float
    sequence: int
    depth: int = field(compare=False)
    bounds: np.ndarray = field(compare=False)


class BranchAndBoundSolver:
    """Branch-and-bound over scipy/HiGHS LP relaxations.

    Args:
        gap_tolerance: Stop as soon as the relative gap between the incumbent
            and the best bound drops to this value (0 = prove optimality).
        time_limit_seconds: Wall-clock budget; the best incumbent found so far
            is returned when it runs out.
        node_limit: Maximum number of explored nodes.
        progress_callback: Optional callable invoked with each new
            :class:`GapTracePoint` (CoPhy's interactive feedback hook).
    """

    def __init__(self, gap_tolerance: float = 0.0,
                 time_limit_seconds: float | None = None,
                 node_limit: int = 100_000,
                 progress_callback: Callable[[GapTracePoint], None] | None = None):
        self.gap_tolerance = max(0.0, float(gap_tolerance))
        self.time_limit_seconds = time_limit_seconds
        self.node_limit = int(node_limit)
        self.progress_callback = progress_callback
        self._relaxation = LinearRelaxationBackend()

    # ------------------------------------------------------------------- probes
    def is_feasible(self, model: Model, matrices: dict | None = None) -> bool:
        """Fast feasibility probe via the LP relaxation.

        An infeasible relaxation proves the BIP infeasible.  (A feasible
        relaxation does not *prove* integer feasibility, but for the index
        tuning constraint classes of the paper — budgets, cardinality limits,
        per-table rules — LP feasibility coincides with BIP feasibility.)
        ``matrices`` probes that export of the model instead of its own.
        """
        relaxed = self._relaxation.solve(model, matrices=matrices)
        return relaxed.status is not SolutionStatus.INFEASIBLE

    # -------------------------------------------------------------------- solve
    def solve(self, model: Model,
              warm_start: Mapping[Variable, float] | np.ndarray | None = None,
              gap_tolerance: float | None = None,
              time_limit_seconds: float | None = None,
              budget: SolveBudget | None = None,
              matrices: dict | None = None) -> Solution:
        """Solve the binary integer program.

        Args:
            model: The model to solve (binary and continuous variables).
            warm_start: Optional assignment (by variable, or a column
                vector) used as the initial incumbent if it is feasible; this
                is how re-tuning reuses prior solutions.
            gap_tolerance: Per-call override of the construction-time tolerance.
            time_limit_seconds: Per-call override of the time limit.
            budget: Optional :class:`~repro.lp.budget.SolveBudget`; its
                remaining wall clock, node limit and gap limit are merged
                with the solver's own settings.  When the deadline fires the
                best-so-far incumbent is returned with ``timed_out=True`` and
                its closed-form gap against the tightest known bound.
            matrices: Optional export of ``model`` to solve instead of its
                own (a solve's extra rows, objective or relaxation).
        """
        solution = self._solve(model, warm_start=warm_start,
                               gap_tolerance=gap_tolerance,
                               time_limit_seconds=time_limit_seconds,
                               budget=budget, matrices=matrices)
        # One metrics record per solve (never per node): outcome, search
        # size and the achieved gap, into whichever registry the current
        # request activated.
        registry = active_registry()
        registry.counter(
            "repro_solver_solves_total",
            "Branch-and-bound solves by outcome status",
            ("status",)).inc(status=solution.status.name.lower())
        registry.histogram(
            "repro_solver_nodes",
            "Nodes explored per branch-and-bound solve",
            buckets=NODES_BUCKETS).observe(float(solution.nodes_explored))
        if math.isfinite(solution.gap):
            # Failed solves report an infinite gap; observing it would poison
            # the histogram's _sum, so only finished solves land here.
            registry.histogram(
                "repro_solver_gap",
                "Relative optimality gap per finished solve",
                buckets=GAP_BUCKETS).observe(float(solution.gap))
        return solution

    def _solve(self, model: Model,
               warm_start: Mapping[Variable, float] | np.ndarray | None = None,
               gap_tolerance: float | None = None,
               time_limit_seconds: float | None = None,
               budget: SolveBudget | None = None,
               matrices: dict | None = None) -> Solution:
        started = time.perf_counter()
        effective_gap = (self.gap_tolerance if gap_tolerance is None
                         else max(0.0, gap_tolerance))
        effective_limit = (self.time_limit_seconds if time_limit_seconds is None
                           else time_limit_seconds)
        effective_nodes = self.node_limit
        if budget is not None:
            budget.start()
            effective_limit = budget.clamp_time_limit(effective_limit)
            if budget.gap_limit is not None:
                effective_gap = max(effective_gap, budget.gap_limit)
            if budget.node_limit is not None:
                effective_nodes = min(effective_nodes, budget.node_limit)
        if matrices is None:
            matrices = model.to_matrices()
        root_bounds = matrices["bounds"].copy()
        # Vectorized branching/rounding work on the LP solution vector; the
        # binary positions and mask are fixed for the whole search.
        binary_mask = matrices["integrality"].astype(bool)
        binary_indices = np.flatnonzero(binary_mask)
        binary_variables = model.binary_variables()
        # The search works in minimisation space; maximisation models are
        # handled by flipping the sign of every objective value.
        sign = -1.0 if model.sense is ObjectiveSense.MAXIMIZE else 1.0

        incumbent_vector: np.ndarray | None = None
        incumbent_objective = math.inf
        if warm_start is not None:
            warm_vector = np.asarray(model.vector_of(warm_start),
                                     dtype=np.float64)
            if satisfies(matrices, warm_vector):
                incumbent_vector = warm_vector
                incumbent_objective = self._objective(matrices, warm_vector,
                                                      sign)

        gap_trace: list[GapTracePoint] = []
        nodes_explored = 0
        best_bound = -math.inf
        counter = itertools.count()

        root = self._relaxation.solve(model, root_bounds, matrices=matrices)
        if root.status is SolutionStatus.INFEASIBLE:
            return Solution(status=SolutionStatus.INFEASIBLE,
                            solve_seconds=time.perf_counter() - started,
                            message="LP relaxation infeasible")
        if root.status is SolutionStatus.UNBOUNDED:
            return Solution(status=SolutionStatus.UNBOUNDED,
                            solve_seconds=time.perf_counter() - started,
                            message="LP relaxation unbounded")
        if not root.status.has_solution:
            return Solution(status=SolutionStatus.ERROR,
                            solve_seconds=time.perf_counter() - started,
                            message=root.message)

        heap: list[_Node] = []
        heapq.heappush(heap, _Node(bound=sign * root.objective, sequence=next(counter),
                                   depth=0, bounds=root_bounds))
        # The root relaxation is a valid global bound; seeding it keeps the
        # reported gap finite (closed-form) even when a deadline fires before
        # the first node is explored.
        best_bound = min(sign * root.objective, incumbent_objective)

        def record(force: bool = False) -> None:
            nonlocal gap_trace
            gap = self._relative_gap(incumbent_objective, best_bound)
            point = GapTracePoint(
                elapsed_seconds=time.perf_counter() - started,
                incumbent_objective=sign * incumbent_objective,
                best_bound=sign * best_bound,
                gap=gap,
                nodes_explored=nodes_explored,
            )
            if force or not gap_trace or (gap_trace[-1].gap - gap) > 1e-12:
                gap_trace.append(point)
                if self.progress_callback is not None:
                    self.progress_callback(point)

        timed_out = False
        while heap:
            if (effective_limit is not None and (
                    time.perf_counter() - started) > effective_limit) or (
                    budget is not None and budget.expired()):
                timed_out = True
                break
            if nodes_explored >= effective_nodes:
                break
            node = heapq.heappop(heap)
            # Prune by bound against the incumbent.  The heap is bound-ordered
            # (best-first), so the popped node carries the minimum bound of
            # all open nodes: if even it cannot beat the incumbent, no open
            # node can, and the bound closes to the pruned node's bound.
            if node.bound >= incumbent_objective - 1e-12:
                # Every other open node is fathomed within tolerance too (the
                # heap is bound-ordered), so this matches the old behaviour of
                # draining the heap and closing the bound to the incumbent.
                best_bound = max(best_bound, incumbent_objective)
                record()
                break
            best_bound = max(best_bound, node.bound)
            relaxed = self._relaxation.solve(model, node.bounds, matrices=matrices)
            nodes_explored += 1
            if not relaxed.status.has_solution:
                continue
            relaxed_objective = sign * relaxed.objective
            if relaxed_objective >= incumbent_objective - 1e-12:
                if heap:
                    # Open nodes with bounds above the incumbent are still
                    # queued (they fathom on pop), so clamp at the incumbent.
                    best_bound = max(best_bound,
                                     min(heap[0].bound, incumbent_objective))
                else:
                    best_bound = incumbent_objective
                record()
                if self._should_stop(incumbent_objective, best_bound, effective_gap):
                    break
                continue

            fractional_index = self._most_fractional(relaxed, binary_variables,
                                                     binary_indices)
            if fractional_index is None:
                # Integral solution: new incumbent.
                incumbent_vector = relaxed.vector
                incumbent_objective = relaxed_objective
                record(force=True)
            else:
                rounded = self._rounding_heuristic(model, relaxed, matrices,
                                                   binary_mask, sign)
                if rounded is not None:
                    rounded_vector, rounded_objective = rounded
                    if rounded_objective < incumbent_objective - 1e-12:
                        incumbent_vector = rounded_vector
                        incumbent_objective = rounded_objective
                        record(force=True)
                for branch_value in (0.0, 1.0):
                    child_bounds = node.bounds.copy()
                    child_bounds[fractional_index, 0] = branch_value
                    child_bounds[fractional_index, 1] = branch_value
                    heapq.heappush(heap, _Node(bound=relaxed_objective,
                                               sequence=next(counter),
                                               depth=node.depth + 1,
                                               bounds=child_bounds))
            # The heap root carries the minimum bound over all open nodes, so
            # no O(n) scan is needed to refresh the best bound (clamped at
            # the incumbent, which a valid lower bound cannot exceed).
            if heap:
                best_bound = max(best_bound,
                                 min(heap[0].bound, incumbent_objective))
            else:
                best_bound = incumbent_objective
            record()
            if self._should_stop(incumbent_objective, best_bound, effective_gap):
                break

        elapsed = time.perf_counter() - started
        if incumbent_vector is None:
            # No integral solution found within the limits.
            return Solution(status=SolutionStatus.ERROR, solve_seconds=elapsed,
                            nodes_explored=nodes_explored,
                            gap_trace=tuple(gap_trace),
                            message="No integer-feasible solution found",
                            timed_out=timed_out)
        if not heap:
            best_bound = incumbent_objective
        gap = self._relative_gap(incumbent_objective, best_bound)
        status = (SolutionStatus.OPTIMAL if gap <= max(effective_gap, 1e-9)
                  else SolutionStatus.FEASIBLE)
        record(force=True)
        # The per-variable dict is materialized once, for the final answer.
        values = {variable: float(incumbent_vector[variable.index])
                  for variable in model.variables}
        return Solution(status=status, objective=sign * incumbent_objective,
                        values=values, best_bound=sign * best_bound,
                        gap=gap, solve_seconds=elapsed,
                        nodes_explored=nodes_explored, gap_trace=tuple(gap_trace),
                        timed_out=timed_out and status is not SolutionStatus.OPTIMAL,
                        vector=incumbent_vector)

    # ---------------------------------------------------------------- internals
    @staticmethod
    def _relative_gap(incumbent: float, bound: float) -> float:
        if not math.isfinite(incumbent):
            return math.inf
        if not math.isfinite(bound):
            return math.inf
        denominator = max(abs(incumbent), 1e-9)
        return max(0.0, (incumbent - bound) / denominator)

    def _should_stop(self, incumbent: float, bound: float, gap_tolerance: float) -> bool:
        if not math.isfinite(incumbent):
            return False
        return self._relative_gap(incumbent, bound) <= gap_tolerance

    @staticmethod
    def _most_fractional(solution: Solution,
                         binary_variables: Sequence[Variable],
                         binary_indices: np.ndarray | None = None) -> int | None:
        """Index of the binary variable farthest from integrality, if any.

        Only the precomputed binary variables are examined; continuous
        variables can never be branching candidates, so continuous-heavy
        models must not pay a full-variable scan on every node.  With the
        backend's solution vector available the scan is a single numpy
        reduction over the binary positions (ties resolve to the first
        maximum, like the scalar scan).
        """
        vector = solution.vector
        if vector is not None:
            if binary_indices is None:
                binary_indices = np.array([v.index for v in binary_variables],
                                          dtype=np.intp)
            if binary_indices.size == 0:
                return None
            binary_values = vector[binary_indices]
            distances = np.abs(binary_values - np.round(binary_values))
            worst = int(np.argmax(distances))
            if distances[worst] <= _INTEGRALITY_TOLERANCE:
                return None
            return int(binary_indices[worst])
        worst_index: int | None = None
        worst_distance = _INTEGRALITY_TOLERANCE
        values = solution.values
        for variable in binary_variables:
            value = values.get(variable, 0.0)
            distance = abs(value - round(value))
            if distance > worst_distance:
                worst_distance = distance
                worst_index = variable.index
        return worst_index

    @staticmethod
    def _rounding_heuristic(model: Model, relaxed: Solution, matrices: dict,
                            binary_mask: np.ndarray, sign: float
                            ) -> tuple[np.ndarray, float] | None:
        """Round the LP vector to the nearest integers; keep it if feasible.

        Works entirely on the solution vector: rounding, bound checks,
        constraint residuals (sparse matrix-vector products) and the
        objective are numpy operations — no per-node assignment dict is
        built.  Returns the rounded vector and its minimisation-space
        objective, or ``None`` when rounding breaks feasibility.
        """
        vector = relaxed.vector
        if vector is None:  # solution from a backend without vector support
            vector = model.vector_of(relaxed.values)
        rounded = vector.copy()
        rounded[binary_mask] = np.round(rounded[binary_mask])
        if not satisfies(matrices, rounded):
            return None
        return rounded, BranchAndBoundSolver._objective(matrices, rounded, sign)

    @staticmethod
    def _objective(matrices: dict, vector: np.ndarray, sign: float) -> float:
        """A vector's objective in minimisation space."""
        # ``c`` is already negated for maximisation, the constant is not.
        return float(matrices["c"] @ vector) + sign * matrices["objective_constant"]
