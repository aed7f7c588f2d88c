"""A greedy-knapsack anytime heuristic over INUM cost tensors.

This is the cheap tier of the anytime pipeline (``solve_tier="heuristic"`` /
the first stage of ``"cascade"``).  It never builds the BIP: candidates are
ranked by *benefit density* — workload-cost reduction per byte, re-evaluated
lazily as the configuration grows.  Probes are answered by a
:class:`~repro.inum.probe.ConfigurationProbe`: the single-index scoring is one
batched tensor reduction over every admissible candidate, and a re-probe
recomputes only the statements on the candidate's table — each equal with
``==`` to :meth:`~repro.inum.cache.InumCache.workload_cost` of the probed
configuration.  The deadline is checked before and after the scoring batch
and before every re-probe, so the pass always returns a feasible (possibly
empty) configuration.

The result carries a **finite optimality gap** without any LP: the *ideal
bound* costs the workload as if every candidate were materialised at once and
update maintenance were free — a valid lower bound on any feasible
configuration's objective, because shell costs are monotone in the available
index set and maintenance terms are non-negative.  The cascade tier then runs
the exact solve and keeps whichever of the two answers is better.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.constraints import (
    ClusteredIndexConstraint,
    ComparisonSense,
    IndexCountConstraint,
    IndexWidthConstraint,
    SoftConstraint,
    StorageBudgetConstraint,
)
from repro.exceptions import ConstraintError
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.inum.probe import ConfigurationProbe
from repro.lp.budget import SolveBudget
from repro.workload.workload import Workload

__all__ = ["HeuristicResult", "greedy_knapsack", "ideal_lower_bound",
           "unsupported_constraint"]

#: Constraint classes the greedy pass can honor natively.  Everything else
#: (query-cost rows, soft constraints, ``AT_LEAST`` cardinality rules) needs
#: the BIP and disqualifies the heuristic tier.
_SUPPORTED = (StorageBudgetConstraint, IndexCountConstraint,
              IndexWidthConstraint, ClusteredIndexConstraint)


@dataclass(frozen=True)
class HeuristicResult:
    """Outcome of one greedy-knapsack pass.

    Attributes:
        configuration: The (feasible) greedy configuration.
        objective: Weighted INUM workload cost under ``configuration`` —
            directly comparable to the BIP objective.
        lower_bound: The ideal all-candidates bound (see module docstring).
        gap: Relative gap of ``objective`` against ``lower_bound``.
        probes: Number of workload costings spent.
        timed_out: True when the deadline interrupted the pass.
    """

    configuration: Configuration
    objective: float
    lower_bound: float
    gap: float
    probes: int
    timed_out: bool


def unsupported_constraint(constraints: Iterable[object]) -> object | None:
    """First constraint the greedy pass cannot honor, or ``None``."""
    for constraint in constraints:
        if isinstance(constraint, SoftConstraint):
            return constraint
        if isinstance(constraint, IndexCountConstraint):
            if constraint.sense is not ComparisonSense.AT_MOST:
                return constraint
            continue
        if not isinstance(constraint, _SUPPORTED):
            return constraint
    return None


def greedy_knapsack(inum: InumCache, workload: Workload,
                    candidates: CandidateSet,
                    constraints: Sequence[object] = (),
                    budget: SolveBudget | None = None,
                    name: str = "anytime-greedy") -> HeuristicResult:
    """Greedily pick candidates by benefit density under the constraints.

    Uses lazy (stale-benefit) greedy selection: each candidate's cost
    reduction is probed against the empty configuration once, and re-probed
    against the current configuration only when it reaches the top of the
    priority queue — the standard submodular-style laziness that keeps the
    number of tensor reductions near-linear in the picks.

    Raises:
        ConstraintError: When a constraint outside the supported classes is
            present (callers choosing ``cascade`` should skip the pass
            instead — :func:`unsupported_constraint` is the precheck).
    """
    bad = unsupported_constraint(constraints)
    if bad is not None:
        raise ConstraintError(
            f"Constraint {getattr(bad, 'name', bad)!r} is not supported by "
            "the greedy heuristic tier; use solve_tier='exact' (or 'cascade', "
            "which falls back to the exact solve)")
    if budget is not None:
        budget.start()

    storage_limits = [c.budget_bytes for c in constraints
                      if isinstance(c, StorageBudgetConstraint)]
    width_limits = [c.max_columns for c in constraints
                    if isinstance(c, IndexWidthConstraint)]
    count_rules = [c for c in constraints
                   if isinstance(c, IndexCountConstraint)]
    clustered_rule = any(isinstance(c, ClusteredIndexConstraint)
                         for c in constraints)

    probes = 0

    def cost_of(configuration: Configuration) -> float:
        nonlocal probes
        probes += 1
        return inum.workload_cost(workload, configuration)

    empty = Configuration((), name=name)
    base_cost = cost_of(empty)
    lower_bound = ideal_lower_bound(inum, workload, candidates)

    admissible = [index for index in candidates
                  if not any(index.width > limit for limit in width_limits)]

    def fits(index: Index, chosen: Configuration, used_bytes: float) -> bool:
        size = candidates.size_of(index)
        if any(used_bytes + size > limit + 1e-6 for limit in storage_limits):
            return False
        for rule in count_rules:
            if rule.selector is not None and not rule.selector(index):
                continue
            total = 1.0 if rule.weight is None else float(rule.weight(index))
            for picked in chosen:
                if rule.selector is not None and not rule.selector(picked):
                    continue
                total += 1.0 if rule.weight is None else float(rule.weight(picked))
            if total > rule.limit + 1e-9:
                return False
        if (clustered_rule and index.clustered
                and chosen.clustered_indexes_on(index.table)):
            return False
        return True

    def result(chosen: Configuration, objective: float, timed_out: bool
               ) -> HeuristicResult:
        return HeuristicResult(
            configuration=chosen, objective=objective,
            lower_bound=lower_bound,
            gap=_relative_gap(objective, lower_bound),
            probes=probes, timed_out=timed_out)

    # Initial scoring: one single-index probe per candidate, as one batch
    # with a deadline check on each side.  entries: benefit and the
    # pick-round it was computed in; density orders the queue (stale entries
    # are re-probed when they surface).
    if budget is not None and budget.expired():
        return result(empty, base_cost, True)
    probe = ConfigurationProbe(inum, workload, admissible)
    single_costs = probe.costs_with(admissible).tolist()
    probes += len(admissible)
    if budget is not None and budget.expired():
        return result(empty, base_cost, True)
    scored: list[tuple[float, int, Index, float, int]] = []
    for position, (index, cost) in enumerate(zip(admissible, single_costs)):
        benefit = base_cost - cost
        if benefit <= 0.0:
            continue
        size = max(candidates.size_of(index), 1.0)
        heapq.heappush(scored, (-benefit / size, position, index,
                                benefit, 0))

    chosen = empty
    objective = base_cost
    used_bytes = 0.0
    pick_round = 0
    while scored:
        if budget is not None and budget.expired():
            return result(chosen, objective, True)
        _, position, index, benefit, scored_round = heapq.heappop(scored)
        if index in chosen or not fits(index, chosen, used_bytes):
            continue
        if scored_round != pick_round:
            # Stale benefit — re-probe against the current configuration.
            probes += 1
            benefit = objective - probe.cost_with(index)
            if benefit <= 0.0:
                continue
            density = benefit / max(candidates.size_of(index), 1.0)
            if scored and density < -scored[0][0]:
                heapq.heappush(scored, (-density, position, index,
                                        benefit, pick_round))
                continue
        chosen = chosen.union((index,))
        probe.add(index)
        objective -= benefit
        used_bytes += candidates.size_of(index)
        pick_round += 1
    # Re-cost once: the accumulated objective is exact for fresh benefits but
    # the final configuration's cost is what downstream layers compare.
    objective = cost_of(chosen)
    return result(chosen, objective,
                  budget is not None and budget.expired())


# ---------------------------------------------------------------------- bounds
def ideal_lower_bound(inum: InumCache, workload: Workload,
                      candidates: CandidateSet) -> float:
    """Lower bound: every candidate available at once, maintenance-free.

    ``cost(q, S)`` is monotone non-increasing in the available index set and
    update-maintenance terms are non-negative, so for any feasible ``X``::

        cost(workload, X) >= sum_q w_q * (shell_cost(q, S_all) + base_update(q))
    """
    all_config = Configuration(tuple(candidates), name="ideal-bound")
    weights = np.array([statement.weight for statement in workload],
                       dtype=np.float64)
    tensor = inum.workload_tensor(workload)
    shell_all = np.asarray(tensor.shell_costs(all_config), dtype=np.float64)
    shell_empty = np.asarray(tensor.shell_costs(Configuration(())),
                             dtype=np.float64)
    statement_empty = inum.statement_costs(workload, Configuration(()))
    base_terms = statement_empty - shell_empty
    return float(weights @ (shell_all + base_terms))


def _relative_gap(objective: float, bound: float) -> float:
    if not np.isfinite(objective) or not np.isfinite(bound):
        return float("inf")
    return max(0.0, (objective - bound) / max(abs(objective), 1e-9))
