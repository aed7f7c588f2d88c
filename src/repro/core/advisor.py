"""The CoPhy index advisor facade.

Wires together CGen, INUM, BIPGen and the Solver (Figure 2 of the paper) and
reports the same execution-time breakdown the paper uses in its evaluation
(INUM time, BIP build time, solve time).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.advisors.base import Advisor, Recommendation
from repro.catalog.schema import Schema
from repro.core.bip_builder import BipBuilder, CophyBip
from repro.core.constraints import (
    SoftConstraint,
    TuningConstraint,
    split_constraints,
)
from repro.core.heuristics import (
    HeuristicResult,
    greedy_knapsack,
    ideal_lower_bound,
    unsupported_constraint,
)
from repro.core.soft_constraints import ParetoExplorer, ParetoPoint
from repro.core.solver import CoPhySolver
from repro.exceptions import (
    BuildInterrupted,
    ConstraintError,
    SolveInterrupted,
)
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.lp.budget import SolveBudget
from repro.obs.trace import stage
from repro.optimizer.cost_model import CostModel
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.workload import Workload

__all__ = ["CoPhyAdvisor", "Recommendation"]


def _heuristic_extras(heuristic: HeuristicResult) -> dict:
    """JSON-friendly digest of the greedy pass for ``Recommendation.extras``."""
    return {
        "objective": heuristic.objective,
        "lower_bound": heuristic.lower_bound,
        "gap": heuristic.gap,
        "probes": heuristic.probes,
        "picked": len(heuristic.configuration),
        "timed_out": heuristic.timed_out,
    }


class CoPhyAdvisor(Advisor):
    """The CoPhy index advisor.

    Args:
        schema: The database catalog being tuned.
        optimizer: Optional what-if optimizer to share with other components
            (a fresh one over ``schema`` is created otherwise).
        cost_model: Cost-model constants for a freshly created optimizer.
        candidate_generator: Optional custom CGen instance.
        gap_tolerance: Early-termination optimality gap (paper default: 5%).
        time_limit_seconds: Wall-clock limit for each solver call.
        apply_relaxation: Apply the Lagrangian-style relaxation before solving.
        max_orders_per_table / max_templates_per_query: INUM enumeration caps
            (applied to a freshly created cache; a shared ``inum`` keeps its
            own caps).
        inum: Optional shared INUM cache (the unified API wires one per
            schema so concurrent sessions reuse templates and tensors); a
            fresh cache over ``optimizer`` is created otherwise.
    """

    name = "cophy"

    def __init__(self, schema: Schema, optimizer: WhatIfOptimizer | None = None,
                 cost_model: CostModel | None = None,
                 candidate_generator: CandidateGenerator | None = None,
                 gap_tolerance: float = 0.05,
                 time_limit_seconds: float | None = None,
                 apply_relaxation: bool = False,
                 max_orders_per_table: int = 2,
                 max_templates_per_query: int = 64,
                 inum: InumCache | None = None):
        self.schema = schema
        if optimizer is None and inum is not None:
            optimizer = inum.optimizer
        self.optimizer = optimizer or WhatIfOptimizer(schema, cost_model)
        self.candidate_generator = candidate_generator or CandidateGenerator(schema)
        self.inum = inum or InumCache(self.optimizer,
                                      max_orders_per_table=max_orders_per_table,
                                      max_templates_per_query=max_templates_per_query)
        self.bip_builder = BipBuilder(self.inum)
        self.solver = CoPhySolver(gap_tolerance=gap_tolerance,
                                  time_limit_seconds=time_limit_seconds,
                                  apply_relaxation=apply_relaxation)
        self.gap_tolerance = gap_tolerance

    # -------------------------------------------------------------------- public
    def generate_candidates(self, workload: Workload,
                            dba_indexes: Iterable[Index] = ()) -> CandidateSet:
        """Run CGen on a workload (plus DBA-supplied indexes ``S_DBA``)."""
        return self.candidate_generator.generate(workload, dba_indexes=dba_indexes)

    # Mutates the shared INUM cache: Tuner/TuningService hold the context
    # lock; embedded callers are documented single-threaded.
    def build_bip(self, workload: Workload,
                  candidates: CandidateSet | None = None,
                  dba_indexes: Iterable[Index] = ()) -> CophyBip:
        """Pre-process a workload into its Theorem-1 BIP (INUM + BIPGen)."""
        if candidates is None:
            candidates = self.generate_candidates(workload, dba_indexes)
        self.inum.prepare(workload, candidates)
        return self.bip_builder.build(workload, candidates)

    # Caller holds the context lock (see build_bip).
    def tune(self, workload: Workload,
             constraints: Sequence[TuningConstraint | SoftConstraint] = (),
             candidates: CandidateSet | None = None,
             dba_indexes: Iterable[Index] = (),
             budget: SolveBudget | None = None) -> Recommendation:
        """Run a complete tuning session.

        Hard constraints are merged into the BIP; if soft constraints are
        present the Pareto curve is explored and the cost-optimal end of the
        curve is returned as the primary recommendation, with the full curve
        available under ``extras['pareto_points']``.

        ``budget`` makes the session *anytime*: its tier selects between the
        greedy-knapsack pass (``"heuristic"``), the exact BIP solve
        (``"exact"``, interrupted at the deadline with the best-so-far
        incumbent) and ``"cascade"`` — greedy first, then the exact solve
        with whatever wall clock remains, the better answer winning.
        """
        hard, soft = split_constraints(constraints)
        if budget is not None:
            budget.start()
            if soft and budget.time_budget_ms is not None:
                raise ConstraintError(
                    "Soft constraints are not budget-aware: the Pareto "
                    "exploration runs several exact solves; drop "
                    "time_budget_ms or make the constraints hard")
        timings: dict[str, float] = {"candidate_generation": 0.0}
        with stage(timings, "total"):
            return self._tune(workload, hard, soft, candidates, dba_indexes,
                              budget, timings)

    def _tune(self, workload: Workload, hard: Sequence[TuningConstraint],
              soft: Sequence[SoftConstraint], candidates: CandidateSet | None,
              dba_indexes: Iterable[Index], budget: SolveBudget | None,
              timings: dict[str, float]) -> Recommendation:
        """The staged pipeline; every return is one ``answer(...)``."""
        tier = "exact" if budget is None else budget.tier
        if candidates is None:
            with stage(timings, "candidate_generation") as node:
                candidates = self.generate_candidates(workload, dba_indexes)
                node.set(candidates=len(candidates))

        whatif_before = self.optimizer.whatif_calls + self.inum.template_build_calls

        def answer(configuration: Configuration, objective: float, gap: float,
                   **rest) -> Recommendation:
            return Recommendation(
                configuration=configuration, advisor_name=self.name,
                objective_estimate=objective, timings=timings,
                candidate_count=len(candidates),
                whatif_calls=(self.optimizer.whatif_calls
                              + self.inum.template_build_calls - whatif_before),
                gap=gap, **rest)

        # Template enumeration plus gamma-matrix materialization for the full
        # candidate set: BIP coefficient assembly then only reads arrays.
        with stage(timings, "inum", statements=len(workload),
                   candidates=len(candidates)) as node:
            node.set(**self.inum.prepare(workload, candidates))

        heuristic: HeuristicResult | None = None
        if tier in ("heuristic", "cascade") and not soft:
            blocker = unsupported_constraint(hard)
            if blocker is not None and tier == "heuristic":
                # Cascade instead skips the greedy pass and lets the exact
                # solve handle the constraint.
                raise ConstraintError(
                    f"Constraint {getattr(blocker, 'name', blocker)!r} is "
                    "not supported by solve_tier='heuristic'; use 'cascade' "
                    "or 'exact'")
            if blocker is None:
                with stage(timings, "heuristic") as node:
                    heuristic = greedy_knapsack(self.inum, workload,
                                                candidates, hard, budget=budget)
                    node.set(picked=len(heuristic.configuration),
                             gap=round(heuristic.gap, 6),
                             probes=heuristic.probes,
                             candidates=len(candidates))
                if tier == "heuristic" or budget.expired():
                    return answer(
                        heuristic.configuration, heuristic.objective,
                        heuristic.gap,
                        extras={"heuristic": _heuristic_extras(heuristic)},
                        timed_out=budget.expired(), solve_tier="heuristic")

        # A deadline fallback exists when the cascade produced a greedy
        # incumbent, or when the constraint classes guarantee the empty
        # configuration is feasible (exactly the heuristic tier's classes).
        can_fallback = (heuristic is not None
                        or unsupported_constraint(hard) is None)
        try:
            with stage(timings, "build") as node:
                # The Theorem-1 BIP does not depend on the constraints (a
                # solve passes them to its export of the program and never
                # edits it), so the context keeps one per workload.  It is
                # tagged with the ordered candidates — z order is column
                # order — and their names, which name the recommendation.
                bip, reused = self.inum.workload_memo(
                    workload,
                    (tuple(candidates),
                     tuple(index.name for index in candidates)),
                    lambda: self.bip_builder.build(
                        workload, candidates,
                        budget=budget if can_fallback else None))
                node.set(reused=reused, **bip.statistics)
        except BuildInterrupted:
            return self._deadline_fallback(workload, candidates, heuristic,
                                           tier, answer)
        if budget is not None and budget.expired() and can_fallback:
            # The build finished but ate the remaining clock; even starting
            # the exact solve (its root relaxation / presolve alone) could
            # dwarf the overrun, so answer with the best incumbent now.
            recommendation = self._deadline_fallback(
                workload, candidates, heuristic, tier, answer)
            recommendation.extras["bip"] = bip
            return recommendation

        extras: dict = {"bip_statistics": dict(bip.statistics)}
        if heuristic is not None:
            extras["heuristic"] = _heuristic_extras(heuristic)
        if soft:
            with stage(timings, "solve", mode="pareto") as node:
                explorer = ParetoExplorer(self.solver)
                points = explorer.explore(bip, soft, hard_constraints=hard)
                node.set(points=len(points))
            best = max(points, key=lambda p: p.lambda_value)
            extras["pareto_points"] = points
            recommendation = answer(best.configuration, best.workload_cost,
                                    0.0, extras=extras)
        else:
            try:
                with stage(timings, "solve") as node:
                    report = self.solver.solve(bip, hard_constraints=hard,
                                               budget=budget)
                    node.set(nodes=report.solution.nodes_explored,
                             **report.span_attributes())
            except SolveInterrupted:
                if not can_fallback:
                    raise
                # The clock stopped the exact solve before HiGHS found an
                # incumbent: answer as when it fires before the solve.
                recommendation = self._deadline_fallback(
                    workload, candidates, heuristic, tier, answer)
                recommendation.extras.update(extras, bip=bip)
                return recommendation
            extras["solve_report"] = report
            timed_out = report.timed_out or (budget is not None
                                             and budget.expired())
            configuration, objective = report.configuration, report.objective
            gap = report.gap
            if (heuristic is not None
                    and heuristic.objective < objective - 1e-9):
                # The exact solve stopped (at its gap tolerance or the
                # deadline) at an incumbent worse than the greedy one — keep
                # the better configuration and the tightest known bound.
                configuration = heuristic.configuration
                objective = heuristic.objective
                bound = max(heuristic.lower_bound, report.solution.best_bound)
                gap = max(0.0, (objective - bound) / max(abs(objective), 1e-9))
            recommendation = answer(
                configuration, objective, gap, extras=extras,
                timed_out=timed_out,
                solve_tier="cascade" if heuristic is not None else "exact")
        recommendation.extras["bip"] = bip
        return recommendation

    def _deadline_fallback(self, workload: Workload, candidates: CandidateSet,
                           heuristic: HeuristicResult | None, tier: str,
                           answer: Callable[..., Recommendation]
                           ) -> Recommendation:
        """Best-so-far answer when the deadline fires before the exact solve.

        The greedy incumbent when the cascade produced one; otherwise the
        empty configuration — feasible for every constraint class the
        heuristic tier supports (the caller checked) — costed for real and
        reported with its finite gap against the ideal all-candidates bound.
        """
        if heuristic is not None:
            return answer(heuristic.configuration, heuristic.objective,
                          heuristic.gap,
                          extras={"heuristic": _heuristic_extras(heuristic)},
                          timed_out=True, solve_tier="cascade")
        empty = Configuration((), name="cophy-recommendation")
        objective = self.inum.workload_cost(workload, empty)
        bound = ideal_lower_bound(self.inum, workload, candidates)
        return answer(
            empty, objective,
            max(0.0, (objective - bound) / max(abs(objective), 1e-9)),
            timed_out=True, solve_tier=tier)

    def explore_tradeoffs(self, workload: Workload,
                          soft_constraints: Sequence[SoftConstraint],
                          hard_constraints: Sequence[TuningConstraint] = (),
                          candidates: CandidateSet | None = None,
                          lambdas: Sequence[float] | None = None
                          ) -> list[ParetoPoint]:
        """Explore the Pareto curve of one or more soft constraints."""
        bip = self.build_bip(workload, candidates)
        explorer = ParetoExplorer(self.solver)
        return explorer.explore(bip, soft_constraints,
                                hard_constraints=hard_constraints, lambdas=lambdas)
