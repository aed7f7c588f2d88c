"""The scale-out advisor: compress, partition, solve shards, merge.

Wires the :mod:`repro.scale` subsystem (PR 3) into an end-to-end advisor for
workloads too large for one monolithic BIP solve:

1. **Compress** the workload into weighted representatives
   (:func:`repro.scale.compress.compress_workload`) — only representatives
   ever reach the optimizer, so INUM preprocessing and BIP size scale with
   the number of *distinct* statement shapes, not the statement count.
2. **Partition** the BIP along the query–candidate interaction graph into
   balanced shards with a water-filled storage-budget split
   (:mod:`repro.scale.partition`).
3. **Solve** the per-shard BIPs inline or in a process pool
   (:class:`repro.scale.executor.ShardExecutor`).
4. **Merge**: a final BIP over the representative workload restricted to the
   union of per-shard winners, under the *global* constraints — restoring
   feasibility (the shard budget split is only a search heuristic) and
   re-deciding overlaps between shards.

The recommendation quality is bounded by the compression error and the
sharding of connected components; with the exact compression fallback
(``max_cost_error=0.0``) and one shard per component the pipeline reproduces
the monolithic recommendation up to solver gap tolerance.
"""

from __future__ import annotations

import logging
from typing import Sequence

from repro.advisors.base import Advisor, Recommendation
from repro.catalog.schema import Schema
from repro.core.bip_builder import BipBuilder
from repro.core.constraints import (
    StorageBudgetConstraint,
    TuningConstraint,
    split_constraints,
)
from repro.core.heuristics import greedy_knapsack, unsupported_constraint
from repro.core.solver import CoPhySolver, SolverBackend
from repro.exceptions import ConstraintError
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.lp.budget import SolveBudget
from repro.obs.log import log_event
from repro.obs.trace import adopt, span, stage
from repro.optimizer.whatif import WhatIfOptimizer
from repro.scale.compress import compress_workload
from repro.scale.executor import ShardExecutor
from repro.scale.partition import partition_workload, split_budget
from repro.workload.workload import Workload

__all__ = ["ScaleOutAdvisor"]


class ScaleOutAdvisor(Advisor):
    """Divide-and-conquer CoPhy for workloads beyond a single solve.

    Args:
        schema: Catalog being tuned.
        optimizer: Optional shared what-if optimizer.
        inum: Optional shared INUM cache (one is created otherwise).
        candidate_generator: Optional custom CGen instance (run on the
            *compressed* workload, so the candidate universe also scales with
            distinct shapes).
        signature: Compression signature mode (``"structural"`` needs no
            optimizer work; ``"gamma"`` clusters on measured INUM cost
            vectors).
        max_cost_error: Relative cost-error bound of the compression;
            ``0.0`` is the exact fallback.
        compress: Disable compression entirely with ``False`` (partitioning
            and the process pool still apply).
        shard_count: Desired number of shards (``None`` = one per connected
            component of the interaction graph).
        shard_workers: Process count for shard solves (``None`` uses
            ``os.cpu_count()``; 1 solves inline sharing this advisor's INUM
            cache).
        budget_oversubscription: Pool factor for the water-filled storage
            budget split (``None`` lets every shard fill up to the global
            budget; ``1.0`` partitions the budget strictly — see
            :func:`repro.scale.partition.split_budget`).
        build_processes: Process count for sharded gamma-matrix builds during
            gamma-signature compression.
        backend / gap_tolerance / time_limit_seconds: Solver settings for the
            shard and merge solves.
        retry_policy / fault_plan: Reliability knobs forwarded to the
            :class:`~repro.scale.executor.ShardExecutor` (``None`` defers to
            the executor defaults / the process-wide armed fault plan).
    """

    name = "scaleout"

    def __init__(self, schema: Schema, optimizer: WhatIfOptimizer | None = None,
                 inum: InumCache | None = None,
                 candidate_generator: CandidateGenerator | None = None,
                 signature: str = "structural",
                 max_cost_error: float = 0.0,
                 compress: bool = True,
                 shard_count: int | None = None,
                 shard_workers: int | None = None,
                 budget_oversubscription: float | None = None,
                 build_processes: int | None = None,
                 backend: SolverBackend = SolverBackend.MILP,
                 gap_tolerance: float = 0.05,
                 time_limit_seconds: float | None = None,
                 retry_policy=None, fault_plan=None):
        self.schema = schema
        self.optimizer = optimizer or WhatIfOptimizer(schema)
        self.inum = inum or InumCache(self.optimizer)
        self.candidate_generator = candidate_generator or CandidateGenerator(schema)
        self.signature = signature
        self.max_cost_error = max_cost_error
        self.compress = compress
        self.shard_count = shard_count
        self.shard_workers = shard_workers
        self.budget_oversubscription = budget_oversubscription
        self.build_processes = build_processes
        self.backend = backend
        self.gap_tolerance = gap_tolerance
        self.time_limit_seconds = time_limit_seconds
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan

    # -------------------------------------------------------------------- public
    # reprolint: requires-lock (mutates the shared INUM cache; caller serializes)
    def tune(self, workload: Workload,
             constraints: Sequence[TuningConstraint] = (),
             candidates: CandidateSet | None = None,
             budget: SolveBudget | None = None) -> Recommendation:
        hard, soft = split_constraints(constraints)
        if soft:
            raise ConstraintError(
                "ScaleOutAdvisor does not support soft constraints; "
                "use CoPhyAdvisor for Pareto exploration")
        if budget is not None:
            budget.start()
        timings: dict[str, float] = {}
        with stage(timings, "total"):
            return self._tune(workload, hard, candidates, budget, timings)

    def _tune(self, workload: Workload, hard: Sequence[TuningConstraint],
              candidates: CandidateSet | None, budget: SolveBudget | None,
              timings: dict[str, float]) -> Recommendation:
        """The staged pipeline: compress, partition, shard solves, merge."""
        extras: dict = {}
        whatif_before = self.optimizer.whatif_calls + self.inum.template_build_calls

        # 1. Compression: everything downstream sees representatives only.
        with stage(timings, "compress", enabled=self.compress,
                   statements=len(workload)) as compress_span:
            if self.compress:
                if self.signature == "gamma":
                    # Gamma signatures read every statement's templates and
                    # heap gamma columns: batch-build them up front (across
                    # processes when configured) instead of one statement at
                    # a time inside the signature loop.
                    self.inum.build_workload(
                        workload, build_processes=self.build_processes)
                compressed = compress_workload(
                    workload, signature=self.signature,
                    max_cost_error=self.max_cost_error,
                    inum=self.inum if self.signature == "gamma" else None)
                tuned = compressed.workload
                extras["compression"] = compressed.summary()
                compress_span.set(representatives=len(tuned))
            else:
                compressed = None
                tuned = workload

        if candidates is None:
            candidates = self.candidate_generator.generate(tuned)

        # Anytime handling: the heuristic tier (and a cascade whose deadline
        # already fired during compression) answers with the greedy knapsack
        # over the representative workload — no shard/merge BIPs at all.
        if budget is not None and budget.tier != "exact":
            blocker = unsupported_constraint(hard)
            if blocker is not None and budget.tier == "heuristic":
                raise ConstraintError(
                    f"Constraint {getattr(blocker, 'name', blocker)!r} is "
                    "not supported by solve_tier='heuristic'; use 'cascade' "
                    "or 'exact'")
            if blocker is None and (budget.tier == "heuristic"
                                    or budget.expired()):
                self.inum.prepare(tuned, candidates)
                with stage(timings, "heuristic") as node:
                    heuristic = greedy_knapsack(self.inum, tuned, candidates,
                                                hard, budget=budget)
                    node.set(picked=len(heuristic.configuration),
                             gap=round(heuristic.gap, 6),
                             probes=heuristic.probes,
                             candidates=len(candidates))
                extras["heuristic"] = {
                    "objective": heuristic.objective,
                    "lower_bound": heuristic.lower_bound,
                    "probes": heuristic.probes,
                }
                return Recommendation(
                    configuration=Configuration(
                        heuristic.configuration.indexes,
                        name="scaleout-recommendation"),
                    advisor_name=self.name,
                    objective_estimate=heuristic.objective,
                    timings=timings,
                    candidate_count=len(candidates),
                    whatif_calls=(self.optimizer.whatif_calls
                                  + self.inum.template_build_calls
                                  - whatif_before),
                    gap=heuristic.gap,
                    extras=extras,
                    timed_out=budget.expired(),
                    solve_tier="heuristic",
                )

        # 2. Partitioning along the interaction graph + budget water-filling.
        with stage(timings, "partition",
                   candidates=len(candidates)) as partition_span:
            plan = partition_workload(tuned, candidates,
                                      shard_count=self.shard_count)
            storage_budget = self._storage_budget(hard)
            plan = split_budget(plan, candidates, storage_budget,
                                oversubscription=self.budget_oversubscription)
            partition_span.set(shards=plan.shard_count)
        extras["partition"] = plan.summary()

        # 3. Per-shard solves (inline below 2 effective workers, else a
        #    process pool; INUM preprocessing happens per shard, so it also
        #    scales with the representatives).  An anytime budget is
        #    apportioned into equal wall-clock slices per shard wave, with a
        #    reserved fraction left over for the merge BIP.
        executor = ShardExecutor(workers=self.shard_workers,
                                 backend=self.backend,
                                 gap_tolerance=self.gap_tolerance,
                                 time_limit_seconds=self.time_limit_seconds,
                                 retry_policy=self.retry_policy,
                                 fault_plan=self.fault_plan)
        shard_time_limit = None
        if budget is not None:
            shard_time_limit = budget.shard_slice_seconds(
                plan.shard_count,
                workers=executor.effective_workers(plan.shard_count))
        with stage(timings, "solve", shards=plan.shard_count,
                   workers=executor.effective_workers(plan.shard_count)):
            results = executor.solve_shards(plan, self.schema,
                                            inum=self.inum,
                                            shard_time_limit=shard_time_limit,
                                            budget=budget)
            # Pool shards solved under their own worker-side tracers; graft
            # each exported tree here so the request trace stays one tree
            # (inline shards already nested themselves under this span).
            # Likewise the templates/matrices a worker built: adopting them
            # leaves the merge nothing to enumerate.  The worker's optimizer
            # work is already in worker_optimizer_calls, hence no build_calls.
            for result in results:
                adopt(result.trace)
                self.inum.adopt_built(result.built)
        adopted = sum(len(result.built) for result in results)
        extras["shard_workers"] = executor.effective_workers(plan.shard_count)
        extras["shards"] = [
            {"position": result.position,
             "statements": int(result.statistics.get("statements", 0)),
             "candidates": int(result.statistics.get("candidates", 0)),
             "selected": len(result.indexes),
             "objective": result.objective,
             "gap": result.gap,
             "seconds": round(result.solve_seconds, 4),
             "retries": result.retries,
             "recovered_inline": result.recovered_inline,
             "failed": result.failed}
            for result in results]

        # Graceful degradation: shards whose every attempt failed contribute
        # no winners; the merge proceeds over the survivors and the result is
        # flagged degraded instead of the whole tune erroring out.
        survivors = [result for result in results if not result.failed]
        lost = [result for result in results if result.failed]
        retries = sum(result.retries for result in results)
        faults_survived = sum(result.faults_survived for result in results)
        if retries or faults_survived or lost:
            extras["faults"] = {
                "retries": retries,
                "faults_survived": faults_survived,
                "failed_shards": [result.position for result in lost],
                "failures": {result.position: result.failure
                             for result in lost},
            }
        if lost:
            log_event(logging.WARNING, "scaleout_degraded",
                      failed_shards=[result.position for result in lost],
                      surviving_shards=len(survivors))

        # 4. Merge BIP over the union of winners under the global constraints
        #    (running on whatever wall clock the budget has left).
        winners = self._union_of_winners(survivors)
        merge_timed_out = False
        builds_before = self.inum.template_build_calls
        with stage(timings, "merge", winners=len(winners),
                   adopted=adopted) as merge_span:
            if winners:
                configuration, objective, gap, gap_trace, merge_stats, \
                    merge_timed_out = self._merge(tuned, winners, hard,
                                                  budget=budget)
            else:
                configuration = Configuration(name="scaleout-recommendation")
                objective = self.inum.workload_cost(tuned, configuration)
                gap, gap_trace, merge_stats = 0.0, (), {}
            # Non-zero only when the merge had to enumerate templates itself
            # (shards that failed, or recovered inline, shipped nothing).
            merge_span.set(indexes=len(configuration),
                           timed_out=merge_timed_out,
                           template_builds=(self.inum.template_build_calls
                                            - builds_before))
        extras["merge"] = merge_stats

        # Process-pool shard solves run on worker-side optimizers whose work
        # the local counters never see; the results report it explicitly.
        worker_calls = sum(result.worker_optimizer_calls for result in results)
        return Recommendation(
            configuration=configuration,
            advisor_name=self.name,
            objective_estimate=objective,
            timings=timings,
            candidate_count=len(candidates),
            whatif_calls=(self.optimizer.whatif_calls
                          + self.inum.template_build_calls
                          + worker_calls - whatif_before),
            gap=gap,
            gap_trace=gap_trace,
            extras=extras,
            timed_out=(any(result.timed_out for result in results)
                       or merge_timed_out
                       or (budget is not None and budget.expired())),
            degraded=bool(lost),
            retries=retries,
            faults_survived=faults_survived,
        )

    # ----------------------------------------------------------------- internals
    def _union_of_winners(self, results) -> list[Index]:
        """Deduplicated per-shard winners, in shard order (deterministic)."""
        winners: dict[Index, None] = {}
        for result in results:
            for index in result.indexes:
                winners.setdefault(index)
        return list(winners)

    def _merge(self, tuned: Workload, winners: list[Index],
               hard: Sequence[TuningConstraint],
               budget: SolveBudget | None = None):
        """The final merge BIP: global constraints over the winner union."""
        merge_candidates = CandidateSet(self.schema, winners)
        with span("prepare", statements=len(tuned),
                  candidates=len(merge_candidates)):
            self.inum.prepare(tuned, merge_candidates)
        with span("bip_build") as node:
            bip = BipBuilder(self.inum).build(tuned, merge_candidates,
                                              model_name="scaleout-merge-bip")
            node.set(variables=bip.statistics.get("variables", 0.0),
                     constraints=bip.statistics.get("constraints", 0.0))
        solver = CoPhySolver(backend=self.backend,
                             gap_tolerance=self.gap_tolerance,
                             time_limit_seconds=self.time_limit_seconds)
        with span("solve") as node:
            report = solver.solve(bip, hard_constraints=hard, budget=budget)
            node.set(gap=round(report.gap, 6), timed_out=report.timed_out)
        configuration = Configuration(report.configuration.indexes,
                                      name="scaleout-recommendation")
        stats = {"winners": len(winners),
                 "variables": bip.statistics.get("variables", 0.0),
                 "constraints": bip.statistics.get("constraints", 0.0),
                 "seconds": round(report.solve_seconds, 4)}
        return (configuration, report.objective, report.gap, report.gap_trace,
                stats, report.timed_out)

    @staticmethod
    def _storage_budget(constraints: Sequence[TuningConstraint]) -> float | None:
        for constraint in constraints:
            if isinstance(constraint, StorageBudgetConstraint):
                return constraint.budget_bytes
        return None
