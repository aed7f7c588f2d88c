"""A Tool-B-like advisor: per-query best indexes, knapsack greedy and workload
compression by sampling.

This models the behaviour of the commercial advisor the paper calls Tool-B —
the DB2 Design Advisor (Zilio et al., VLDB 2004, reference [20]):

1. **Workload compression**: when the workload exceeds the compression
   threshold, a random sample of statements is tuned in its place.  Sampling
   works well for homogeneous workloads (few distinct templates — each one is
   almost surely represented in the sample) but poorly for heterogeneous
   workloads (many shapes are simply never seen), which is exactly the
   quality pattern Table 1 and Figure 9 of the paper show.
2. **Per-query candidate selection**: for every (compressed) statement the
   advisor asks the what-if optimizer which of a small set of candidate
   indexes helps it most — the paper traces Tool-B using only ~45 candidates.
3. **Knapsack-style greedy** under the storage budget, ranking indexes by
   total benefit per byte.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.advisors.base import (
    Advisor,
    Recommendation,
    weighted_statement_costs,
)
from repro.catalog.schema import Schema
from repro.core.constraints import TuningConstraint, tightest_storage_budget
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.indexes.configuration import Configuration, baseline_configuration
from repro.indexes.index import Index, index_size_bytes
from repro.inum.cache import InumCache
from repro.lp.budget import SolveBudget
from repro.obs.trace import stage
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.query import UpdateQuery
from repro.workload.workload import Workload, WorkloadStatement

__all__ = ["DtaAdvisor"]


class DtaAdvisor(Advisor):
    """Tool-B-like advisor with workload compression by sampling.

    Args:
        schema: Catalog being tuned.
        optimizer: What-if optimizer used to measure per-query index benefits.
        compression_size: Maximum number of statements tuned directly; larger
            workloads are compressed by random sampling.
        max_candidates: Cap on the candidate set examined (Tool-B used ~45).
        candidates_per_query: How many of a query's best indexes are kept.
        seed: Sampling seed.
        inum: Optional INUM cache; when given, per-query benefits and the
            knapsack re-evaluations are answered from its vectorized gamma
            matrices instead of full what-if optimizations, which makes the
            greedy loop's many cost probes cheap.  The cache should wrap
            this advisor's own ``optimizer`` — the reported ``whatif_calls``
            metric only counts that optimizer's work plus the cache's
            template builds.
    """

    name = "tool-b"

    def __init__(self, schema: Schema, optimizer: WhatIfOptimizer | None = None,
                 candidate_generator: CandidateGenerator | None = None,
                 compression_size: int = 25,
                 max_candidates: int = 45,
                 candidates_per_query: int = 3,
                 seed: int = 29,
                 inum: "InumCache | None" = None):
        self.schema = schema
        self.optimizer = optimizer or WhatIfOptimizer(schema)
        self.candidate_generator = candidate_generator or CandidateGenerator(
            schema, clustered=False, max_key_columns=2)
        self.compression_size = max(1, compression_size)
        self.max_candidates = max(1, max_candidates)
        self.candidates_per_query = max(1, candidates_per_query)
        self.seed = seed
        self.inum = inum
        # Benefits are measured on top of the deployed design (clustered PKs).
        self._baseline = baseline_configuration(schema)

    # ------------------------------------------------------------------ costing
    def _query_cost(self, shell, configuration: Configuration) -> float:
        """Cost of one query shell, via INUM when available."""
        if self.inum is not None:
            return self.inum.cost(shell, configuration)
        return self.optimizer.cost(shell, configuration)

    # -------------------------------------------------------------------- public
    # Mutates the shared INUM cache: caller holds the context lock.
    def tune(self, workload: Workload, constraints: Sequence[TuningConstraint] = (),
             candidates: CandidateSet | None = None,
             budget: SolveBudget | None = None) -> Recommendation:
        if budget is not None:
            budget.start()
        timings: dict[str, float] = {}
        with stage(timings, "total", "search",
                   statements=len(workload)) as node:
            # Count template builds like CoPhy/ILP do, so cross-advisor
            # optimizer call comparisons stay apples to apples when INUM
            # costing is used.
            whatif_before = self.optimizer.whatif_calls + (
                self.inum.template_build_calls if self.inum is not None else 0)

            compressed = self._compress(workload)
            per_query_best = self._per_query_candidates(compressed, candidates)
            storage_budget = tightest_storage_budget(constraints)
            # With INUM available the greedy's many workload costings run
            # through the workload gamma tensor: one batched reduction per
            # probed configuration instead of a Python loop over the
            # statements.
            eval_workload = None
            if self.inum is not None:
                eval_workload = Workload(compressed,
                                         name=f"{workload.name}/compressed")
            configuration = self._knapsack(compressed, per_query_best,
                                           storage_budget, eval_workload,
                                           budget=budget)

            deployed = self._baseline.union(configuration)
            if eval_workload is not None:
                objective = sum(self._weighted_costs(compressed, eval_workload,
                                                     configuration).values())
            else:
                objective = sum(
                    statement.weight
                    * self.optimizer.statement_cost(statement.query, deployed)
                    for statement in compressed)
            node.set(candidates=len(per_query_best),
                     indexes=len(configuration))
            return Recommendation(
                configuration=configuration,
                advisor_name=self.name,
                objective_estimate=objective,
                timings=timings,
                candidate_count=len(per_query_best),
                whatif_calls=(self.optimizer.whatif_calls
                              + (self.inum.template_build_calls
                                 if self.inum is not None else 0)
                              - whatif_before),
                extras={"compressed_statements": len(compressed),
                        "original_statements": len(workload)},
                timed_out=budget is not None and budget.expired(),
                solve_tier=budget.tier if budget is not None else "exact",
            )

    # ----------------------------------------------------------------- internals
    def _compress(self, workload: Workload) -> tuple[WorkloadStatement, ...]:
        statements = workload.statements
        if len(statements) <= self.compression_size:
            return statements
        rng = random.Random(self.seed)
        return tuple(rng.sample(list(statements), self.compression_size))

    def _per_query_candidates(self, statements: Sequence[WorkloadStatement],
                              candidates: CandidateSet | None) -> list[Index]:
        """Pick each statement's best few indexes, capped globally."""
        benefit_by_index: dict[Index, float] = {}
        for statement in statements:
            query = statement.query
            shell = query.query_shell() if isinstance(query, UpdateQuery) else query
            if candidates is None:
                per_query = self.candidate_generator.candidates_for_query(shell)
            else:
                per_query = tuple(
                    index for table in shell.tables
                    for index in candidates.for_table(table))
            if not per_query:
                continue
            if self.inum is not None:
                # One batched column registration instead of growing the
                # query's gamma matrix by one column per scored candidate.
                self.inum.gamma_matrix(shell).ensure_columns(
                    (*self._baseline, *per_query))
            baseline = self._query_cost(shell, self._baseline)
            scored: list[tuple[float, Index]] = []
            for index in per_query:
                with_index = self._query_cost(shell, self._baseline.with_index(index))
                benefit = baseline - with_index
                if benefit > 0:
                    scored.append((benefit, index))
            scored.sort(key=lambda pair: -pair[0])
            for benefit, index in scored[:self.candidates_per_query]:
                benefit_by_index[index] = (benefit_by_index.get(index, 0.0)
                                           + statement.weight * benefit)
        ranked = sorted(benefit_by_index, key=lambda index: -benefit_by_index[index])
        return ranked[:self.max_candidates]

    def _index_size(self, index: Index) -> float:
        return index_size_bytes(index, self.schema.table(index.table))

    def _statement_cost(self, statement: WorkloadStatement,
                        configuration: Configuration) -> float:
        effective = self._baseline.union(configuration)
        return statement.weight * self.optimizer.statement_cost(statement.query,
                                                                effective)

    def _weighted_costs(self, statements: Sequence[WorkloadStatement],
                        eval_workload: Workload, configuration: Configuration
                        ) -> dict[WorkloadStatement, float]:
        """Per-statement weighted deployed costs from one tensor reduction."""
        return weighted_statement_costs(self.inum, statements, eval_workload,
                                        self._baseline.union(configuration))

    def _knapsack(self, statements: Sequence[WorkloadStatement],
                  candidates: list[Index], storage_budget: float | None,
                  eval_workload: Workload | None = None,
                  budget: SolveBudget | None = None) -> Configuration:
        """Marginal-benefit greedy knapsack over the *compressed* workload.

        Unlike Tool-A's one-shot ranking, the benefit of every remaining
        candidate is re-evaluated after each pick, so index interactions
        within the compressed workload are accounted for.  The compression is
        the advisor's Achilles heel instead: whatever the sample misses (the
        heterogeneous-workload case) cannot influence the selection.

        When ``eval_workload`` is given (INUM costing), every probed
        configuration is costed with one batched tensor reduction.
        """
        configuration = Configuration(name="tool-b")
        if eval_workload is not None:
            per_statement = self._weighted_costs(statements, eval_workload,
                                                 configuration)
        else:
            per_statement = {statement: self._statement_cost(statement, configuration)
                             for statement in statements}
        used = 0.0
        remaining = list(candidates)
        while remaining:
            # Anytime check at pick granularity: the configuration built so
            # far is always feasible, so stopping here is safe.
            if budget is not None and budget.expired():
                break
            best_index = None
            best_ratio = 0.0
            best_costs: dict[WorkloadStatement, float] = {}
            for index in remaining:
                if budget is not None and budget.expired():
                    break
                size = self._index_size(index)
                if storage_budget is not None and used + size > storage_budget:
                    continue
                relevant = [s for s in statements
                            if s.query.references(index.table)]
                if not relevant:
                    continue
                candidate_config = configuration.with_index(index)
                if eval_workload is not None:
                    probed = self._weighted_costs(statements, eval_workload,
                                                  candidate_config)
                    new_costs = {s: probed[s] for s in relevant}
                else:
                    new_costs = {s: self._statement_cost(s, candidate_config)
                                 for s in relevant}
                benefit = sum(per_statement[s] - new_costs[s] for s in relevant)
                ratio = benefit / max(size, 1.0)
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_index = index
                    best_costs = new_costs
            if best_index is None or best_ratio <= 0.0:
                break
            configuration = configuration.with_index(best_index)
            used += self._index_size(best_index)
            per_statement.update(best_costs)
            remaining.remove(best_index)
        return configuration
