"""A Tool-A-like advisor: greedy search with relaxation, driven by what-if calls.

This models the behaviour of the commercial advisor the paper calls Tool-A,
which follows the relaxation-based approach of Bruno & Chaudhuri (SIGMOD
2005, reference [3]):

1. per-query candidate selection with aggressive pruning (the paper traces
   Tool-A using only ~170 candidates for ``W_hom``, an order of magnitude
   fewer than CoPhy's 1933);
2. construction of an "ideal" configuration from the best per-query indexes;
3. relaxation: while the configuration violates the storage budget, remove or
   merge the index whose removal hurts the workload the least, re-costing the
   affected queries with direct what-if optimizer calls.

Because every evaluation step issues real what-if optimizations, the advisor's
running time grows quickly with the workload size; a what-if call budget
forces it to evaluate benefits on a shrinking sample of the workload as the
input grows, which is what degrades its recommendation quality for large
workloads (the effect behind Table 1 / Figure 7 of the paper).
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
from repro.core.constraints import StorageBudgetConstraint, TuningConstraint
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.indexes.configuration import Configuration, baseline_configuration
from repro.indexes.index import Index, index_size_bytes
from repro.inum.cache import InumCache
from repro.lp.budget import SolveBudget
from repro.obs.trace import stage
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.query import UpdateQuery
from repro.workload.workload import Workload, WorkloadStatement

__all__ = ["RelaxationAdvisor"]


class RelaxationAdvisor(Advisor):
    """Tool-A-like greedy/relaxation index advisor using direct what-if calls.

    Args:
        schema: Catalog being tuned.
        optimizer: What-if optimizer used for every cost evaluation.
        max_candidates: Cap on the pruned candidate set size (Tool-A used ~170).
        whatif_call_budget: Budget of what-if optimizations per tuning session;
            when the workload is too large to evaluate within the budget, the
            advisor falls back to costing a sample of the statements.
        seed: Seed for the sampling fallback.
        inum: Optional INUM cache.  When given, the greedy/relaxation search
            costs every probed configuration through the workload gamma
            tensor (one batched reduction per probe) instead of direct
            what-if optimizations.  This departs from the paper-faithful
            Tool-A model (whose cost is *defined* by its black-box optimizer
            calls), so the per-figure benchmarks leave it off; it exists for
            sessions that want a fast Tool-A-shaped search.
    """

    name = "tool-a"

    def __init__(self, schema: Schema, optimizer: WhatIfOptimizer | None = None,
                 candidate_generator: CandidateGenerator | None = None,
                 max_candidates: int = 170,
                 whatif_call_budget: int = 4000,
                 seed: int = 17,
                 inum: "InumCache | None" = None):
        self.schema = schema
        self.optimizer = optimizer or WhatIfOptimizer(schema)
        self.candidate_generator = candidate_generator or CandidateGenerator(
            schema, clustered=False, max_key_columns=2, max_include_columns=3)
        self.max_candidates = max(1, max_candidates)
        self.whatif_call_budget = max(100, whatif_call_budget)
        self.seed = seed
        self.inum = inum
        # The existing physical design (clustered primary keys) is always
        # available; benefits are measured on top of it, as a real advisor
        # would measure them on top of the deployed design.
        self._baseline = baseline_configuration(schema)

    # -------------------------------------------------------------------- public
    def tune(self, workload: Workload, constraints: Sequence[TuningConstraint] = (),
             candidates: CandidateSet | None = None,
             budget: SolveBudget | None = None) -> Recommendation:
        if budget is not None:
            budget.start()
        timings: dict[str, float] = {}
        with stage(timings, "total", "search",
                   statements=len(workload)) as node:
            # Count template builds like CoPhy/ILP/DTA do, so cross-advisor
            # optimizer-call comparisons stay apples to apples with INUM
            # costing.
            whatif_before = self.optimizer.whatif_calls + (
                self.inum.template_build_calls if self.inum is not None else 0)

            if candidates is None:
                candidates = self.candidate_generator.generate(workload)
            pruned = self._prune_candidates(workload, candidates)

            evaluation_sample = self._evaluation_sample(workload, pruned)
            storage_budget = self._storage_budget(constraints)
            # Optional fast path: cost probes through the workload gamma tensor.
            eval_workload = None
            if self.inum is not None:
                eval_workload = Workload(evaluation_sample,
                                         name=f"{workload.name}/evaluated")

            configuration = self._greedy_build(evaluation_sample, pruned,
                                               storage_budget, eval_workload,
                                               budget=budget)
            configuration = self._relax(evaluation_sample, configuration,
                                        storage_budget, eval_workload,
                                        budget=budget)

            objective = self._workload_cost(evaluation_sample, configuration,
                                            eval_workload)
            node.set(candidates=len(pruned), indexes=len(configuration))
            return Recommendation(
                configuration=configuration,
                advisor_name=self.name,
                objective_estimate=objective,
                timings=timings,
                candidate_count=len(pruned),
                whatif_calls=(self.optimizer.whatif_calls
                              + (self.inum.template_build_calls
                                 if self.inum is not None else 0)
                              - whatif_before),
                extras={"evaluated_statements": len(evaluation_sample)},
                timed_out=budget is not None and budget.expired(),
                solve_tier=budget.tier if budget is not None else "exact",
            )

    # ----------------------------------------------------------------- internals
    def _prune_candidates(self, workload: Workload,
                          candidates: CandidateSet) -> list[Index]:
        """Aggressive candidate pruning: keep the most frequently useful indexes."""
        usefulness: dict[Index, float] = {}
        for statement in workload:
            query = statement.query
            shell = query.query_shell() if isinstance(query, UpdateQuery) else query
            for table in shell.tables:
                referenced = {c.column for c in shell.referenced_columns_on(table)}
                sargable = {p.column.column for p in shell.sargable_predicates_on(table)}
                for index in candidates.for_table(table):
                    if index.leading_column in sargable:
                        usefulness[index] = usefulness.get(index, 0.0) + 2.0 * statement.weight
                    elif index.leading_column in referenced:
                        usefulness[index] = usefulness.get(index, 0.0) + statement.weight
        ranked = sorted(usefulness, key=lambda index: -usefulness[index])
        return ranked[:self.max_candidates]

    def _evaluation_sample(self, workload: Workload,
                           pruned: list[Index]) -> tuple[WorkloadStatement, ...]:
        """The statements actually costed during the search.

        The search needs roughly ``|candidates| * rounds`` evaluations per
        statement; when that exceeds the what-if budget the workload is
        sampled down, trading recommendation quality for bounded running time
        (exactly the scale-down behaviour the paper attributes to Tool-A).
        """
        statements = workload.statements
        per_statement_calls = max(1, len(pruned) // 2)
        affordable = max(5, self.whatif_call_budget // per_statement_calls)
        if len(statements) <= affordable:
            return statements
        rng = random.Random(self.seed)
        sampled = rng.sample(list(statements), affordable)
        return tuple(sampled)

    def _storage_budget(self, constraints: Sequence[TuningConstraint]) -> float | None:
        for constraint in constraints:
            if isinstance(constraint, StorageBudgetConstraint):
                return constraint.budget_bytes
        return None

    def _index_size(self, index: Index) -> float:
        return index_size_bytes(index, self.schema.table(index.table))

    def _workload_cost(self, statements: Sequence[WorkloadStatement],
                       configuration: Configuration,
                       eval_workload: Workload | None = None) -> float:
        if eval_workload is not None:
            return sum(self._weighted_costs(statements, eval_workload,
                                            configuration).values())
        effective = self._baseline.union(configuration)
        return sum(statement.weight
                   * self.optimizer.statement_cost(statement.query, effective)
                   for statement in statements)

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

    def _greedy_build(self, statements: Sequence[WorkloadStatement],
                      pruned: list[Index], storage_budget: float | None,
                      eval_workload: Workload | None = None,
                      budget: SolveBudget | None = None) -> Configuration:
        """Greedily fill the budget with the highest benefit/size candidates.

        Each candidate is scored *in isolation* against the deployed design —
        the greedy does not re-evaluate marginal benefits as the configuration
        grows, so it cannot see index interactions (two candidates that are
        redundant with each other both look attractive).  This is exactly the
        structural weakness of greedy advisors the paper's introduction calls
        out, and the reason Tool-A's recommendations trail CoPhy's even when
        it is given plenty of time.
        """
        if eval_workload is not None:
            baseline_costs = self._weighted_costs(statements, eval_workload,
                                                  Configuration())
        else:
            baseline_costs = {statement: self._statement_cost(statement,
                                                              Configuration())
                              for statement in statements}
        scored: list[tuple[float, Index]] = []
        for index in pruned:
            # Anytime check: candidates scored so far still yield a feasible
            # (possibly smaller) configuration below.
            if budget is not None and budget.expired():
                break
            relevant = [s for s in statements if s.query.references(index.table)]
            if not relevant:
                continue
            candidate_config = Configuration([index])
            if eval_workload is not None:
                probed = self._weighted_costs(statements, eval_workload,
                                              candidate_config)
                benefit = sum(baseline_costs[s] - probed[s] for s in relevant)
            else:
                benefit = sum(baseline_costs[s] - self._statement_cost(s, candidate_config)
                              for s in relevant)
            size = self._index_size(index)
            if benefit > 0:
                scored.append((benefit / max(size, 1.0), index))
        scored.sort(key=lambda pair: -pair[0])

        selected: list[Index] = []
        used_bytes = 0.0
        for _, index in scored:
            size = self._index_size(index)
            if storage_budget is not None and used_bytes + size > storage_budget:
                continue
            selected.append(index)
            used_bytes += size
        return Configuration(selected, name="tool-a")

    def _relax(self, statements: Sequence[WorkloadStatement],
               configuration: Configuration, storage_budget: float | None,
               eval_workload: Workload | None = None,
               budget: SolveBudget | None = None) -> Configuration:
        """Remove indexes while the configuration exceeds the storage budget.

        The relaxation loop restores *feasibility*, so an expired anytime
        budget cannot stop it early — it switches to the cheapest valid exit
        instead: dropping the largest remaining indexes without re-costing.
        """
        if storage_budget is None:
            return configuration
        used = sum(self._index_size(index) for index in configuration)
        while used > storage_budget and len(configuration) > 0:
            if budget is not None and budget.expired():
                largest = max(configuration, key=self._index_size)
                configuration = configuration.without_index(largest)
                used -= self._index_size(largest)
                continue
            best_choice = None
            best_penalty = float("inf")
            for index in configuration:
                reduced = configuration.without_index(index)
                relevant = [s for s in statements if s.query.references(index.table)]
                if eval_workload is not None:
                    probed = self._weighted_costs(statements, eval_workload,
                                                  reduced)
                    penalty = sum(probed[s] for s in relevant)
                else:
                    penalty = sum(self._statement_cost(s, reduced)
                                  for s in relevant)
                if penalty < best_penalty:
                    best_penalty = penalty
                    best_choice = index
            if best_choice is None:
                break
            configuration = configuration.without_index(best_choice)
            used -= self._index_size(best_choice)
        return configuration
