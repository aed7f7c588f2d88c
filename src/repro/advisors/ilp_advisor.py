"""The ILP baseline: a BIP with one variable per candidate atomic configuration.

This reproduces the formulation of Papadomanolakis & Ailamaki ("An integer
linear programming approach to automated database design", reference [14] of
the CoPhy paper).  The crucial difference from CoPhy is the variable space:

* ILP introduces one binary variable per (query, candidate atomic
  configuration).  The number of atomic configurations grows with
  ``prod_i |S_i|``, so the advisor must *prune* the candidate configurations
  per query before building the BIP — and that enumeration/pruning dominates
  its execution time (Figures 5 and 10 of the paper).
* CoPhy instead uses one variable per index and lets the BIP solver do the
  pruning.

To keep the comparison fair (as the paper does), ILP is interfaced with the
same INUM cache for fast cost estimation and uses the same BIP solver backend.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.advisors.base import Advisor, Recommendation
from repro.catalog.schema import Schema
from repro.core.constraints import StorageBudgetConstraint, TuningConstraint
from repro.core.heuristics import ideal_lower_bound
from repro.exceptions import InfeasibleProblemError
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.indexes.configuration import AtomicConfiguration, Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.lp.budget import SolveBudget
from repro.lp.expression import LinearExpression
from repro.lp.highs_backend import MilpBackend
from repro.lp.model import Model
from repro.lp.solution import SolutionStatus
from repro.obs.trace import stage
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.query import Query, UpdateQuery
from repro.workload.workload import Workload

__all__ = ["IlpAdvisor"]


class IlpAdvisor(Advisor):
    """BIP-per-atomic-configuration index advisor (the paper's ILP baseline).

    Args:
        schema: Catalog being tuned.
        optimizer: Shared what-if optimizer (a fresh one is created otherwise).
        inum: Shared INUM cache (a fresh one is created otherwise); the paper
            interfaces ILP with INUM so that both techniques benefit from fast
            what-if optimization.
        max_indexes_per_table: Pruning knob — how many candidate indexes per
            table are retained per query when enumerating atomic
            configurations.
        max_configurations_per_query: Pruning knob — cap on the number of
            atomic configurations kept per query (the best ones by estimated
            cost are kept).
        gap_tolerance: Early-termination gap passed to the BIP solver.
    """

    name = "ilp"

    def __init__(self, schema: Schema, optimizer: WhatIfOptimizer | None = None,
                 inum: InumCache | None = None,
                 candidate_generator: CandidateGenerator | None = None,
                 max_indexes_per_table: int = 4,
                 max_configurations_per_query: int = 256,
                 gap_tolerance: float = 0.05,
                 time_limit_seconds: float | None = None):
        self.schema = schema
        self.optimizer = optimizer or WhatIfOptimizer(schema)
        self.inum = inum or InumCache(self.optimizer)
        self.candidate_generator = candidate_generator or CandidateGenerator(schema)
        self.max_indexes_per_table = max(1, max_indexes_per_table)
        self.max_configurations_per_query = max(1, max_configurations_per_query)
        self.gap_tolerance = gap_tolerance
        self.time_limit_seconds = time_limit_seconds

    # -------------------------------------------------------------------- public
    # reprolint: requires-lock (mutates the shared INUM cache; caller serializes)
    def tune(self, workload: Workload, constraints: Sequence[TuningConstraint] = (),
             candidates: CandidateSet | None = None,
             budget: SolveBudget | None = None) -> Recommendation:
        if budget is not None:
            budget.start()
        timings: dict[str, float] = {}
        with stage(timings, "total"):
            if candidates is None:
                candidates = self.candidate_generator.generate(workload)

            whatif_before = (self.optimizer.whatif_calls
                             + self.inum.template_build_calls)
            # Pre-register every candidate in the per-query gamma matrices so
            # the atomic-configuration enumeration below runs on precomputed
            # arrays.
            with stage(timings, "inum", statements=len(workload),
                       candidates=len(candidates)):
                self.inum.prepare(workload, candidates)

            with stage(timings, "build") as node:
                model, z_variables, objective = self._build_model(
                    workload, candidates, budget=budget)
                storage_budget = self._storage_budget(constraints)
                if storage_budget is not None:
                    sizes = [candidates.size_of(index) for index in z_variables]
                    expression = LinearExpression.sum_of(
                        list(z_variables.values()), sizes)
                    model.add_constraint(expression <= storage_budget,
                                         name="storage_budget")
                node.set(variables=model.variable_count,
                         constraints=model.constraint_count)

            with stage(timings, "solve") as node:
                backend = MilpBackend(gap_tolerance=self.gap_tolerance,
                                      time_limit_seconds=self.time_limit_seconds)
                solution = backend.solve(model, budget=budget)
                node.set(timed_out=solution.timed_out)

            def answer(configuration: Configuration, objective: float,
                       gap: float, timed_out: bool) -> Recommendation:
                return Recommendation(
                    configuration=configuration, advisor_name=self.name,
                    objective_estimate=objective, timings=timings,
                    candidate_count=len(candidates),
                    whatif_calls=(self.optimizer.whatif_calls
                                  + self.inum.template_build_calls
                                  - whatif_before),
                    gap=gap,
                    extras={"variables": model.variable_count,
                            "constraints": model.constraint_count},
                    timed_out=timed_out)

            if solution.status is SolutionStatus.INFEASIBLE:
                raise InfeasibleProblemError("ILP tuning problem is infeasible")
            if not solution.status.has_solution and budget is not None \
                    and budget.expired():
                # The deadline starved HiGHS of even one incumbent.  The
                # no-index configuration is always feasible; cost it for real
                # and report its gap against the ideal (all-candidates,
                # maintenance-free) bound so the caller still sees a finite
                # gap.
                objective = self.inum.workload_cost(workload, Configuration(()))
                bound = ideal_lower_bound(self.inum, workload, candidates)
                return answer(
                    Configuration((), name="ilp-recommendation"), objective,
                    max(0.0, (objective - bound) / max(abs(objective), 1e-9)),
                    timed_out=True)

            selected = [index for index, variable in z_variables.items()
                        if solution.value(variable) >= 0.5]
            return answer(
                Configuration(selected, name="ilp-recommendation"),
                solution.objective, solution.gap,
                timed_out=solution.timed_out or (budget is not None
                                                 and budget.expired()))

    # ----------------------------------------------------------------- internals
    def _build_model(self, workload: Workload, candidates: CandidateSet,
                     budget: SolveBudget | None = None
                     ) -> tuple[Model, dict[Index, object], LinearExpression]:
        model = Model(name="ilp-bip")
        z_variables: dict[Index, object] = {
            index: model.add_binary(f"z[{index.name}]") for index in candidates}
        objective_terms: dict = {}

        for statement in workload:
            query = statement.query
            shell = query.query_shell() if isinstance(query, UpdateQuery) else query
            if budget is not None and budget.expired():
                # Deadline fired mid-enumeration: the remaining statements
                # get only the no-index atomic, which keeps the model
                # feasible (every query has a choice) at zero extra probes.
                atomics = [(AtomicConfiguration({}),
                            self.inum.cost(shell, Configuration(())))]
            else:
                atomics = self._pruned_atomic_configurations(shell, candidates)
            config_variables = []
            for position, (atomic, cost) in enumerate(atomics):
                variable = model.add_binary(f"p[{shell.name}][{position}]")
                config_variables.append(variable)
                objective_terms[variable] = (objective_terms.get(variable, 0.0)
                                             + statement.weight * cost)
                for index in atomic.indexes():
                    model.add_constraint(
                        (1.0 * variable) - (1.0 * z_variables[index]) <= 0.0,
                        name=f"uses[{shell.name}][{position}][{index.name}]")
            model.add_constraint(
                LinearExpression.sum_of(config_variables) == 1.0,
                name=f"one_config[{shell.name}]")
            if isinstance(query, UpdateQuery):
                for index in candidates.for_table(query.table):
                    ucost = self.optimizer.update_maintenance_cost(index, query)
                    if ucost > 0:
                        variable = z_variables[index]
                        objective_terms[variable] = (
                            objective_terms.get(variable, 0.0)
                            + statement.weight * ucost)

        objective = LinearExpression(objective_terms)
        model.set_objective(objective)
        return model, z_variables, objective

    def _pruned_atomic_configurations(self, query: Query, candidates: CandidateSet
                                      ) -> list[tuple[AtomicConfiguration, float]]:
        """Enumerate and prune candidate atomic configurations for one query.

        This is the expensive step of the ILP formulation: the cross product
        of per-table candidates is enumerated (bounded by the pruning knobs),
        each configuration is costed through INUM, and only the cheapest
        ``max_configurations_per_query`` are kept.
        """
        per_table_choices: list[list[Index | None]] = []
        for table in query.tables:
            referenced = {c.column for c in query.referenced_columns_on(table)}
            relevant = [index for index in candidates.for_table(table)
                        if index.leading_column in referenced
                        or index.covers(referenced)]
            ranked = sorted(
                relevant,
                key=lambda index: self.inum.access_cost(query, table, index))
            choices: list[Index | None] = [None]
            choices.extend(ranked[:self.max_indexes_per_table])
            per_table_choices.append(choices)

        scored: list[tuple[AtomicConfiguration, float]] = []
        for combination in itertools.product(*per_table_choices):
            atomic = AtomicConfiguration(
                {table: index for table, index in zip(query.tables, combination)})
            cost = self.inum.cost(query, Configuration(atomic.indexes()))
            scored.append((atomic, cost))
        scored.sort(key=lambda pair: pair[1])
        return scored[:self.max_configurations_per_query]

    @staticmethod
    def _storage_budget(constraints: Sequence[TuningConstraint]) -> float | None:
        for constraint in constraints:
            if isinstance(constraint, StorageBudgetConstraint):
                return constraint.budget_bytes
        return None
