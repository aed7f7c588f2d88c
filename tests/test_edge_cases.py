"""Edge cases and failure-path tests across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make_advisor
from repro.catalog.column import Column
from repro.catalog.schema import Schema
from repro.catalog.table import Table
from repro.core.bip_builder import BipBuilder
from repro.core.constraints import StorageBudgetConstraint
from repro.exceptions import (
    CatalogError,
    IndexDefinitionError,
    OptimizerError,
    ReproError,
    SolverError,
    WorkloadError,
)
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.configuration import AtomicConfiguration, Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.lp.model import Model, Objective
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.predicates import ColumnRef, ComparisonOperator, SimplePredicate
from repro.workload.query import SelectQuery, UpdateQuery
from repro.workload.workload import Workload, WorkloadStatement


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exception_type", [
        CatalogError, WorkloadError, IndexDefinitionError, OptimizerError,
        SolverError,
    ])
    def test_all_errors_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    def test_infeasible_error_carries_constraint_names(self):
        from repro.exceptions import InfeasibleProblemError

        error = InfeasibleProblemError(violated_constraints=("storage", "count"))
        assert error.violated_constraints == ("storage", "count")
        assert isinstance(error, SolverError)


class TestSingleTableTinySchema:
    """The whole pipeline must work on a degenerate one-table, one-query setup."""

    @pytest.fixture
    def tiny_schema(self):
        table = Table("t", (Column("a"), Column("b")), row_count=100,
                      primary_key=("a",))
        return Schema([table], name="tiny")

    @pytest.fixture
    def tiny_workload(self):
        query = SelectQuery(
            tables=("t",),
            projections=(ColumnRef("t", "b"),),
            predicates=(SimplePredicate(ColumnRef("t", "a"),
                                        ComparisonOperator.EQ, 5),),
            name="tiny#1")
        return Workload([WorkloadStatement(query, 1.0)])

    def test_end_to_end_on_tiny_instance(self, tiny_schema, tiny_workload):
        advisor = make_advisor("cophy", tiny_schema, gap_tolerance=0.0)
        recommendation = advisor.tune(tiny_workload)
        assert recommendation.objective_estimate > 0
        # On a 100-row table an extra index may or may not pay off, but the
        # recommendation must only use columns of the schema.
        for index in recommendation.configuration:
            assert index.table == "t"

    def test_optimizer_handles_query_without_predicates(self, tiny_schema):
        optimizer = WhatIfOptimizer(tiny_schema)
        query = SelectQuery(tables=("t",), projections=(ColumnRef("t", "a"),),
                            name="scan_all#1")
        plan = optimizer.optimize(query, Configuration())
        assert plan.total_cost > 0
        assert plan.scan_nodes()[0].rows == pytest.approx(100.0)

    def test_update_without_predicates_touches_whole_table(self, tiny_schema):
        optimizer = WhatIfOptimizer(tiny_schema)
        update = UpdateQuery(table="t", set_columns=(ColumnRef("t", "b"),),
                             name="upd_all#1")
        affected = Index("t", ("b",))
        assert optimizer.update_maintenance_cost(affected, update) > 0
        assert optimizer.base_update_cost(update) > 0


class TestOptimizerErrorPaths:
    def test_atomic_configuration_with_wrong_table_rejected(self, simple_schema,
                                                            simple_workload):
        optimizer = WhatIfOptimizer(simple_schema)
        query = simple_workload.statements[0].query  # references "orders" only
        foreign = Index("items", ("i_order",))
        with pytest.raises(IndexDefinitionError):
            AtomicConfiguration({"orders": foreign})
        # A well-formed atomic configuration for an unreferenced table is ignored.
        atomic = AtomicConfiguration({"orders": None})
        assert optimizer.optimize_atomic(query, atomic).total_cost > 0

    def test_query_over_unknown_table_fails_loudly(self, simple_schema):
        optimizer = WhatIfOptimizer(simple_schema)
        query = SelectQuery(tables=("missing",), name="bad#1")
        with pytest.raises(CatalogError):
            optimizer.cost(query, Configuration())


class TestBipBuilderErrorPaths:
    def test_workload_over_foreign_schema_fails(self, simple_schema):
        optimizer = WhatIfOptimizer(simple_schema)
        inum = InumCache(optimizer)
        builder = BipBuilder(inum)
        foreign_query = SelectQuery(tables=("unknown_table",), name="foreign#1")
        workload = Workload([WorkloadStatement(foreign_query, 1.0)])
        with pytest.raises(CatalogError):
            builder.build(workload, CandidateSet(simple_schema))

    def test_empty_candidate_set_still_solves(self, simple_schema, simple_workload):
        """With no candidates the only choice is the heap access everywhere."""
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        empty = CandidateSet(simple_schema)
        recommendation = advisor.tune(simple_workload, candidates=empty)
        assert len(recommendation.configuration) == 0
        assert recommendation.objective_estimate > 0

    def test_storage_constraint_with_empty_candidates_is_trivially_satisfied(
            self, simple_schema, simple_workload):
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        empty = CandidateSet(simple_schema)
        recommendation = advisor.tune(
            simple_workload, candidates=empty,
            constraints=[StorageBudgetConstraint(0.0)])
        assert len(recommendation.configuration) == 0


class TestModelEdgeCases:
    def test_model_without_constraints_solves(self):
        from repro.lp.highs_backend import MilpBackend

        model = Model("unconstrained")
        model.add_columns(1)
        model.set_objective(Objective.of([0], [1.0]))  # minimise => x = 0
        solution = MilpBackend().solve(model.to_matrices())
        assert solution.vector[0] == 0.0

    def test_objective_with_constant_only(self):
        from repro.lp.highs_backend import MilpBackend

        model = Model("constant")
        model.add_columns(1)
        model.set_objective(Objective(np.zeros(0, dtype=np.int64),
                                      np.zeros(0), 42.0))
        solution = MilpBackend().solve(model.to_matrices())
        assert solution.objective == pytest.approx(42.0)


class TestWorkloadEdgeCases:
    def test_workload_of_only_updates(self, simple_schema):
        update = UpdateQuery(table="orders",
                             set_columns=(ColumnRef("orders", "o_status"),),
                             predicates=(SimplePredicate(
                                 ColumnRef("orders", "o_date"),
                                 ComparisonOperator.LT, 10,
                                 selectivity_hint=0.01),),
                             name="only_update#1")
        workload = Workload([WorkloadStatement(update, 1.0)])
        advisor = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        recommendation = advisor.tune(workload)
        # Indexes can only add maintenance cost here, so none should be picked
        # beyond ones that speed up locating the updated rows enough to pay off.
        assert recommendation.objective_estimate > 0

    def test_repeated_identical_statements_accumulate_weight(self, simple_schema,
                                                             simple_workload):
        optimizer = WhatIfOptimizer(simple_schema)
        inum = InumCache(optimizer)
        single = Workload([simple_workload.statements[0]])
        double = Workload([simple_workload.statements[0],
                           simple_workload.statements[0]])
        assert inum.workload_cost(double, Configuration()) == pytest.approx(
            2 * inum.workload_cost(single, Configuration()))
