"""Tests for the DBA constraint language and its linear translation."""

from __future__ import annotations

import pytest

from repro.core.bip_builder import BipBuilder
from repro.core.constraints import (
    ClusteredIndexConstraint,
    ComparisonSense,
    IndexCountConstraint,
    IndexWidthConstraint,
    QueryCostConstraint,
    QuerySpeedupGenerator,
    SoftConstraint,
    StorageBudgetConstraint,
    UpdateCostConstraint,
    split_constraints,
)
from repro.core.solver import CoPhySolver
from repro.exceptions import ConstraintError, InfeasibleProblemError
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.query import SelectQuery


@pytest.fixture
def tuning_setup(simple_schema, simple_workload):
    optimizer = WhatIfOptimizer(simple_schema)
    inum = InumCache(optimizer)
    candidates = CandidateGenerator(simple_schema).generate(simple_workload)
    bip = BipBuilder(inum).build(simple_workload, candidates)
    return optimizer, inum, candidates, bip


def _solve(bip, constraints, gap=0.0):
    solver = CoPhySolver(gap_tolerance=gap)
    return solver.solve(bip, hard_constraints=constraints)


class TestStorageBudgetConstraint:
    def test_budget_respected(self, tuning_setup):
        _, _, candidates, bip = tuning_setup
        budget = 0.25 * candidates.total_size()
        report = _solve(bip, [StorageBudgetConstraint(budget)])
        used = sum(candidates.size_of(index) for index in report.configuration)
        assert used <= budget * (1 + 1e-9)

    def test_tighter_budget_never_improves_cost(self, tuning_setup):
        _, _, candidates, bip = tuning_setup
        loose = _solve(bip, [StorageBudgetConstraint(candidates.total_size())])
        tight = _solve(bip, [StorageBudgetConstraint(0.1 * candidates.total_size())])
        assert tight.objective >= loose.objective - 1e-6

    def test_from_fraction_of_data(self, simple_schema):
        constraint = StorageBudgetConstraint.from_fraction_of_data(simple_schema, 0.5)
        assert constraint.budget_bytes == pytest.approx(
            0.5 * simple_schema.total_size_bytes)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConstraintError):
            StorageBudgetConstraint(-1.0)

    def test_zero_budget_selects_nothing(self, tuning_setup):
        _, _, _, bip = tuning_setup
        report = _solve(bip, [StorageBudgetConstraint(0.0)])
        assert len(report.configuration) == 0


class TestIndexCountConstraint:
    def test_limits_total_indexes(self, tuning_setup):
        _, _, _, bip = tuning_setup
        report = _solve(bip, [IndexCountConstraint(limit=2)])
        assert len(report.configuration) <= 2

    def test_per_table_selector(self, tuning_setup):
        _, _, _, bip = tuning_setup
        constraint = IndexCountConstraint(
            limit=1, selector=lambda index: index.table == "items",
            name="items_limit")
        report = _solve(bip, [constraint])
        assert len(report.configuration.indexes_on("items")) <= 1

    def test_at_least_sense(self, tuning_setup):
        _, _, _, bip = tuning_setup
        constraint = IndexCountConstraint(limit=3, sense=ComparisonSense.AT_LEAST)
        report = _solve(bip, [constraint])
        assert len(report.configuration) >= 3

    def test_unsatisfiable_at_least_on_empty_selector(self, tuning_setup):
        _, _, _, bip = tuning_setup
        constraint = IndexCountConstraint(
            limit=1, selector=lambda index: index.table == "no_such_table",
            sense=ComparisonSense.AT_LEAST)
        with pytest.raises(ConstraintError):
            constraint.to_linear(bip)


class TestWidthAndClusteredConstraints:
    def test_width_constraint_excludes_wide_indexes(self, tuning_setup):
        _, _, _, bip = tuning_setup
        report = _solve(bip, [IndexWidthConstraint(max_columns=1)])
        assert all(index.width <= 1 for index in report.configuration)

    def test_clustered_constraint_allows_one_per_table(self, tuning_setup):
        _, _, _, bip = tuning_setup
        report = _solve(bip, [ClusteredIndexConstraint()])
        for table in ("orders", "items"):
            assert len(report.configuration.clustered_indexes_on(table)) <= 1

    def test_clustered_rows_only_for_tables_with_multiple_candidates(self,
                                                                     tuning_setup):
        _, _, _, bip = tuning_setup
        rows = ClusteredIndexConstraint().to_linear(bip)
        # Every generated row must involve at least two clustered candidates.
        for row in rows:
            assert len(row.variables()) >= 2


class TestQueryCostConstraints:
    def test_single_query_constraint_enforced(self, tuning_setup, simple_workload):
        optimizer, inum, _, bip = tuning_setup
        query = simple_workload.statements[0].query
        baseline_cost = inum.cost(query, Configuration())
        constraint = QueryCostConstraint(query=query, reference_cost=baseline_cost,
                                         factor=0.6)
        report = _solve(bip, [constraint])
        achieved = inum.cost(query, report.configuration)
        assert achieved <= 0.6 * baseline_cost * (1 + 1e-6)

    def test_unknown_query_rejected(self, tuning_setup):
        _, _, _, bip = tuning_setup
        foreign = SelectQuery(tables=("orders",), name="not_in_workload")
        constraint = QueryCostConstraint(query=foreign, reference_cost=10.0)
        with pytest.raises(ConstraintError):
            constraint.to_linear(bip)

    def test_invalid_parameters_rejected(self, simple_workload):
        query = simple_workload.statements[0].query
        with pytest.raises(ConstraintError):
            QueryCostConstraint(query=query, reference_cost=-1.0)
        with pytest.raises(ConstraintError):
            QueryCostConstraint(query=query, reference_cost=1.0, factor=0.0)

    def test_generator_expands_to_all_selects(self, tuning_setup, simple_workload):
        optimizer, inum, _, bip = tuning_setup
        references = {
            statement.query.name: inum.statement_cost(statement.query, Configuration())
            for statement in simple_workload.select_statements()}
        generator = QuerySpeedupGenerator(reference_costs=references, factor=0.9)
        rows = generator.to_linear(bip)
        assert len(rows) == len(simple_workload.select_statements())

    def test_generator_with_filter(self, tuning_setup, simple_workload):
        optimizer, inum, _, bip = tuning_setup
        references = {
            statement.query.name: inum.statement_cost(statement.query, Configuration())
            for statement in simple_workload.select_statements()}
        generator = QuerySpeedupGenerator(
            reference_costs=references, factor=0.9,
            statement_filter=lambda q: "join" in q.name)
        assert len(generator.to_linear(bip)) == 1

    def test_generator_with_no_matches_rejected(self, tuning_setup):
        _, _, _, bip = tuning_setup
        generator = QuerySpeedupGenerator(reference_costs={}, factor=0.9)
        with pytest.raises(ConstraintError):
            generator.to_linear(bip)

    def test_infeasible_speedup_raises(self, tuning_setup, simple_workload):
        _, inum, _, bip = tuning_setup
        query = simple_workload.statements[1].query  # full-scan aggregate query
        baseline_cost = inum.cost(query, Configuration())
        impossible = QueryCostConstraint(query=query, reference_cost=baseline_cost,
                                         factor=1e-9)
        with pytest.raises(InfeasibleProblemError):
            _solve(bip, [impossible])


class TestUpdateCostConstraint:
    def test_bounds_total_maintenance(self, tuning_setup, simple_workload):
        optimizer, _, _, bip = tuning_setup
        report = _solve(bip, [UpdateCostConstraint(limit=0.0)])
        # With a zero maintenance budget no index on the updated table that
        # stores a written column may be selected.
        update = simple_workload.statements[3].query
        for index in report.configuration.indexes_on("orders"):
            assert optimizer.update_maintenance_cost(index, update) == 0.0

    def test_negative_limit_rejected(self):
        with pytest.raises(ConstraintError):
            UpdateCostConstraint(limit=-5.0)


class TestSoftConstraintWrapper:
    def test_soft_wrapper_exposes_measure_and_target(self, tuning_setup):
        _, _, candidates, bip = tuning_setup
        soft = StorageBudgetConstraint(12345.0).soft()
        assert isinstance(soft, SoftConstraint)
        assert soft.target_value() == pytest.approx(12345.0)
        assert not soft.measure_expression(bip).is_empty()
        assert "soft" in soft.name

    def test_explicit_target_overrides_bound(self):
        soft = StorageBudgetConstraint(100.0).soft(target=5.0)
        assert soft.target_value() == pytest.approx(5.0)

    def test_unsupported_soft_constraint_rejected(self, tuning_setup):
        _, _, _, bip = tuning_setup
        soft = ClusteredIndexConstraint().soft(target=1.0)
        with pytest.raises(ConstraintError):
            soft.measure_expression(bip)

    def test_split_constraints(self):
        hard = StorageBudgetConstraint(10.0)
        soft = StorageBudgetConstraint(10.0).soft()
        hard_list, soft_list = split_constraints([hard, soft])
        assert hard_list == [hard]
        assert soft_list == [soft]
        with pytest.raises(ConstraintError):
            split_constraints(["not a constraint"])  # type: ignore[list-item]
