"""Tests for access paths, plan construction and the what-if optimizer."""

from __future__ import annotations

import pytest

from repro.catalog.tpch import tpch_schema
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import AtomicConfiguration, Configuration
from repro.indexes.index import Index
from repro.optimizer.cost_model import CostModel
from repro.optimizer.plan import (
    AccessPath,
    AggregateNode,
    JoinAlgorithm,
    JoinNode,
    Plan,
    ScanNode,
    SortNode,
)
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import generate_homogeneous_workload
from repro.workload.predicates import ColumnRef, ComparisonOperator, JoinPredicate, SimplePredicate
from repro.workload.query import Aggregate, AggregateFunction, SelectQuery, UpdateQuery


@pytest.fixture
def optimizer(simple_schema) -> WhatIfOptimizer:
    return WhatIfOptimizer(simple_schema)


def _point_query(selectivity=None):
    return SelectQuery(
        tables=("orders",),
        projections=(ColumnRef("orders", "o_total"),),
        predicates=(SimplePredicate(ColumnRef("orders", "o_customer"),
                                    ComparisonOperator.EQ, 42,
                                    selectivity_hint=selectivity),),
        name=f"point_sel_{selectivity}",
    )


def _join_query():
    return SelectQuery(
        tables=("orders", "items"),
        predicates=(SimplePredicate(ColumnRef("items", "i_shipdate"),
                                    ComparisonOperator.BETWEEN, (100, 140),
                                    selectivity_hint=0.02),),
        joins=(JoinPredicate(ColumnRef("orders", "o_id"),
                             ColumnRef("items", "i_order")),),
        group_by=(ColumnRef("orders", "o_date"),),
        aggregates=(Aggregate(AggregateFunction.COUNT, None),),
        name="join_query",
    )


class TestAccessPaths:
    def test_seq_scan_has_table_cost_and_pk_order(self, optimizer, simple_schema):
        query = _point_query(0.001)
        scan = optimizer.access_scan(query, "orders", None)
        assert scan.access_path is AccessPath.SEQ_SCAN
        assert scan.cost > 0
        assert scan.output_order == ColumnRef("orders", "o_id")

    def test_selective_index_scan_beats_seq_scan(self, optimizer):
        query = _point_query(0.0005)
        index = Index("orders", ("o_customer",))
        index_scan = optimizer.access_scan(query, "orders", index)
        seq_scan = optimizer.access_scan(query, "orders", None)
        assert index_scan.cost < seq_scan.cost
        assert index_scan.access_path is AccessPath.INDEX_SCAN

    def test_unselective_index_scan_loses_to_seq_scan(self, optimizer):
        query = _point_query(0.9)
        index = Index("orders", ("o_customer",))
        index_scan = optimizer.access_scan(query, "orders", index)
        seq_scan = optimizer.access_scan(query, "orders", None)
        assert index_scan.cost > seq_scan.cost

    def test_covering_index_becomes_index_only_scan(self, optimizer):
        query = _point_query(0.01)
        covering = Index("orders", ("o_customer",), include_columns=("o_total",))
        plain = Index("orders", ("o_customer",))
        covering_scan = optimizer.access_scan(query, "orders", covering)
        plain_scan = optimizer.access_scan(query, "orders", plain)
        assert covering_scan.access_path is AccessPath.INDEX_ONLY_SCAN
        assert covering_scan.cost < plain_scan.cost

    def test_index_scan_output_order_is_leading_column(self, optimizer):
        query = _join_query()
        index = Index("items", ("i_shipdate", "i_order"))
        scan = optimizer.access_scan(query, "items", index)
        assert scan.output_order == ColumnRef("items", "i_shipdate")


class TestPlanStructure:
    def test_plan_walk_and_internal_cost(self):
        leaf_a = ScanNode(cost=10.0, rows=100, table="orders")
        leaf_b = ScanNode(cost=20.0, rows=200, table="items")
        join = JoinNode(cost=5.0, rows=50, algorithm=JoinAlgorithm.HASH_JOIN,
                        left=leaf_a, right=leaf_b)
        aggregate = AggregateNode(cost=2.0, rows=10, child=join)
        plan = Plan(aggregate, query_name="q")
        assert plan.total_cost == pytest.approx(37.0)
        assert plan.internal_cost == pytest.approx(7.0)
        assert {node.table for node in plan.scan_nodes()} == {"orders", "items"}
        assert plan.access_cost("orders") == pytest.approx(10.0)
        assert plan.access_cost("missing") == 0.0
        assert len(list(aggregate.walk())) == 4

    def test_explain_renders_every_node(self):
        leaf = ScanNode(cost=1.0, rows=10, table="orders")
        sort = SortNode(cost=2.0, rows=10, child=leaf,
                        sort_column=ColumnRef("orders", "o_date"))
        text = Plan(sort, query_name="q").explain()
        assert "Sort" in text and "SeqScan" in text

    def test_indexes_used(self):
        index = Index("orders", ("o_date",))
        leaf = ScanNode(cost=1.0, rows=10, table="orders", index=index,
                        access_path=AccessPath.INDEX_SCAN)
        assert Plan(leaf).indexes_used() == (index,)


class TestWhatIfOptimizer:
    def test_empty_configuration_costs_are_finite(self, optimizer, simple_workload):
        for statement in simple_workload:
            cost = optimizer.statement_cost(statement.query, Configuration())
            assert cost > 0 and cost != float("inf")

    def test_optimize_atomic_counts_whatif_calls_and_caches(self, optimizer):
        query = _point_query(0.001)
        atomic = AtomicConfiguration({"orders": None})
        before = optimizer.whatif_calls
        optimizer.optimize_atomic(query, atomic)
        assert optimizer.whatif_calls == before + 1
        optimizer.optimize_atomic(query, atomic)
        assert optimizer.whatif_calls == before + 1  # cache hit

    def test_good_index_reduces_query_cost(self, optimizer):
        query = _point_query(0.0005)
        index = Index("orders", ("o_customer",), include_columns=("o_total",))
        without = optimizer.cost(query, Configuration())
        with_index = optimizer.cost(query, Configuration([index]))
        assert with_index < without

    def test_cost_is_monotone_in_configuration(self, optimizer):
        """Adding indexes can never make a SELECT more expensive."""
        query = _join_query()
        indexes = [Index("items", ("i_shipdate",)),
                   Index("items", ("i_order",)),
                   Index("orders", ("o_id",), include_columns=("o_date",))]
        previous = optimizer.cost(query, Configuration())
        for count in range(1, len(indexes) + 1):
            current = optimizer.cost(query, Configuration(indexes[:count]))
            assert current <= previous + 1e-6
            previous = current

    def test_irrelevant_index_does_not_help(self, optimizer):
        query = _point_query(0.001)
        irrelevant = Index("items", ("i_product",))
        assert optimizer.cost(query, Configuration([irrelevant])) == pytest.approx(
            optimizer.cost(query, Configuration()))

    def test_join_query_plan_uses_both_tables(self, optimizer):
        plan = optimizer.optimize(_join_query(), Configuration())
        assert {node.table for node in plan.scan_nodes()} == {"orders", "items"}
        assert plan.total_cost > 0

    def test_update_statement_cost_includes_maintenance(self, optimizer,
                                                        simple_workload):
        update = simple_workload.statements[3].query
        assert isinstance(update, UpdateQuery)
        affected = Index("orders", ("o_status", "o_date"))
        unaffected = Index("orders", ("o_customer",))
        base = optimizer.statement_cost(update, Configuration())
        with_affected = optimizer.statement_cost(update, Configuration([affected]))
        with_unaffected = optimizer.statement_cost(update, Configuration([unaffected]))
        assert with_affected > base
        assert optimizer.update_maintenance_cost(unaffected, update) == 0.0
        assert with_unaffected <= with_affected

    def test_update_maintenance_only_for_same_table(self, optimizer,
                                                    simple_workload):
        update = simple_workload.statements[3].query
        other_table = Index("items", ("i_shipdate",))
        assert optimizer.update_maintenance_cost(other_table, update) == 0.0

    def test_update_is_profiled_once_however_often_it_is_costed(
            self, optimizer, simple_workload, monkeypatch):
        """One access profile per (statement, table): the optimizer keeps one
        shell object per UPDATE, so a new candidate scan does not re-profile."""
        from repro.optimizer.selectivity import SelectivityEstimator

        update = simple_workload.statements[3].query
        calls = []
        original = SelectivityEstimator.table_cardinality

        def counting(self, query, table):
            calls.append((query.name, table))
            return original(self, query, table)

        monkeypatch.setattr(SelectivityEstimator, "table_cardinality", counting)
        indexes = [Index("orders", ("o_status", "o_date")),
                   Index("orders", ("o_customer",)), Index("orders", ("o_date",))]
        for index in indexes:
            optimizer.statement_cost(update, Configuration([index]))
            optimizer.access_scan(update, "orders", index)
            optimizer.optimize_atomic(update, AtomicConfiguration({"orders": index}))
        assert calls == [(update.query_shell().name, "orders")]

    def test_update_fraction_overrides_predicates(self, optimizer):
        explicit = UpdateQuery(table="orders",
                               set_columns=(ColumnRef("orders", "o_status"),),
                               update_fraction=0.5, name="big_update")
        implicit = UpdateQuery(table="orders",
                               set_columns=(ColumnRef("orders", "o_status"),),
                               predicates=(SimplePredicate(
                                   ColumnRef("orders", "o_date"),
                                   ComparisonOperator.EQ, 3,
                                   selectivity_hint=0.001),),
                               name="small_update")
        assert optimizer.base_update_cost(explicit) > optimizer.base_update_cost(implicit)

    def test_plan_exploits_sorted_index_for_group_by(self, optimizer):
        """An index providing the grouping order should remove sort/hash work."""
        query = SelectQuery(
            tables=("items",),
            predicates=(SimplePredicate(ColumnRef("items", "i_shipdate"),
                                        ComparisonOperator.BETWEEN, (0, 2000),
                                        selectivity_hint=0.95),),
            group_by=(ColumnRef("items", "i_product"),),
            aggregates=(Aggregate(AggregateFunction.SUM,
                                  ColumnRef("items", "i_price")),),
            name="groupby_order",
        )
        ordering_index = Index("items", ("i_product",),
                               include_columns=("i_price", "i_shipdate"))
        without = optimizer.cost(query, Configuration())
        with_index = optimizer.cost(query, Configuration([ordering_index]))
        assert with_index < without


class TestCarriedCostIsWalkedCost:
    """The total a plan was handed while it was built must be the walked one,
    bit for bit — the builder sums in ``PlanNode.total_cost()``'s order."""

    @staticmethod
    def _check(plan: Plan) -> Plan:
        walked = plan.root.total_cost()
        leaves = sum(node.cost for node in plan.root.walk()
                     if isinstance(node, ScanNode))
        assert plan.total_cost == walked
        assert plan.internal_cost == walked - leaves
        return plan

    def test_on_tpch_statements_under_atomic_configurations(self):
        schema = tpch_schema(scale_factor=0.01)
        workload = generate_homogeneous_workload(24, seed=5, update_fraction=0.2)
        candidates = CandidateGenerator(schema).generate(workload)
        optimizer = WhatIfOptimizer(schema)
        multi_index = 0
        for statement in workload:
            shell = statement.query
            if isinstance(shell, UpdateQuery):
                shell = shell.query_shell()
            per_table = {table: [index for index in candidates
                                 if index.table == table][:4]
                         for table in shell.tables}
            self._check(optimizer.optimize_atomic(statement.query,
                                                  AtomicConfiguration({})))
            for table, indexes in per_table.items():
                for index in indexes:
                    self._check(optimizer.optimize_atomic(
                        statement.query, AtomicConfiguration({table: index})))
            for choice in range(4):
                assignment = {table: indexes[choice % len(indexes)]
                              for table, indexes in per_table.items() if indexes}
                multi_index += len(assignment) > 1
                self._check(optimizer.optimize_atomic(
                    statement.query, AtomicConfiguration(assignment)))
            self._check(optimizer.optimize(statement.query,
                                           Configuration(candidates)))
        assert multi_index > 0

    def test_on_a_disconnected_join_graph(self):
        optimizer = WhatIfOptimizer(tpch_schema(scale_factor=0.01))
        query = SelectQuery(
            tables=("customer", "orders", "nation", "region"),
            projections=(ColumnRef("customer", "c_name"),
                         ColumnRef("region", "r_name")),
            joins=(JoinPredicate(ColumnRef("customer", "c_custkey"),
                                 ColumnRef("orders", "o_custkey")),),
            name="disconnected")
        plan = self._check(optimizer.optimize(query, Configuration()))
        assert {node.table for node in plan.scan_nodes()} == set(query.tables)
        bridges = [node for node in plan.root.walk()
                   if isinstance(node, JoinNode) and node.join_column_left is None]
        assert len(bridges) == 2

    def test_on_sort_based_aggregation_and_order_by(self, simple_schema):
        # A dear hash table makes sort + stream aggregation the cheaper grouping.
        optimizer = WhatIfOptimizer(simple_schema,
                                    CostModel(hash_build_factor=50.0))
        query = SelectQuery(
            tables=("orders", "items"),
            joins=(JoinPredicate(ColumnRef("orders", "o_id"),
                                 ColumnRef("items", "i_order")),),
            group_by=(ColumnRef("items", "i_product"),),
            order_by=(ColumnRef("orders", "o_date"),),
            aggregates=(Aggregate(AggregateFunction.SUM,
                                  ColumnRef("items", "i_price")),),
            name="sorted_grouping")
        plan = self._check(optimizer.optimize(query, Configuration()))
        top, aggregate, grouping_sort = list(plan.root.walk())[:3]
        assert isinstance(top, SortNode)
        assert top.sort_column == ColumnRef("orders", "o_date")
        assert isinstance(aggregate, AggregateNode) and aggregate.strategy == "stream"
        assert isinstance(grouping_sort, SortNode)
        assert grouping_sort.sort_column == ColumnRef("items", "i_product")
