"""Tests for INUM: template plans, linear composability and cost accuracy."""

from __future__ import annotations

import pickle

import pytest

from repro.catalog.tpch import tpch_schema
from repro.exceptions import OptimizerError
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.inum.gamma_matrix import slot_gamma
from repro.inum.template_plan import INFEASIBLE_COST, TemplatePlan
from repro.optimizer.cost_model import CostModel
from repro.optimizer.plan import ScanNode
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import (
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
)
from repro.workload.predicates import ColumnRef, JoinPredicate
from repro.workload.query import SelectQuery, UpdateQuery
from repro.workload.workload import Workload
from tests.conftest import reference_statement_cost


@pytest.fixture
def optimizer(simple_schema) -> WhatIfOptimizer:
    return WhatIfOptimizer(simple_schema)


@pytest.fixture
def inum(optimizer) -> InumCache:
    return InumCache(optimizer)


class TestTemplatePlan:
    def test_accepts_checks_order_requirement(self):
        template = TemplatePlan(
            query_name="q",
            order_requirements={"orders": ColumnRef("orders", "o_id"), "items": None},
            internal_cost=10.0,
        )
        ordered = ScanNode(cost=1, rows=1, table="orders",
                           output_order=ColumnRef("orders", "o_id"))
        unordered = ScanNode(cost=1, rows=1, table="orders", output_order=None)
        anything = ScanNode(cost=1, rows=1, table="items", output_order=None)
        assert template.accepts("orders", ordered)
        assert not template.accepts("orders", unordered)
        assert template.accepts("items", anything)

    def test_accepts_index_uses_leading_column_and_heap_order(self):
        template = TemplatePlan(
            query_name="q",
            order_requirements={"orders": ColumnRef("orders", "o_id")},
            internal_cost=10.0,
        )
        good = Index("orders", ("o_id", "o_date"))
        bad = Index("orders", ("o_date", "o_id"))
        assert template.accepts_index("orders", good, heap_order=None)
        assert not template.accepts_index("orders", bad, heap_order=None)
        assert template.accepts_index("orders", None,
                                      heap_order=ColumnRef("orders", "o_id"))
        assert not template.accepts_index("orders", None, heap_order=None)

    def test_signature_and_equality(self):
        a = TemplatePlan("q", {"orders": None}, 5.0)
        b = TemplatePlan("q", {"orders": None}, 5.0)
        c = TemplatePlan("q", {"orders": ColumnRef("orders", "o_id")}, 5.0)
        assert a == b
        assert a != c
        assert a.signature() != c.signature()


class TestInumCacheConstruction:
    def test_builds_at_least_one_template_per_statement(self, inum, simple_workload):
        for statement in simple_workload:
            templates = inum.build(statement.query)
            assert len(templates) >= 1

    def test_build_is_cached_by_statement_name(self, inum, simple_workload):
        query = simple_workload.statements[0].query
        first = inum.build(query)
        calls_after_first = inum.template_build_calls
        second = inum.build(query)
        assert first is second
        assert inum.template_build_calls == calls_after_first

    def test_join_query_gets_order_aware_templates(self, inum, simple_workload):
        join_query = simple_workload.statements[2].query
        templates = inum.build(join_query)
        requirements = {order for template in templates
                        for order in template.order_requirements.values()
                        if order is not None}
        assert requirements, "expected at least one interesting-order template"

    def test_update_statements_use_their_query_shell(self, inum, simple_workload):
        update = simple_workload.statements[3].query
        assert isinstance(update, UpdateQuery)
        templates = inum.build(update)
        assert all(t.query_name == update.query_shell().name for t in templates)

    def test_template_cap_is_respected(self, optimizer, simple_workload):
        capped = InumCache(optimizer, max_templates_per_query=2)
        for statement in simple_workload:
            assert len(capped.build(statement.query)) <= 2

    def test_workload_build_populates_cache(self, inum, simple_workload):
        inum.build_workload(simple_workload)
        assert inum.cached_query_count == len(simple_workload)
        assert inum.total_template_count() >= len(simple_workload)

    def test_invalid_parameters_rejected(self, optimizer):
        with pytest.raises(ValueError):
            InumCache(optimizer, max_orders_per_table=-1)
        with pytest.raises(ValueError):
            InumCache(optimizer, max_templates_per_query=0)


class TestGamma:
    def test_incompatible_access_method_is_infeasible(self, inum, simple_workload):
        join_query = simple_workload.statements[2].query
        templates = inum.build(join_query)
        ordered_templates = [
            t for t in templates
            if t.required_order("items") == ColumnRef("items", "i_order")]
        if not ordered_templates:
            pytest.skip("no template requires an items order for this plan shape")
        template = ordered_templates[0]
        incompatible = Index("items", ("i_shipdate",))
        compatible = Index("items", ("i_order",))
        matrix = inum.gamma_matrix(join_query)
        position = templates.index(template)
        assert matrix.value(position, "items", incompatible) == INFEASIBLE_COST
        assert matrix.value(position, "items", compatible) < INFEASIBLE_COST

    def test_gamma_matches_access_cost_when_compatible(self, inum, simple_workload):
        query = simple_workload.statements[0].query
        index = Index("orders", ("o_customer",))
        gamma = inum.gamma_matrix(query).value(0, "orders", index)
        assert gamma == pytest.approx(inum.access_cost(query, "orders", index))


class TestInumCost:
    def test_matches_optimizer_for_empty_configuration(self, inum, optimizer,
                                                       simple_workload):
        """INUM should approximate the optimizer closely (the paper's premise)."""
        for statement in simple_workload:
            inum_cost = inum.statement_cost(statement.query, Configuration())
            optimizer_cost = optimizer.statement_cost(statement.query, Configuration())
            assert inum_cost == pytest.approx(optimizer_cost, rel=0.25)

    def test_tracks_optimizer_across_configurations(self, inum, optimizer,
                                                    simple_schema, simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        interesting = list(candidates)[:8]
        configuration = Configuration(interesting)
        for statement in simple_workload:
            inum_cost = inum.statement_cost(statement.query, configuration)
            optimizer_cost = optimizer.statement_cost(statement.query, configuration)
            assert inum_cost == pytest.approx(optimizer_cost, rel=0.35)

    def test_cost_is_monotone_in_configuration(self, inum, simple_workload):
        query = simple_workload.statements[2].query
        indexes = [Index("items", ("i_order",)),
                   Index("orders", ("o_status", "o_id")),
                   Index("orders", ("o_id",), include_columns=("o_date",))]
        previous = inum.cost(query, Configuration())
        for count in range(1, len(indexes) + 1):
            current = inum.cost(query, Configuration(indexes[:count]))
            assert current <= previous + 1e-6
            previous = current

    def test_good_index_reduces_inum_cost(self, inum, simple_workload):
        point = simple_workload.statements[0].query
        index = Index("orders", ("o_customer",), include_columns=("o_total",))
        assert inum.cost(point, Configuration([index])) < inum.cost(point,
                                                                    Configuration())

    def test_workload_cost_is_weighted_sum(self, inum, simple_workload):
        total = inum.workload_cost(simple_workload, Configuration())
        manual = sum(s.weight * inum.statement_cost(s.query, Configuration())
                     for s in simple_workload)
        assert total == pytest.approx(manual)

    def test_update_cost_adds_maintenance(self, inum, simple_workload):
        update = simple_workload.statements[3].query
        affected = Index("orders", ("o_status",))
        base = inum.statement_cost(update, Configuration())
        with_index = inum.statement_cost(update, Configuration([affected]))
        assert with_index > base

    def test_matrix_and_loop_paths_are_bit_identical(self, optimizer, simple_schema,
                                                     simple_workload):
        """The vectorized gamma-matrix path must reproduce the scalar loop exactly."""
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        fast = InumCache(optimizer)
        slow = InumCache(optimizer)  # only its templates feed the scalar oracle
        for count in (0, 1, 5, len(candidates)):
            configuration = Configuration(list(candidates)[:count])
            for statement in simple_workload:
                assert (fast.statement_cost(statement.query, configuration)
                        == reference_statement_cost(slow, statement.query,
                                                    configuration))
            assert (fast.workload_cost(simple_workload, configuration)
                    == sum(s.weight * reference_statement_cost(slow, s.query,
                                                               configuration)
                           for s in simple_workload))

    def test_matrix_gamma_matches_loop_gamma(self, optimizer, simple_schema,
                                             simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        fast = InumCache(optimizer)
        for statement in simple_workload:
            shell = fast._shell(statement.query)
            matrix = fast.gamma_matrix(shell)
            for position, template in enumerate(fast.build(shell)):
                for table in shell.tables:
                    for index in (None, *candidates.for_table(table)):
                        assert (matrix.value(position, table, index)
                                == slot_gamma(optimizer, shell, template,
                                              table, index))

    def test_prepare_registers_query_relevant_candidate_columns(
            self, inum, simple_schema, simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        inum.prepare(simple_workload, candidates)
        for statement in simple_workload:
            shell = inum._shell(statement.query)
            matrix = inum.gamma_matrix(statement.query)
            relevant = {index for index in candidates
                        if index.table in shell.tables}
            # One column per candidate on the query's own tables plus I_0;
            # indexes on untouched tables must not widen the matrix.
            assert matrix.column_count == len(relevant) + 1
            assert set(matrix.registered_indexes) == relevant

    def test_infeasible_matrix_cost_raises(self, inum, simple_workload):
        """A query with no feasible template must still raise OptimizerError."""
        query = simple_workload.statements[0].query
        inum.build(query)
        matrix = inum.gamma_matrix(query)
        matrix._matrix[:, :, 0] = INFEASIBLE_COST  # force every template infeasible
        matrix._slot_min_by_id.clear()
        matrix._slot_min_by_key.clear()
        with pytest.raises(OptimizerError):
            inum.cost(query, Configuration())

    def test_linear_composability_identity(self, inum, simple_workload):
        """cost(q, X) must equal min_k (beta_k + sum_i min_a gamma_kia)."""
        query = simple_workload.statements[2].query
        configuration = Configuration([Index("items", ("i_order",)),
                                       Index("orders", ("o_date",))])
        assert (inum.cost(query, configuration)
                == reference_statement_cost(inum, query, configuration))


def _templates_one_spec_at_a_time(schema, shell, caps):
    """``TPlans(q)`` the unshared way: every order spec is planned by a fresh
    optimizer (no skeleton, profile or sub-plan reused), then deduplicated and
    pruned exactly like ``InumCache._enumerate_templates``."""
    rules = InumCache(WhatIfOptimizer(schema), *caps)
    options = {table: (None, *rules._interesting_orders(shell, table))
               for table in shell.tables}
    templates, seen = [], set()
    for spec in rules._order_specs(shell.tables, options):
        optimizer = WhatIfOptimizer(schema)
        scans, widths = {}, {}
        for table in shell.tables:
            base = optimizer.access_scan(shell, table, None)
            scans[table] = ScanNode(cost=base.cost, rows=base.rows,
                                    output_order=spec[table], table=table,
                                    index=None, access_path=base.access_path)
            widths[table] = optimizer.access_selector.output_width(shell, table)
        plan = optimizer.plan_builder.build(shell, scans, widths)
        template = TemplatePlan(shell.name, spec, plan.internal_cost, plan)
        if template.signature() not in seen:
            seen.add(template.signature())
            templates.append(template)
    return InumCache._prune_dominated(templates)


def _generated_workload(schema, seed, size=8):
    """TPC-H template instances plus ad-hoc SPJ statements, updates included."""
    return Workload(
        generate_homogeneous_workload(size, seed=seed,
                                      update_fraction=0.25).statements
        + generate_heterogeneous_workload(size, seed=seed + 1,
                                          update_fraction=0.25,
                                          schema=schema).statements,
        name=f"generated-{seed}")


class TestSharedEnumeration:
    """One shared pass per shell must equal planning every spec on its own."""

    # (1, 2) and (2, 8) force the representative-subset branch of _order_specs.
    @pytest.mark.parametrize("caps", [(2, 64), (1, 2), (2, 8)])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_templates_equal_one_spec_at_a_time(self, seed, caps):
        schema = tpch_schema(scale_factor=0.01)
        workload = _generated_workload(schema, seed)
        assert any(isinstance(s.query, UpdateQuery) for s in workload)
        inum = InumCache(WhatIfOptimizer(schema), *caps)
        for statement in workload:
            query = statement.query
            shell = (query.query_shell() if isinstance(query, UpdateQuery)
                     else query)
            expected = _templates_one_spec_at_a_time(schema, shell, caps)
            built = inum.templates(query)
            assert len(built) == len(expected)
            for ours, theirs in zip(built, expected):
                assert ours.order_requirements == theirs.order_requirements
                assert ours.internal_cost == theirs.internal_cost
                assert (ours.representative_plan.explain()
                        == theirs.representative_plan.explain())

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_pickled_entries_cost_like_the_local_build(self, seed):
        schema = tpch_schema(scale_factor=0.01)
        workload = _generated_workload(schema, seed)
        candidates = tuple(CandidateGenerator(schema).generate(workload))
        local = InumCache(WhatIfOptimizer(schema))
        local.prepare(workload, candidates)
        adopted = InumCache(WhatIfOptimizer(schema))
        adopted.adopt_built(pickle.loads(pickle.dumps(
            local.export_built(workload))))
        configurations = [Configuration(), Configuration(candidates[::3]),
                          Configuration(candidates)]
        for statement in workload:
            for configuration in configurations:
                cost = local.statement_cost(statement.query, configuration)
                assert adopted.statement_cost(statement.query,
                                              configuration) == cost
                assert reference_statement_cost(adopted, statement.query,
                                                configuration) == cost
        assert adopted.template_build_calls == 0


class TestEnumerationWorkCounts:
    """The sharing is pinned by counting cost-model calls, not by a clock."""

    @staticmethod
    def _three_table_shell() -> SelectQuery:
        join = lambda left, right: JoinPredicate(ColumnRef(*left), ColumnRef(*right))
        return SelectQuery(
            tables=("customer", "orders", "lineitem"),
            projections=(ColumnRef("customer", "c_name"),
                         ColumnRef("lineitem", "l_extendedprice")),
            joins=(join(("customer", "c_custkey"), ("orders", "o_custkey")),
                   join(("orders", "o_orderkey"), ("lineitem", "l_orderkey"))),
            group_by=(ColumnRef("customer", "c_name"),),
            order_by=(ColumnRef("lineitem", "l_shipdate"),),
            name="three-tables")

    @staticmethod
    def _count_hash_join_costings(monkeypatch, run) -> int:
        calls = []
        original = CostModel.hash_join_cost

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(CostModel, "hash_join_cost", counting)
            run()
        return len(calls)

    def test_specs_of_one_shell_share_sub_plans(self, monkeypatch):
        schema = tpch_schema(scale_factor=0.01)
        shell = self._three_table_shell()
        expected = _templates_one_spec_at_a_time(schema, shell, (2, 64))

        def standalone_build():
            optimizer = WhatIfOptimizer(schema)
            scans = {table: optimizer.access_scan(shell, table, None)
                     for table in shell.tables}
            widths = {table: optimizer.access_selector.output_width(shell, table)
                      for table in shell.tables}
            optimizer.plan_builder.build(shell, scans, widths)

        one_build = self._count_hash_join_costings(monkeypatch, standalone_build)
        assert one_build > 0
        counts = []
        for _ in range(2):
            inum = InumCache(WhatIfOptimizer(schema))
            counts.append(self._count_hash_join_costings(
                monkeypatch, lambda: inum.templates(shell)))
            # All 3 x 3 x 3 order combinations were requested from the optimizer.
            assert inum.template_build_calls == 27
            assert [t.internal_cost for t in inum.templates(shell)] == [
                t.internal_cost for t in expected]
        assert counts[0] == counts[1]
        assert counts[0] < 27 * one_build
        assert self._count_hash_join_costings(
            monkeypatch, lambda: inum.templates(shell)) == 0
