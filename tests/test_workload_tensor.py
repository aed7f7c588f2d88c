"""Tests for the workload gamma tensor: stacking, masks, memo, incremental prepare."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import OptimizerError
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.inum.workload_tensor import WorkloadGammaTensor
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import generate_homogeneous_workload
from repro.workload.workload import Workload, WorkloadStatement
from tests.conftest import reference_statement_cost


@pytest.fixture
def optimizer(simple_schema) -> WhatIfOptimizer:
    return WhatIfOptimizer(simple_schema)


@pytest.fixture
def inum(optimizer) -> InumCache:
    return InumCache(optimizer)


def per_query_workload_cost(inum: InumCache, workload: Workload,
                            configuration: Configuration,
                            statement_cost=InumCache.statement_cost) -> float:
    """The pre-tensor reference: a Python loop over per-query costings
    (pass ``reference_statement_cost`` for the scalar oracle's)."""
    total = 0.0
    for statement in workload:
        total += statement.weight * statement_cost(inum, statement.query,
                                                   configuration)
    return total


class TestTensorCosts:
    def test_bit_identical_to_per_query_path(self, inum, simple_schema,
                                             simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        inum.prepare(simple_workload, candidates)
        for count in (0, 1, 3, len(candidates)):
            configuration = Configuration(list(candidates)[:count])
            assert (inum.workload_cost(simple_workload, configuration)
                    == per_query_workload_cost(inum, simple_workload,
                                               configuration))
            costs = inum.statement_costs(simple_workload, configuration)
            for statement, cost in zip(simple_workload, costs):
                assert float(cost) == inum.statement_cost(statement.query,
                                                          configuration)

    def test_bit_identical_at_50_statements_100_candidates(self, tpch):
        workload = generate_homogeneous_workload(50, seed=11)
        pool = list(CandidateGenerator(tpch).generate(workload))[:100]
        assert len(pool) == 100
        inum = InumCache(WhatIfOptimizer(tpch))
        inum.prepare(workload, pool)
        rng = random.Random(7)
        for configuration in (Configuration(), Configuration(pool),
                              *(Configuration(rng.sample(pool, 60))
                                for _ in range(10))):
            assert (inum.workload_cost(workload, configuration)
                    == per_query_workload_cost(inum, workload, configuration))

    def test_single_query_workload(self, inum, simple_workload):
        single = Workload([simple_workload.statements[0]], name="single")
        configuration = Configuration([Index("orders", ("o_customer",))])
        assert (inum.workload_cost(single, configuration)
                == per_query_workload_cost(inum, single, configuration))
        assert inum.workload_tensor(single).query_count == 1

    def test_empty_tensor(self):
        tensor = WorkloadGammaTensor(())
        assert tensor.query_count == 0
        costs = tensor.shell_costs(Configuration())
        assert costs.shape == (0,)
        tensor.ensure_columns((Index("orders", ("o_id",)),))
        assert tensor.candidate_columns == ()

    def test_candidates_intersecting_no_query_table(self, inum, simple_workload):
        """Indexes on tables no statement touches must be inert (masked out)."""
        point_only = Workload([simple_workload.statements[0]], name="orders-only")
        foreign = Configuration([Index("items", ("i_shipdate",)),
                                 Index("items", ("i_order",))])
        empty = Configuration()
        assert (inum.workload_cost(point_only, foreign)
                == inum.workload_cost(point_only, empty))
        # The tensor never grows columns for tables outside the workload.
        tensor = inum.workload_tensor(point_only)
        tensor.ensure_columns(foreign.indexes)
        assert tensor.candidate_columns == ()

    def test_per_query_candidate_masks(self, inum, simple_workload):
        """Candidates relevant to one query must stay infinite for the others."""
        orders_index = Index("orders", ("o_customer",))
        items_index = Index("items", ("i_shipdate",))
        configuration = Configuration([orders_index, items_index])
        inum.prepare(simple_workload, configuration)
        tensor = inum.workload_tensor(simple_workload)
        assert set(tensor.candidate_columns) == {orders_index, items_index}
        costs = tensor.shell_costs(configuration)
        # Position-aligned with the workload; every entry matches the
        # per-query matrix bit for bit (mask correctness).
        for position, statement in enumerate(simple_workload):
            shell = inum._shell(statement.query)
            assert float(costs[position]) == inum.gamma_matrix(shell).cost(
                configuration)

    def test_memo_hits_identity_and_equality(self, inum, simple_workload):
        index = Index("orders", ("o_customer",))
        first = Configuration([index])
        second = Configuration([index])  # equal set, different object
        tensor = inum.workload_tensor(simple_workload)
        costs_first = tensor.shell_costs(first)
        assert tensor.shell_costs(first) is costs_first  # identity-level hit
        assert tensor.shell_costs(second) is costs_first  # equality-level hit
        with pytest.raises(ValueError):
            costs_first[0] = 0.0  # memoized vectors are read-only

    def test_infeasible_query_raises(self, inum, simple_workload):
        inum.prepare(simple_workload)
        tensor = inum.workload_tensor(simple_workload)
        tensor._tensor[0, :, :, 0] = float("inf")  # force query 0 infeasible
        tensor._cost_memo_by_id.clear()
        tensor._cost_memo_by_key.clear()
        with pytest.raises(OptimizerError):
            inum.workload_cost(simple_workload, Configuration())

    def test_update_statements_add_maintenance(self, inum, simple_workload):
        affected = Configuration([Index("orders", ("o_status",))])
        assert (inum.workload_cost(simple_workload, affected)
                == per_query_workload_cost(inum, simple_workload, affected))

    def test_unevenly_preregistered_candidates(self, inum, simple_workload):
        """Regression: an index registered in only ONE query's matrix before
        the tensor is built must still get finite entries for the others.

        This is DtaAdvisor's access pattern — per-query candidate scoring
        registers each query's own candidates into that query's matrix only,
        and the tensor is stacked afterwards."""
        index = Index("orders", ("o_date",))
        point = simple_workload.statements[0].query
        inum.gamma_matrix(point).ensure_columns((index,))  # one matrix only
        configuration = Configuration([index])
        reference = InumCache(WhatIfOptimizer(inum.schema))
        costs = inum.statement_costs(simple_workload, configuration)
        for statement, cost in zip(simple_workload, costs):
            assert float(cost) == reference_statement_cost(
                reference, statement.query, configuration)


class TestPrepareIncremental:
    def test_prepare_is_idempotent(self, inum, simple_schema, simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        inum.prepare(simple_workload, candidates)
        builds = inum.template_build_calls
        matrices = {name: id(matrix) for name, matrix in inum._matrices.items()}
        tensor = inum.workload_tensor(simple_workload)
        columns = tensor.shape[3]
        inum.prepare(simple_workload, candidates)
        assert inum.template_build_calls == builds
        assert {name: id(m) for name, m in inum._matrices.items()} == matrices
        assert inum.workload_tensor(simple_workload) is tensor
        assert tensor.shape[3] == columns

    def test_prepare_extends_with_enlarged_candidate_set(
            self, inum, simple_schema, simple_workload):
        """Regression: a second prepare with more candidates must extend the
        existing matrices and tensor columns, not rebuild anything."""
        candidates = list(CandidateGenerator(simple_schema)
                          .generate(simple_workload))
        half = candidates[:len(candidates) // 2]
        inum.prepare(simple_workload, half)
        builds = inum.template_build_calls
        matrices = {name: id(matrix) for name, matrix in inum._matrices.items()}
        tensor = inum.workload_tensor(simple_workload)
        columns_before = tensor.shape[3]

        inum.prepare(simple_workload, candidates)
        assert inum.template_build_calls == builds  # no re-enumeration
        assert {name: id(m) for name, m in inum._matrices.items()} == matrices
        assert inum.workload_tensor(simple_workload) is tensor  # extended in place
        assert tensor.shape[3] > columns_before

        reference = InumCache(WhatIfOptimizer(simple_schema))
        configuration = Configuration(candidates)
        assert (inum.workload_cost(simple_workload, configuration)
                == per_query_workload_cost(reference, simple_workload,
                                           configuration,
                                           reference_statement_cost))

    def test_lazy_registration_without_prepare(self, inum, simple_schema,
                                               simple_workload):
        """Costing a configuration with unseen candidates must self-register."""
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        configuration = Configuration(list(candidates))
        reference = InumCache(WhatIfOptimizer(simple_schema))
        assert (inum.workload_cost(simple_workload, configuration)
                == per_query_workload_cost(reference, simple_workload,
                                           configuration,
                                           reference_statement_cost))


class TestTensorViews:
    def test_view_matches_matrix_slot_costs(self, inum, simple_schema,
                                            simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        inum.prepare(simple_workload, candidates)
        tensor = inum.workload_tensor(simple_workload)
        for statement in simple_workload:
            shell = inum._shell(statement.query)
            matrix = inum.gamma_matrix(shell)
            view = tensor.view(shell.name)
            accesses = [None, *candidates.for_table(shell.tables[0])]
            block = view.slot_block(shell.tables[0], accesses)
            assert block.shape == (len(matrix.templates), len(accesses))
            for position in range(len(matrix.templates)):
                assert block[position].tolist() == [
                    matrix.value(position, shell.tables[0], access)
                    for access in accesses]
                for access in accesses:
                    assert (view.value(position, shell.tables[0], access)
                            == matrix.value(position, shell.tables[0], access))

    def test_view_unknown_query_raises(self, inum, simple_workload):
        tensor = inum.workload_tensor(simple_workload)
        with pytest.raises(KeyError):
            tensor.view("no-such-query")
