"""Cross-module property-based tests (hypothesis) on the core invariants.

These tests complement the per-module unit tests by checking the properties
the whole reproduction rests on, over randomly generated inputs:

* INUM's cost is monotone and consistent with linear composability for random
  configurations;
* the Theorem-1 BIP optimum never loses to any explicitly enumerated
  configuration (soundness of the reduction) on random small instances;
* candidate generation only ever emits indexes that are valid for the schema
  and relevant to the workload;
* index-size estimation behaves monotonically under column additions.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bip_builder import BipBuilder
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.indexes.configuration import Configuration
from repro.inum.cache import InumCache
from repro.lp.highs_backend import MilpBackend
from repro.optimizer.whatif import WhatIfOptimizer
from tests.conftest import (
    build_simple_schema,
    build_simple_workload,
    reference_statement_cost,
)

_SCHEMA = build_simple_schema()
_WORKLOAD = build_simple_workload()
_OPTIMIZER = WhatIfOptimizer(_SCHEMA)
_INUM = InumCache(_OPTIMIZER)
_CANDIDATES = CandidateGenerator(_SCHEMA).generate(_WORKLOAD)
_ALL_CANDIDATES = list(_CANDIDATES)

_subset_strategy = st.lists(
    st.sampled_from(_ALL_CANDIDATES), min_size=0, max_size=6, unique=True)


class TestInumProperties:
    @given(subset=_subset_strategy)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_inum_cost_positive_and_finite(self, subset):
        configuration = Configuration(subset)
        for statement in _WORKLOAD:
            cost = _INUM.statement_cost(statement.query, configuration)
            assert cost > 0
            assert cost != float("inf")

    @given(subset=_subset_strategy, extra=st.sampled_from(_ALL_CANDIDATES))
    @settings(max_examples=40, deadline=None)
    def test_adding_an_index_never_hurts_select_cost(self, subset, extra):
        smaller = Configuration(subset)
        larger = Configuration([*subset, extra])
        for statement in _WORKLOAD.select_statements():
            assert (_INUM.cost(statement.query, larger)
                    <= _INUM.cost(statement.query, smaller) + 1e-6)

    @given(subset=_subset_strategy)
    @settings(max_examples=30, deadline=None)
    def test_inum_tracks_the_optimizer(self, subset):
        configuration = Configuration(subset)
        for statement in _WORKLOAD.select_statements():
            inum_cost = _INUM.cost(statement.query, configuration)
            true_cost = _OPTIMIZER.cost(statement.query, configuration)
            assert inum_cost == pytest.approx(true_cost, rel=1e-9)

    @given(subset=_subset_strategy)
    @settings(max_examples=30, deadline=None)
    def test_linear_composability_decomposition(self, subset):
        """cost(q, X) == min_k [beta_k + sum_i min_{a in X_i ∪ {I0}} gamma_kia]."""
        configuration = Configuration(subset)
        for statement in _WORKLOAD.select_statements():
            query = statement.query
            assert (_INUM.cost(query, configuration)
                    == reference_statement_cost(_INUM, query, configuration))


class TestBipProperties:
    @given(subset=st.lists(st.sampled_from(_ALL_CANDIDATES), min_size=1,
                           max_size=7, unique=True))
    @settings(max_examples=12, deadline=None)
    def test_bip_optimum_never_loses_to_any_explicit_configuration(self, subset):
        """Soundness of Theorem 1 on randomly drawn candidate sets."""
        candidates = CandidateSet(_SCHEMA, subset)
        inum = InumCache(WhatIfOptimizer(_SCHEMA))
        bip = BipBuilder(inum).build(_WORKLOAD, candidates)
        solution = MilpBackend().solve(bip.model)
        chosen = bip.extract_configuration(solution)
        bip_cost = inum.workload_cost(_WORKLOAD, chosen)
        # The chosen configuration is at least as good as selecting nothing,
        # everything, or any single index.
        competitors = [Configuration(), Configuration(subset)]
        competitors.extend(Configuration([index]) for index in subset)
        for competitor in competitors:
            assert bip_cost <= inum.workload_cost(_WORKLOAD, competitor) + 1e-6
        # And the objective reported by the solver matches the INUM cost.
        assert solution.objective == pytest.approx(bip_cost, rel=1e-6)


class TestCandidateGenerationProperties:
    @given(seed=st.integers(min_value=0, max_value=50),
           size=st.integers(min_value=1, max_value=12))
    @settings(max_examples=15, deadline=None)
    def test_generated_candidates_are_valid_and_relevant(self, seed, size):
        from repro.catalog.tpch import tpch_schema
        from repro.workload.generators import generate_homogeneous_workload

        schema = tpch_schema(scale_factor=0.002)
        workload = generate_homogeneous_workload(size, seed=seed)
        candidates = CandidateGenerator(schema).generate(workload)
        referenced_tables = set(workload.referenced_tables())
        for index in candidates:
            table = schema.table(index.table)
            for column in index.all_columns:
                assert table.has_column(column)
            assert index.table in referenced_tables

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_candidate_set_grows_with_workload(self, seed):
        from repro.catalog.tpch import tpch_schema
        from repro.workload.generators import generate_heterogeneous_workload

        schema = tpch_schema(scale_factor=0.002)
        generator = CandidateGenerator(schema)
        small = generator.generate(generate_heterogeneous_workload(4, seed=seed))
        large = generator.generate(generate_heterogeneous_workload(16, seed=seed))
        assert len(large) >= len(small)


class TestWorkloadGeneratorProperties:
    @given(seed=st.integers(min_value=0, max_value=200),
           size=st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_homogeneous_workloads_always_validate(self, seed, size):
        from repro.catalog.tpch import tpch_schema
        from repro.workload.generators import generate_homogeneous_workload

        schema = tpch_schema(scale_factor=0.002)
        workload = generate_homogeneous_workload(size, seed=seed)
        assert len(workload) == size
        workload.validate_against(schema)

    @given(seed=st.integers(min_value=0, max_value=200),
           size=st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_heterogeneous_workloads_always_validate(self, seed, size):
        from repro.catalog.tpch import tpch_schema
        from repro.workload.generators import generate_heterogeneous_workload

        schema = tpch_schema(scale_factor=0.002)
        workload = generate_heterogeneous_workload(size, seed=seed)
        assert len(workload) == size
        workload.validate_against(schema)
