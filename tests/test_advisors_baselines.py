"""Tests for the ILP, Tool-A-like and Tool-B-like baseline advisors."""

from __future__ import annotations

import pytest

from repro.api import make_advisor
from repro.advisors.base import Recommendation
from repro.advisors.dta import DtaAdvisor
from repro.advisors.ilp_advisor import IlpAdvisor
from repro.advisors.relaxation import RelaxationAdvisor
from repro.bench.metrics import baseline_configuration, perf_improvement
from repro.core.constraints import StorageBudgetConstraint
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.index import index_size_bytes
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer


@pytest.fixture
def evaluation_optimizer(simple_schema) -> WhatIfOptimizer:
    return WhatIfOptimizer(simple_schema)


def _budget(simple_schema, fraction=1.0) -> StorageBudgetConstraint:
    return StorageBudgetConstraint.from_fraction_of_data(simple_schema, fraction)


class TestIlpAdvisor:
    def test_produces_useful_recommendation(self, simple_schema, simple_workload,
                                            evaluation_optimizer):
        advisor = make_advisor("ilp", simple_schema, gap_tolerance=0.0)
        recommendation = advisor.tune(simple_workload,
                                      [_budget(simple_schema)])
        assert isinstance(recommendation, Recommendation)
        assert perf_improvement(evaluation_optimizer, simple_workload,
                                recommendation.configuration) > 0.05
        assert recommendation.timings["build"] > 0
        assert recommendation.extras["variables"] > 0

    def test_matches_cophy_quality_on_small_instance(self, simple_schema,
                                                     simple_workload,
                                                     evaluation_optimizer):
        """On small instances both BIP formulations find equally good designs."""
        budget = _budget(simple_schema)
        cophy = make_advisor("cophy", simple_schema, gap_tolerance=0.0).tune(
            simple_workload, [budget])
        ilp = make_advisor("ilp", simple_schema, gap_tolerance=0.0).tune(
            simple_workload, [budget])
        cophy_perf = perf_improvement(evaluation_optimizer, simple_workload,
                                      cophy.configuration)
        ilp_perf = perf_improvement(evaluation_optimizer, simple_workload,
                                    ilp.configuration)
        assert ilp_perf == pytest.approx(cophy_perf, abs=0.08)

    def test_respects_storage_budget(self, simple_schema, simple_workload):
        tight = StorageBudgetConstraint(
            0.1 * simple_schema.total_size_bytes)
        advisor = make_advisor("ilp", simple_schema, gap_tolerance=0.0)
        recommendation = advisor.tune(simple_workload, [tight])
        used = sum(index_size_bytes(index, simple_schema.table(index.table))
                   for index in recommendation.configuration)
        assert used <= tight.budget_bytes * (1 + 1e-9)

    def test_pruning_knobs_bound_the_model_size(self, simple_schema,
                                                simple_workload):
        small = make_advisor("ilp", simple_schema, max_indexes_per_table=1,
                           max_configurations_per_query=4)
        large = make_advisor("ilp", simple_schema, max_indexes_per_table=4,
                           max_configurations_per_query=64)
        small_rec = small.tune(simple_workload)
        large_rec = large.tune(simple_workload)
        assert small_rec.extras["variables"] < large_rec.extras["variables"]

    def test_ilp_model_is_larger_than_cophys(self, simple_schema, simple_workload):
        """The per-atomic-configuration formulation needs more variables."""
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        cophy = make_advisor("cophy", simple_schema, gap_tolerance=0.0)
        cophy_rec = cophy.tune(simple_workload, candidates=candidates)
        ilp = make_advisor("ilp", simple_schema, gap_tolerance=0.0)
        ilp_rec = ilp.tune(simple_workload, candidates=candidates)
        cophy_constraints = cophy_rec.extras["bip_statistics"]["constraints"]
        assert ilp_rec.extras["constraints"] > cophy_constraints * 0.5


class TestRelaxationAdvisor:
    def test_produces_recommendation_within_budget(self, simple_schema,
                                                   simple_workload,
                                                   evaluation_optimizer):
        budget = _budget(simple_schema)
        advisor = make_advisor("relaxation", simple_schema)
        recommendation = advisor.tune(simple_workload, [budget])
        used = sum(index_size_bytes(index, simple_schema.table(index.table))
                   for index in recommendation.configuration)
        assert used <= budget.budget_bytes * (1 + 1e-9)
        assert perf_improvement(evaluation_optimizer, simple_workload,
                                recommendation.configuration) > 0.0

    def test_uses_many_whatif_calls(self, simple_schema, simple_workload):
        advisor = make_advisor("relaxation", simple_schema)
        recommendation = advisor.tune(simple_workload, [_budget(simple_schema)])
        cophy = make_advisor("cophy", simple_schema).tune(simple_workload,
                                                 [_budget(simple_schema)])
        assert recommendation.whatif_calls > cophy.whatif_calls

    def test_candidate_pruning_cap(self, simple_schema, simple_workload):
        advisor = make_advisor("relaxation", simple_schema, max_candidates=5)
        recommendation = advisor.tune(simple_workload, [_budget(simple_schema)])
        assert recommendation.candidate_count <= 5

    def test_call_budget_forces_workload_sampling(self, simple_schema,
                                                  simple_workload):
        advisor = make_advisor("relaxation", simple_schema, whatif_call_budget=100)
        recommendation = advisor.tune(simple_workload, [_budget(simple_schema)])
        assert recommendation.extras["evaluated_statements"] <= len(simple_workload)

    def test_quality_trails_cophy(self, simple_schema, simple_workload,
                                  evaluation_optimizer):
        budget = _budget(simple_schema)
        cophy = make_advisor("cophy", simple_schema, gap_tolerance=0.0).tune(
            simple_workload, [budget])
        tool_a = make_advisor("relaxation", simple_schema).tune(simple_workload, [budget])
        cophy_perf = perf_improvement(evaluation_optimizer, simple_workload,
                                      cophy.configuration)
        tool_a_perf = perf_improvement(evaluation_optimizer, simple_workload,
                                       tool_a.configuration)
        assert cophy_perf >= tool_a_perf - 0.02


class TestDtaAdvisor:
    def test_produces_recommendation_within_budget(self, simple_schema,
                                                   simple_workload,
                                                   evaluation_optimizer):
        budget = _budget(simple_schema)
        advisor = make_advisor("dta", simple_schema)
        recommendation = advisor.tune(simple_workload, [budget])
        used = sum(index_size_bytes(index, simple_schema.table(index.table))
                   for index in recommendation.configuration)
        assert used <= budget.budget_bytes * (1 + 1e-9)
        assert perf_improvement(evaluation_optimizer, simple_workload,
                                recommendation.configuration) > 0.0

    def test_inum_backed_costing_produces_useful_recommendation(
            self, simple_schema, simple_workload, evaluation_optimizer):
        """With an INUM cache the advisor answers every cost probe from the
        gamma matrices — no what-if optimizations at all — and must still
        produce a beneficial, budget-respecting recommendation."""
        budget = _budget(simple_schema)
        optimizer = WhatIfOptimizer(simple_schema)
        advisor = make_advisor("dta", simple_schema, optimizer=optimizer,
                             inum=InumCache(optimizer))
        recommendation = advisor.tune(simple_workload, [budget])
        # Every counted optimizer invocation is a template build — the cost
        # probes themselves never reach the optimizer.
        assert (recommendation.whatif_calls
                == advisor.inum.template_build_calls)
        assert len(recommendation.configuration) > 0
        used = sum(index_size_bytes(index, simple_schema.table(index.table))
                   for index in recommendation.configuration)
        assert used <= budget.budget_bytes * (1 + 1e-9)
        assert perf_improvement(evaluation_optimizer, simple_workload,
                                recommendation.configuration) > 0.0

    def test_workload_compression_kicks_in(self, simple_schema, simple_workload):
        advisor = make_advisor("dta", simple_schema, compression_size=2)
        recommendation = advisor.tune(simple_workload, [_budget(simple_schema)])
        assert recommendation.extras["compressed_statements"] == 2
        assert recommendation.extras["original_statements"] == len(simple_workload)

    def test_no_compression_for_small_workloads(self, simple_schema,
                                                simple_workload):
        advisor = make_advisor("dta", simple_schema, compression_size=50)
        recommendation = advisor.tune(simple_workload, [_budget(simple_schema)])
        assert recommendation.extras["compressed_statements"] == len(simple_workload)

    def test_candidate_cap_respected(self, simple_schema, simple_workload):
        advisor = make_advisor("dta", simple_schema, max_candidates=3)
        recommendation = advisor.tune(simple_workload, [_budget(simple_schema)])
        assert recommendation.candidate_count <= 3

    def test_examines_fewer_candidates_than_cophy(self, simple_schema,
                                                  simple_workload):
        """The §5.2 observation: commercial advisors examine far fewer candidates."""
        cophy = make_advisor("cophy", simple_schema).tune(simple_workload)
        tool_b = make_advisor("dta", simple_schema).tune(simple_workload)
        assert tool_b.candidate_count < cophy.candidate_count


@pytest.mark.parametrize("name", ["ilp", "dta", "relaxation"])
def test_every_storage_budget_holds(simple_schema, simple_workload, name):
    """Of two storage budgets, the tighter one binds even when it comes
    second (the loose one alone admits 0.74x to 0.92x of the data here)."""
    tight = StorageBudgetConstraint(0.1 * simple_schema.total_size_bytes)
    options = {"gap_tolerance": 0.0} if name == "ilp" else {}
    recommendation = make_advisor(name, simple_schema, **options).tune(
        simple_workload, [_budget(simple_schema), tight])
    used = sum(index_size_bytes(index, simple_schema.table(index.table))
               for index in recommendation.configuration)
    assert recommendation.configuration
    assert used <= tight.budget_bytes * (1 + 1e-9)


class TestBaselineConfiguration:
    def test_contains_one_clustered_pk_per_keyed_table(self, simple_schema):
        baseline = baseline_configuration(simple_schema)
        assert len(baseline) == 2
        assert all(index.clustered for index in baseline)

    def test_perf_improvement_is_zero_for_empty_recommendation(self,
                                                               simple_schema,
                                                               simple_workload,
                                                               evaluation_optimizer):
        from repro.indexes.configuration import Configuration

        assert perf_improvement(evaluation_optimizer, simple_workload,
                                Configuration()) == pytest.approx(0.0, abs=1e-9)

    def test_perf_improvement_bounded(self, simple_schema, simple_workload,
                                      evaluation_optimizer):
        recommendation = make_advisor("cophy", simple_schema).tune(simple_workload)
        perf = perf_improvement(evaluation_optimizer, simple_workload,
                                recommendation.configuration)
        assert 0.0 <= perf < 1.0
