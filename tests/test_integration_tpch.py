"""End-to-end integration tests on the TPC-H catalog and generated workloads.

These tests exercise the complete pipeline the paper describes (Figure 2):
CGen -> INUM -> BIPGen -> Solver, plus the baselines and the evaluation
metrics, on the same (scaled-down) inputs the benchmarks use.
"""

from __future__ import annotations

import pytest

from repro.api import TuningRequest, TuningService, make_advisor
from repro.bench.harness import compare_advisors
from repro.bench.metrics import baseline_configuration, perf_improvement
from repro.core.constraints import ClusteredIndexConstraint, StorageBudgetConstraint
from repro.indexes.candidate_generation import CandidateGenerator
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import (
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
)


@pytest.fixture(scope="module")
def tpch_module():
    from repro.catalog.tpch import tpch_schema

    return tpch_schema(scale_factor=0.005)


@pytest.fixture(scope="module")
def hom_workload():
    return generate_homogeneous_workload(12, seed=7)


@pytest.fixture(scope="module")
def het_workload():
    return generate_heterogeneous_workload(12, seed=7)


class TestPipelineOnTpch:
    def test_candidate_generation_scales_with_workload(self, tpch_module):
        generator = CandidateGenerator(tpch_module)
        small = generator.generate(generate_homogeneous_workload(5, seed=1))
        large = generator.generate(generate_homogeneous_workload(30, seed=1))
        assert len(large) >= len(small)
        assert len(large) > 50

    def test_inum_accuracy_on_tpch_queries(self, tpch_module, hom_workload):
        optimizer = WhatIfOptimizer(tpch_module)
        inum = InumCache(optimizer)
        candidates = CandidateGenerator(tpch_module).generate(hom_workload)
        configuration = baseline_configuration(tpch_module).union(
            list(candidates)[:10])
        for statement in hom_workload:
            inum_cost = inum.statement_cost(statement.query, configuration)
            true_cost = optimizer.statement_cost(statement.query, configuration)
            assert inum_cost == pytest.approx(true_cost, rel=0.5)

    def test_cophy_improves_homogeneous_workload(self, tpch_module, hom_workload):
        advisor = make_advisor("cophy", tpch_module)
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch_module, 1.0)
        recommendation = advisor.tune(hom_workload, constraints=[budget])
        evaluation = WhatIfOptimizer(tpch_module)
        perf = perf_improvement(evaluation, hom_workload,
                                recommendation.configuration)
        assert perf > 0.15
        assert recommendation.candidate_count > 50

    def test_cophy_improves_heterogeneous_workload(self, tpch_module, het_workload):
        # A 12-statement heterogeneous sample is dominated by a few statements
        # whose plans indexes barely improve, so the bar is lower than for the
        # homogeneous workload; the figure-level benchmarks use larger
        # workloads where the improvement is substantial.
        advisor = make_advisor("cophy", tpch_module)
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch_module, 1.0)
        recommendation = advisor.tune(het_workload, constraints=[budget])
        evaluation = WhatIfOptimizer(tpch_module)
        assert perf_improvement(evaluation, het_workload,
                                recommendation.configuration) > 0.02

    def test_constraints_hold_on_tpch_recommendation(self, tpch_module,
                                                     hom_workload):
        advisor = make_advisor("cophy", tpch_module)
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch_module, 0.5)
        recommendation = advisor.tune(
            hom_workload, constraints=[budget, ClusteredIndexConstraint()])
        candidates = recommendation.extras["bip"].candidates
        used = sum(candidates.size_of(index)
                   for index in recommendation.configuration)
        assert used <= budget.budget_bytes * (1 + 1e-9)
        for table_name in tpch_module.table_names:
            clustered = recommendation.configuration.clustered_indexes_on(table_name)
            assert len(clustered) <= 1

    def test_cophy_beats_or_matches_tool_b_and_is_faster_than_ilp(self, tpch_module,
                                                                  hom_workload):
        evaluation = WhatIfOptimizer(tpch_module)
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch_module, 1.0)
        result = compare_advisors(
            [make_advisor("cophy", tpch_module), make_advisor("ilp", tpch_module),
             make_advisor("dta", tpch_module)],
            evaluation, hom_workload, [budget], name="integration")
        cophy = result.run_for("cophy")
        ilp = result.run_for("ilp")
        tool_b = result.run_for("tool-b")
        assert cophy.perf >= tool_b.perf - 0.05
        assert cophy.perf == pytest.approx(ilp.perf, abs=0.1)
        # With vectorized INUM costing both advisors finish in well under a
        # second at this reduced scale and the INUM phase they share dominates
        # the total, so a strict wall-clock inequality would be timing noise;
        # CoPhy's growing advantage over ILP is asserted at realistic
        # candidate-set sizes in benchmarks/test_fig5_ilp_candidates.py.
        assert cophy.wall_seconds < ilp.wall_seconds * 2.0

    def test_skewed_catalog_still_tunes(self, hom_workload):
        from repro.catalog.tpch import tpch_schema

        skewed = tpch_schema(scale_factor=0.005, skew=2.0)
        advisor = make_advisor("cophy", skewed)
        budget = StorageBudgetConstraint.from_fraction_of_data(skewed, 1.0)
        recommendation = advisor.tune(hom_workload, constraints=[budget])
        evaluation = WhatIfOptimizer(skewed)
        assert perf_improvement(evaluation, hom_workload,
                                recommendation.configuration) > 0.1

    def test_interactive_retune_faster_than_initial_on_tpch(self, tpch_module):
        workload = generate_homogeneous_workload(15, seed=9)
        all_candidates = list(CandidateGenerator(tpch_module).generate(
            workload))
        split = int(len(all_candidates) * 0.7)
        service = TuningService()
        session = service.open_session(TuningRequest(
            workload=workload, schema=tpch_module,
            constraints=[StorageBudgetConstraint.from_fraction_of_data(
                tpch_module, 1.0)],
            candidates=all_candidates[:split]))
        session.recommend()
        inum = service.context_for(tpch_module).inum
        builds = inum.template_build_calls
        model = session.bip.model
        variables, constraints = model.variable_count, model.constraint_count
        session.add_candidates(all_candidates[split:])
        # Fig. 6b's saving as deterministic work: no template is
        # re-enumerated, the BIP is extended in place, and the delta build
        # adds fewer variables and rows than the initial build created.
        assert inum.template_build_calls == builds
        assert session.bip.model is model
        assert 0 < model.variable_count - variables < variables
        assert 0 < model.constraint_count - constraints < constraints
