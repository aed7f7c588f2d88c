"""Tests for the scale-out subsystem (repro.scale + ScaleOutAdvisor).

Covers the three pipeline stages in isolation (compression, partitioning,
shard execution) and end to end, including the shard-vs-monolithic
equivalence check that runs in the fast CI lane and the process-pool paths
(pickled shard solves, process-sharded gamma-matrix builds).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import ScaleSpec, Tuner, TuningRequest, make_advisor
from repro.api.result import _strip_timings
from repro.advisors.scaleout import ScaleOutAdvisor
from repro.core.bip_builder import BipBuilder
from repro.core.constraints import StorageBudgetConstraint
from repro.exceptions import ConstraintError, OptimizerError, WorkloadError
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.optimizer.whatif import WhatIfOptimizer
from repro.reliability.faults import FaultPlan
from repro.scale.compress import compress_workload
from repro.scale.executor import ShardExecutor, build_matrices_in_processes
from repro.scale.partition import partition_workload, split_budget
from repro.workload.generators import generate_homogeneous_workload
from repro.workload.workload import Workload, WorkloadStatement


@pytest.fixture(scope="module")
def tuning_workload():
    return generate_homogeneous_workload(24, seed=7)


class TestCompression:
    def test_exact_fallback_merges_only_identical_statements(self, simple_workload):
        compressed = compress_workload(simple_workload, max_cost_error=0.0)
        assert compressed.compressed_size == len(simple_workload)
        assert compressed.ratio == 1.0

    def test_duplicate_shapes_merge_and_weights_sum(self, simple_workload):
        doubled = Workload([*simple_workload.statements,
                            *simple_workload.statements], name="doubled")
        compressed = compress_workload(doubled)
        assert compressed.compressed_size == len(simple_workload)
        assert compressed.workload.total_weight() == doubled.total_weight()
        assert compressed.clusters[0] == (0, len(simple_workload))
        # Every original statement maps to the representative of its clone.
        for position, statement in enumerate(doubled):
            representative = compressed.workload.statements[
                compressed.representative_of[position]]
            assert representative.query.name == statement.query.name

    def test_templated_workload_compresses(self, tuning_workload):
        compressed = compress_workload(tuning_workload, signature="structural",
                                       max_cost_error=0.5)
        assert compressed.compressed_size < len(tuning_workload)
        assert compressed.workload.total_weight() == pytest.approx(
            tuning_workload.total_weight())

    def test_gamma_signature_requires_inum_and_tightens_with_error(
            self, tpch, tuning_workload):
        with pytest.raises(WorkloadError):
            compress_workload(tuning_workload, signature="gamma")
        inum = InumCache(WhatIfOptimizer(tpch))
        loose = compress_workload(tuning_workload, signature="gamma",
                                  max_cost_error=1.0, inum=inum)
        exact = compress_workload(tuning_workload, signature="gamma",
                                  max_cost_error=0.0, inum=inum)
        assert loose.compressed_size <= exact.compressed_size
        # Exact gamma merging still recognises repeated statements.
        doubled = Workload([*tuning_workload.statements,
                            *tuning_workload.statements], name="doubled")
        compressed = compress_workload(doubled, signature="gamma",
                                       max_cost_error=0.0, inum=inum)
        assert compressed.compressed_size <= len(tuning_workload)

    def test_rejects_bad_parameters(self, simple_workload):
        with pytest.raises(WorkloadError):
            compress_workload(simple_workload, signature="nonsense")
        with pytest.raises(WorkloadError):
            compress_workload(simple_workload, max_cost_error=-0.5)


class TestPartitioning:
    def test_disjoint_tables_fall_into_separate_components(self, simple_schema,
                                                           simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        plan = partition_workload(simple_workload, candidates)
        # orders-only and items-only statements interact through the join
        # statement, so the component structure is deterministic.
        assert plan.component_count >= 1
        assert sorted(p for shard in plan.shards
                      for p in shard.statement_positions) == list(
            range(len(simple_workload)))

    def test_requested_shard_count_is_reached_by_splitting(self, tpch,
                                                           tuning_workload):
        candidates = CandidateGenerator(tpch).generate(tuning_workload)
        plan = partition_workload(tuning_workload, candidates, shard_count=4)
        assert plan.shard_count == 4
        # Statement positions are partitioned exactly.
        assert sorted(p for shard in plan.shards
                      for p in shard.statement_positions) == list(
            range(len(tuning_workload)))
        # shard_of is consistent with the shard membership lists.
        for shard in plan.shards:
            for position in shard.statement_positions:
                assert plan.shard_of[position] == shard.position

    def test_shard_candidates_are_relevant_subsets(self, tpch, tuning_workload):
        candidates = CandidateGenerator(tpch).generate(tuning_workload)
        plan = partition_workload(tuning_workload, candidates, shard_count=3)
        for shard in plan.shards:
            tables = set()
            for statement in shard.workload:
                tables.update(_shell(statement.query).tables)
                if hasattr(statement.query, "table"):
                    tables.add(statement.query.table)
            assert all(index.table in tables for index in shard.candidates)

    def test_budget_water_filling(self, tpch, tuning_workload):
        candidates = CandidateGenerator(tpch).generate(tuning_workload)
        plan = partition_workload(tuning_workload, candidates, shard_count=3)
        budget = 0.25 * candidates.total_size()
        # Strict split: shard budgets sum to (at most) the global budget.
        strict = split_budget(plan, candidates, budget, oversubscription=1.0)
        assert sum(shard.budget_bytes for shard in strict.shards) <= budget + 1e-6
        # Default (oversubscribed): every shard may fill up to the budget.
        loose = split_budget(plan, candidates, budget)
        for shard in loose.shards:
            assert shard.budget_bytes <= budget + 1e-6
        assert (sum(shard.budget_bytes for shard in loose.shards)
                >= sum(shard.budget_bytes for shard in strict.shards))
        # Sub-1.0 values deliberately under-allocate instead of clamping.
        half = split_budget(plan, candidates, budget, oversubscription=0.5)
        assert sum(shard.budget_bytes for shard in half.shards) <= 0.5 * budget + 1e-6
        with pytest.raises(ValueError):
            split_budget(plan, candidates, budget, oversubscription=0.0)
        # No budget: untouched.
        assert split_budget(plan, candidates, None) is plan


class TestProcessPaths:
    def test_index_and_matrix_pickle_roundtrip_rehashes(self, tpch,
                                                        tuning_workload):
        index = Index("lineitem", ("l_shipdate",), include_columns=("l_tax",))
        clone = pickle.loads(pickle.dumps(index))
        assert clone == index and hash(clone) == hash(index)
        assert clone in {index}
        inum = InumCache(WhatIfOptimizer(tpch))
        shell = _shell(tuning_workload.statements[0].query)
        templates = inum.templates(shell)
        restored = pickle.loads(pickle.dumps(templates))
        assert restored == templates
        assert {t: p for p, t in enumerate(restored)}[templates[0]] == 0

    def test_process_built_matrices_match_serial(self, tpch, tuning_workload):
        candidates = list(CandidateGenerator(tpch).generate(tuning_workload))[:40]
        serial = InumCache(WhatIfOptimizer(tpch))
        serial.prepare(tuning_workload, candidates)
        sharded = InumCache(WhatIfOptimizer(tpch), build_processes=2)
        sharded.prepare(tuning_workload, candidates)
        assert serial.template_build_calls == sharded.template_build_calls
        for statement in tuning_workload:
            shell = _shell(statement.query)
            assert np.array_equal(serial.gamma_matrix(shell).array,
                                  sharded.gamma_matrix(shell).array)
        probe = Configuration(candidates[:15])
        assert (serial.workload_cost(tuning_workload, probe)
                == sharded.workload_cost(tuning_workload, probe))

    def test_build_matrices_in_processes_is_idempotent(self, tpch,
                                                       tuning_workload):
        cache = InumCache(WhatIfOptimizer(tpch))
        shells = [_shell(s.query) for s in tuning_workload]
        built = build_matrices_in_processes(cache, shells, (), workers=2)
        assert built > 0
        assert build_matrices_in_processes(cache, shells, (), workers=2) == 0

    def test_pooled_shard_solves_match_inline(self, tpch, tuning_workload):
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch, 0.5)
        inline = make_advisor("scaleout", tpch, shard_count=3, shard_workers=1,
                                 gap_tolerance=0.0)
        pooled = make_advisor("scaleout", tpch, shard_count=3, shard_workers=2,
                                 gap_tolerance=0.0)
        first = inline.tune(tuning_workload, constraints=[budget])
        second = pooled.tune(tuning_workload, constraints=[budget])
        assert second.extras["shard_workers"] == 2
        assert (sorted(i.name for i in first.configuration)
                == sorted(i.name for i in second.configuration))
        # Bit-equal, not approximately: the merge BIP is assembled from the
        # workers' own arrays.
        assert second.objective_estimate == first.objective_estimate
        assert _without_seconds(second.extras["merge"]) \
            == _without_seconds(first.extras["merge"])
        # Worker-side optimizer work is reported once: the merge adopts what
        # the workers built instead of enumerating it again.
        assert second.whatif_calls == first.whatif_calls > 0

    def test_pool_and_inline_results_differ_only_in_echoed_workers(
            self, tpch, tuning_workload):
        """Optimizer-call accounting is identical across worker counts.

        Deliberately not masked against ``REPRO_FAULT_PLAN``: under the chaos
        lane both runs recover from a killed first attempt and must still
        agree (retry counters are volatile keys).
        """
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch, 0.5)
        payloads = []
        for workers in (1, 2):
            result = Tuner().tune(TuningRequest(
                workload=tuning_workload, schema=tpch, constraints=[budget],
                scale=ScaleSpec(shard_count=3, shard_workers=workers),
                request_id="pool-parity"))
            payload = _strip_timings(result.to_payload())
            assert payload["provenance"]["scale"].pop(
                "shard_workers") == workers
            assert payload["provenance"]["advisor"]["options"].pop(
                "shard_workers") == workers
            payloads.append(payload)
        assert payloads[0]["diagnostics"]["whatif_calls"] > 0
        assert payloads[0] == payloads[1]

    def test_adopted_entries_are_bit_identical_to_local_builds(
            self, tpch, tuning_workload):
        candidates = CandidateGenerator(tpch).generate(tuning_workload)
        plan = partition_workload(tuning_workload, candidates, shard_count=3)
        local = InumCache(WhatIfOptimizer(tpch))
        ShardExecutor(workers=1, gap_tolerance=0.0,
                      fault_plan=FaultPlan()).solve_shards(
            plan, tpch, inum=local)
        adopting = InumCache(WhatIfOptimizer(tpch))
        results = ShardExecutor(workers=2, gap_tolerance=0.0,
                                fault_plan=FaultPlan()).solve_shards(
            plan, tpch, inum=adopting)
        # Nothing reaches the parent cache until the caller adopts it.
        assert adopting.cached_query_count == 0
        shells = {_shell(s.query).name: _shell(s.query)
                  for s in tuning_workload}
        assert sorted(entry[0].name for result in results
                      for entry in result.built) == sorted(shells)
        for result in results:
            adopting.adopt_built(result.built)
        assert adopting.template_build_calls == 0
        assert adopting.optimizer.whatif_calls == 0
        for shell in shells.values():
            assert adopting.templates(shell) == local.templates(shell)
            ours, theirs = adopting.gamma_matrix(shell), local.gamma_matrix(shell)
            assert ours.registered_indexes == theirs.registered_indexes
            assert np.array_equal(ours.array, theirs.array)
        # Adopted matrices are live: they cost new columns through the
        # adopting cache's optimizer.
        probe = Configuration(list(candidates)[:15])
        assert (adopting.workload_cost(tuning_workload, probe)
                == local.workload_cost(tuning_workload, probe))

    def test_only_pending_shells_are_shipped_back(self, tpch,
                                                  tuning_workload):
        candidates = CandidateGenerator(tpch).generate(tuning_workload)
        plan = partition_workload(tuning_workload, candidates, shard_count=2)
        cache = InumCache(WhatIfOptimizer(tpch))
        held = plan.shards[0].workload
        cache.build_workload(held)
        results = ShardExecutor(workers=2, gap_tolerance=0.0,
                                fault_plan=FaultPlan()).solve_shards(
            plan, tpch, inum=cache)
        held_names = {_shell(s.query).name for s in held}
        shipped = {entry[0].name for result in results
                   for entry in result.built}
        assert shipped and not (shipped & held_names)

    def test_clean_pool_run_builds_nothing_in_the_parent(self, tpch,
                                                         tuning_workload):
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch, 0.5)
        advisor = make_advisor("scaleout", tpch, shard_count=3,
                               shard_workers=2, fault_plan=FaultPlan())
        registry = MetricsRegistry()
        with use_registry(registry):
            recommendation = advisor.tune(tuning_workload,
                                          constraints=[budget])
        assert advisor.inum.template_build_calls == 0
        assert recommendation.whatif_calls > 0
        events = registry.snapshot()["repro_cache_events_total"]
        # The merge's prepare found every representative's templates.
        assert events[("template", "hit")] >= recommendation.extras[
            "compression"]["representatives"]
        assert ("template", "miss") not in events

    def test_unbound_matrix_raises_typed_error(self, tpch, tuning_workload):
        inum = InumCache(WhatIfOptimizer(tpch))
        shell = _shell(tuning_workload.statements[0].query)
        matrix = inum.gamma_matrix(shell)
        index = next(iter(CandidateGenerator(tpch).generate(
            Workload([tuning_workload.statements[0]]))))
        shipped = pickle.dumps(matrix)
        # The optimizer (schema + scan caches) stays behind.
        assert len(shipped) < len(pickle.dumps(inum.optimizer))
        restored = pickle.loads(shipped)
        assert np.array_equal(restored.array, matrix.array)
        with pytest.raises(OptimizerError, match="rebind_optimizer"):
            restored.ensure_columns((index,))
        restored.rebind_optimizer(inum.optimizer)
        restored.ensure_columns((index,))
        matrix.ensure_columns((index,))
        assert np.array_equal(restored.array, matrix.array)


class TestScaleOutAdvisor:
    def test_single_shard_reproduces_monolithic(self, tpch, tuning_workload):
        """The fast-lane shard-vs-monolithic equivalence check (CI)."""
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch, 0.5)
        monolithic = make_advisor("cophy", tpch, gap_tolerance=0.0).tune(
            tuning_workload, constraints=[budget])
        scaled = make_advisor("scaleout", tpch, compress=False, shard_count=1,
                                 gap_tolerance=0.0).tune(
            tuning_workload, constraints=[budget])
        evaluator = InumCache(WhatIfOptimizer(tpch))
        evaluator.prepare(tuning_workload, (*monolithic.configuration,
                                            *scaled.configuration))
        assert evaluator.workload_cost(tuning_workload, scaled.configuration) \
            == pytest.approx(evaluator.workload_cost(
                tuning_workload, monolithic.configuration), rel=1e-9)

    def test_sharded_compressed_quality_within_bound(self, tpch,
                                                     tuning_workload):
        """Compression (exact) + 4 shards stays within 5% of monolithic."""
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch, 0.5)
        monolithic = make_advisor("cophy", tpch, gap_tolerance=0.0).tune(
            tuning_workload, constraints=[budget])
        scaled = make_advisor("scaleout", tpch, signature="structural",
                                 max_cost_error=0.0, shard_count=4,
                                 gap_tolerance=0.0).tune(
            tuning_workload, constraints=[budget])
        assert scaled.extras["partition"]["shards"] == 4
        evaluator = InumCache(WhatIfOptimizer(tpch))
        evaluator.prepare(tuning_workload, (*monolithic.configuration,
                                            *scaled.configuration))
        monolithic_cost = evaluator.workload_cost(tuning_workload,
                                                  monolithic.configuration)
        scaled_cost = evaluator.workload_cost(tuning_workload,
                                              scaled.configuration)
        assert scaled_cost <= 1.05 * monolithic_cost
        # The recommendation respects the global budget even though shards
        # were solved under an oversubscribed split.
        total = sum(_index_size(tpch, index) for index in scaled.configuration)
        assert total <= budget.budget_bytes + 1e-6

    def test_deterministic_across_runs(self, tpch, tuning_workload):
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch, 0.5)
        make = lambda: make_advisor("scaleout", tpch, max_cost_error=0.5, shard_count=4,
                                       gap_tolerance=0.0).tune(
            tuning_workload, constraints=[budget])
        first, second = make(), make()
        assert ([i.name for i in first.configuration]
                == [i.name for i in second.configuration])

    def test_soft_constraints_are_rejected(self, tpch, tuning_workload):
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch, 0.5)
        with pytest.raises(ConstraintError):
            make_advisor("scaleout", tpch).tune(tuning_workload,
                                       constraints=[budget.soft()])

    def test_recommendation_reports_pipeline_extras(self, tpch,
                                                    tuning_workload):
        budget = StorageBudgetConstraint.from_fraction_of_data(tpch, 0.5)
        recommendation = make_advisor("scaleout", tpch, max_cost_error=0.5,
                                         shard_count=2).tune(
            tuning_workload, constraints=[budget])
        assert recommendation.extras["compression"]["representatives"] <= len(
            tuning_workload)
        assert recommendation.extras["partition"]["shards"] == 2
        assert len(recommendation.extras["shards"]) == 2
        assert recommendation.extras["merge"]["winners"] >= len(
            recommendation.configuration)
        for key in ("compress", "partition", "solve", "merge", "total"):
            assert key in recommendation.timings


class TestWeightedBipBuild:
    def test_statement_weights_override_matches_reweighted_workload(
            self, simple_schema, simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        weights = {statement.query.name: float(2 + position)
                   for position, statement in enumerate(simple_workload)}
        inum = InumCache(WhatIfOptimizer(simple_schema))
        overridden = BipBuilder(inum).build(simple_workload, candidates,
                                            statement_weights=weights)
        reweighted = Workload(
            [WorkloadStatement(s.query, weights[s.query.name])
             for s in simple_workload], name="reweighted")
        rebuilt = BipBuilder(inum).build(
            reweighted, CandidateGenerator(simple_schema).generate(reweighted))
        by_name = _cost_terms(rebuilt)
        for name, coefficient in _cost_terms(overridden).items():
            assert coefficient == pytest.approx(by_name[name])
        assert overridden.model.objective.constant == pytest.approx(
            rebuilt.model.objective.constant)

    def test_extend_honours_statement_weight_overrides(self, simple_schema,
                                                       simple_workload):
        all_candidates = list(
            CandidateGenerator(simple_schema).generate(simple_workload))
        weights = {statement.query.name: float(2 + position)
                   for position, statement in enumerate(simple_workload)}
        inum = InumCache(WhatIfOptimizer(simple_schema))
        builder = BipBuilder(inum)
        half = CandidateSet(simple_schema, all_candidates[: len(all_candidates) // 2])
        extended = builder.build(simple_workload, half,
                                 statement_weights=weights)
        builder.extend(extended, all_candidates[len(all_candidates) // 2:])
        full = builder.build(
            simple_workload, CandidateSet(simple_schema, all_candidates),
            statement_weights=weights)
        extended_terms = _cost_terms(extended)
        for name, coefficient in _cost_terms(full).items():
            assert coefficient == pytest.approx(extended_terms[name])


def _cost_terms(bip) -> dict[str, float]:
    """The BIP objective's coefficients by column name: ``z[index]``,
    ``y[query][k]`` or ``x[query][k][table][index or I0]``."""
    names = {variable.index: f"z[{index.name}]"
             for index, variable in bip.z_variables.items()}
    index_names = {variable.index: index.name
                   for index, variable in bip.z_variables.items()}
    index_names[-1] = "I0"
    templates, accesses = bip.templates, bip.accesses
    for template, column in enumerate(templates.columns.tolist()):
        shell = _shell(bip.workload.statements[
            templates.statements[template]].query)
        label = f"{shell.name}][{templates.positions[template]}"
        names[column] = f"y[{label}]"
        # The template's slots, in table order, have ascending rows.
        mine = accesses.templates == template
        slot_rows = np.unique(accesses.slot_rows[mine])
        for access in np.flatnonzero(mine).tolist():
            table = shell.tables[int(np.searchsorted(
                slot_rows, accesses.slot_rows[access]))]
            index = index_names[int(accesses.indexes[access])]
            names[int(accesses.columns[access])] = f"x[{label}][{table}][{index}]"
    objective = bip.model.objective
    return {names[column]: coefficient
            for column, coefficient in zip(objective.columns.tolist(),
                                           objective.coefficients.tolist())}


def _without_seconds(stats: dict) -> dict:
    return {key: value for key, value in stats.items() if key != "seconds"}


def _shell(query):
    return query.query_shell() if hasattr(query, "query_shell") else query


def _index_size(schema, index: Index) -> float:
    from repro.indexes.index import index_size_bytes

    return index_size_bytes(index, schema.table(index.table))
