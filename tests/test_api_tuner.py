"""Tests for the unified tuning API: registry, Tuner pipeline, shims.

The load-bearing guarantee is *bit-identity*: every advisor reached through
``Tuner.tune(TuningRequest(...))`` must recommend exactly what the legacy
constructor-call path recommends — the API layer wires shared state, it never
changes a decision.
"""

from __future__ import annotations

import pytest

from repro.advisors.base import Recommendation
from repro.advisors.dta import DtaAdvisor
from repro.advisors.ilp_advisor import IlpAdvisor
from repro.advisors.relaxation import RelaxationAdvisor
from repro.advisors.scaleout import ScaleOutAdvisor
from repro.api import (
    AdvisorSpec,
    CostingSpec,
    ScaleSpec,
    Tuner,
    TuningRequest,
    TuningResult,
    advisor_factory,
    available_advisors,
    make_advisor,
    register_advisor,
)
from repro.core.advisor import CoPhyAdvisor
from repro.core.constraints import StorageBudgetConstraint
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.workload.workload import Workload


def _budget(schema, fraction=1.0):
    return StorageBudgetConstraint.from_fraction_of_data(schema, fraction)


#: (registry name, legacy class, legacy constructor kwargs).  Scale-out runs
#: inline (one worker) so the legacy and registry runs share no pool state.
LEGACY_ADVISORS = [
    ("cophy", CoPhyAdvisor, {}),
    ("ilp", IlpAdvisor, {}),
    ("dta", DtaAdvisor, {}),
    ("relaxation", RelaxationAdvisor, {}),
    ("scaleout", ScaleOutAdvisor, {"shard_workers": 1}),
]


class TestDeprecationShims:
    @pytest.mark.parametrize("name,cls,kwargs", LEGACY_ADVISORS)
    def test_legacy_construction_warns_and_matches_registry_path(
            self, name, cls, kwargs, simple_schema, simple_workload):
        """Direct construction and the Tuner pipeline recommend the same."""
        budget = _budget(simple_schema)
        legacy = cls(simple_schema, **kwargs).tune(simple_workload, [budget])
        result = Tuner().tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[budget], advisor=AdvisorSpec(name, kwargs)))
        assert isinstance(result, TuningResult)
        assert result.configuration == legacy.configuration
        assert result.objective_estimate == legacy.objective_estimate
        assert result.advisor_name == legacy.advisor_name


class TestRegistry:
    def test_builtins_and_aliases_registered(self):
        names = available_advisors()
        for name in ("cophy", "ilp", "dta", "tool-b", "relaxation",
                     "tool-a", "scaleout"):
            assert name in names
        assert advisor_factory("dta") is advisor_factory("tool-b")
        assert advisor_factory("relaxation") is advisor_factory("tool-a")

    def test_unknown_advisor_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="available"):
            advisor_factory("no-such-advisor")

    def test_custom_strategy_is_reachable_through_tuner(self, simple_schema,
                                                        simple_workload):
        """Plugging in a strategy needs one registration, nothing else."""

        class NullAdvisor:
            name = "null"

            def tune(self, workload, constraints=(), candidates=None):
                return Recommendation(configuration=Configuration(name="null"),
                                      advisor_name=self.name,
                                      objective_estimate=0.0)

        @register_advisor("test-null")
        def _build(schema, options, *, shared_optimizer=None,
                   shared_inum=None):
            return NullAdvisor()

        result = Tuner().tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            advisor="test-null"))
        assert result.advisor_name == "null"
        assert result.index_count == 0

    def test_reregistering_a_name_rebinds_its_aliases(self, simple_schema,
                                                      simple_workload):
        """Overriding "dta" must not leave "tool-b" serving the old factory."""
        from repro.api.registry import _build_dta

        calls = []

        @register_advisor("dta", aliases=("tool-b",))
        def _instrumented(schema, options, *, shared_optimizer=None,
                          shared_inum=None):
            calls.append("hit")
            return _build_dta(schema, options,
                              shared_optimizer=shared_optimizer,
                              shared_inum=shared_inum)

        try:
            make_advisor("tool-b", simple_schema)
            assert calls == ["hit"]
        finally:
            register_advisor("dta", aliases=("tool-b",))(_build_dta)

    def test_inum_cap_options_rejected_with_shared_cache(self, simple_schema,
                                                         simple_workload):
        """Caps belong to CostingSpec; silently ignoring them would leave the
        provenance attesting to enumeration limits that never applied."""
        with pytest.raises(ValueError, match="CostingSpec"):
            Tuner().tune(TuningRequest(
                workload=simple_workload, schema=simple_schema,
                advisor=AdvisorSpec("cophy", {"max_templates_per_query": 1})))
        # The imperative path (owned cache) keeps accepting them.
        advisor = make_advisor("cophy", simple_schema,
                               max_templates_per_query=1)
        assert advisor.inum.enumeration_caps[1] == 1

    def test_shared_candidate_generator_wiring(self, simple_schema):
        """The BIP advisors adopt the context's generator unless an explicit
        one is given; the black-box baselines keep their own."""
        shared = CandidateGenerator(simple_schema)
        mine = CandidateGenerator(simple_schema, covering=False)
        for name in ("cophy", "ilp", "scaleout"):
            assert make_advisor(name, simple_schema,
                                shared_candidate_generator=shared
                                ).candidate_generator is shared
            assert make_advisor(name, simple_schema, candidate_generator=mine,
                                shared_candidate_generator=shared
                                ).candidate_generator is mine
        for name in ("dta", "tool-a"):
            assert make_advisor(name, simple_schema,
                                shared_candidate_generator=shared
                                ).candidate_generator is not shared

    def test_explicit_options_beat_shared_wiring(self, simple_schema):
        from repro.optimizer.whatif import WhatIfOptimizer

        mine = WhatIfOptimizer(simple_schema)
        shared = WhatIfOptimizer(simple_schema)
        advisor = make_advisor("cophy", simple_schema, optimizer=mine,
                               shared_optimizer=shared)
        assert advisor.optimizer is mine


class TestTuningRequest:
    def test_string_advisor_normalises_to_spec(self, simple_schema,
                                               simple_workload):
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema, advisor="ilp")
        assert request.resolved_advisor() == AdvisorSpec("ilp")

    def test_scale_spec_implies_scaleout(self, simple_schema, simple_workload):
        request = TuningRequest(workload=simple_workload, schema=simple_schema,
                                scale=ScaleSpec(shard_count=2))
        assert request.resolved_advisor().name == "scaleout"
        assert request.resolved_options()["shard_count"] == 2

    def test_scale_spec_rejects_other_advisors(self, simple_schema,
                                               simple_workload):
        with pytest.raises(ValueError, match="scaleout"):
            TuningRequest(workload=simple_workload, schema=simple_schema,
                          advisor="cophy", scale=ScaleSpec())

    def test_explicit_advisor_options_win_over_scale_spec(self, simple_schema,
                                                          simple_workload):
        request = TuningRequest(
            workload=simple_workload, schema=simple_schema,
            advisor=AdvisorSpec("scaleout", {"shard_count": 5}),
            scale=ScaleSpec(shard_count=2))
        assert request.resolved_options()["shard_count"] == 5

    def test_rejects_non_workload(self, simple_schema):
        from repro.exceptions import WorkloadError

        with pytest.raises(WorkloadError):
            TuningRequest(workload=["not a workload"], schema=simple_schema)


class TestTunerPipeline:
    def test_request_scoped_candidates_prepare_the_shared_cache(
            self, simple_schema, simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        tuner = Tuner()
        result = tuner.tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[_budget(simple_schema)], candidates=candidates))
        assert result.provenance["pipeline"]["prepared"] is True
        assert result.provenance["candidates"]["count"] == len(candidates)
        context = tuner.context_for(simple_schema)
        assert context.inum.cached_query_count == len(simple_workload)

    def test_dba_indexes_join_the_candidate_universe(self, simple_schema,
                                                     simple_workload):
        from repro.indexes.index import Index

        dba = Index("orders", ("o_customer",), include_columns=("o_total",))
        result = Tuner().tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[_budget(simple_schema)], dba_indexes=[dba]))
        assert result.provenance["candidates"]["dba_indexes"] == 1
        assert result.provenance["candidates"]["count"] is not None

    def test_per_statement_costs_default_per_advisor(self, simple_schema,
                                                     simple_workload):
        tuner = Tuner()
        cophy = tuner.tune(TuningRequest(workload=simple_workload,
                                         schema=simple_schema))
        assert len(cophy.statement_costs) == len(simple_workload)
        # Off by default for advisors that do not share the cache (the
        # black-box baselines would pay an INUM build they never used)…
        dta = tuner.tune(TuningRequest(workload=simple_workload,
                                       schema=simple_schema, advisor="dta"))
        assert dta.statement_costs == ()
        # …and for scale-out, whose point is never costing monolithically.
        scaled = tuner.tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            advisor=AdvisorSpec("scaleout", {"shard_workers": 1})))
        assert scaled.statement_costs == ()
        # An explicit True always wins.
        forced = tuner.tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            advisor=AdvisorSpec("scaleout", {"shard_workers": 1}),
            per_statement_costs=True))
        assert len(forced.statement_costs) == len(simple_workload)

    def test_per_statement_costs_match_inum(self, simple_schema,
                                            simple_workload):
        tuner = Tuner()
        result = tuner.tune(TuningRequest(workload=simple_workload,
                                          schema=simple_schema,
                                          constraints=[_budget(simple_schema)]))
        context = tuner.context_for(simple_schema)
        for statement, entry in zip(simple_workload, result.statement_costs):
            assert entry.statement == statement.query.name
            assert entry.weight == statement.weight
            assert entry.cost == context.inum.statement_cost(
                statement.query, result.configuration)

    def test_costing_spec_selects_a_distinct_context(self, simple_schema,
                                                     simple_workload):
        tuner = Tuner()
        default = tuner.tune(TuningRequest(workload=simple_workload,
                                           schema=simple_schema))
        capped_spec = CostingSpec(max_templates_per_query=1)
        capped = tuner.tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            costing=capped_spec))
        assert len(tuner.contexts) == 2
        # Caps change the template set, so the two share no INUM cache.
        assert (tuner.context_for(simple_schema, capped_spec).inum
                is not tuner.context_for(simple_schema).inum)
        assert default.provenance["costing"] != capped.provenance["costing"]

    def test_provenance_records_the_resolved_pipeline(self, simple_schema,
                                                      simple_workload):
        result = Tuner().tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[_budget(simple_schema)], advisor="tool-b",
            request_id="req-42"))
        provenance = result.provenance
        assert provenance["request_id"] == "req-42"
        assert provenance["advisor"]["requested"] == "tool-b"
        assert provenance["advisor"]["name"] == "dta"
        assert provenance["advisor"]["class"] == "DtaAdvisor"
        assert provenance["schema"]["name"] == simple_schema.name
        assert provenance["workload"]["statements"] == len(simple_workload)
        assert provenance["constraints"] == ["storage_budget[1x data]"]


class TestPrimedContext:
    """A request on a primed context skips the work whose input it shares
    with earlier requests — and counts what it skipped like the full pass."""

    @staticmethod
    def _events(tuner):
        return tuner.metrics.snapshot()["repro_cache_events_total"]

    def test_candidates_are_generated_once_per_workload(self, simple_schema,
                                                        simple_workload):
        tuner = Tuner()
        request = TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[_budget(simple_schema, 0.5)],
            advisor=AdvisorSpec("cophy", solve_tier="heuristic"))
        first = tuner.tune(request)
        assert self._events(tuner)[("candidates", "miss")] == 1
        # An equal workload object resolves to the canonical one and hits.
        copy = Workload(list(simple_workload), name=simple_workload.name)
        second = tuner.tune(TuningRequest(
            workload=copy, schema=simple_schema,
            constraints=[_budget(simple_schema, 0.25)],
            advisor=AdvisorSpec("cophy", solve_tier="heuristic")))
        events = self._events(tuner)
        assert events[("candidates", "miss")] == 1
        assert events[("candidates", "hit")] == 1
        assert first.diagnostics.candidate_count \
            == second.diagnostics.candidate_count \
            == len(CandidateGenerator(simple_schema).generate(simple_workload))

    def test_prepare_on_a_covered_tensor_returns_at_once(self, tpch,
                                                         monkeypatch):
        from repro.inum.cache import InumCache
        from repro.obs.metrics import MetricsRegistry, use_registry
        from repro.optimizer.whatif import WhatIfOptimizer
        from repro.workload.generators import generate_homogeneous_workload

        workload = generate_homogeneous_workload(6, seed=8,
                                                 update_fraction=0.3)
        candidates = CandidateGenerator(tpch).generate(workload)
        inum = InumCache(WhatIfOptimizer(tpch))
        inum.prepare(workload, candidates)
        shells = len({statement.query.name for statement in workload})

        def counted(indexes):
            registry = MetricsRegistry()
            with use_registry(registry):
                inum.prepare(workload, indexes)
            return registry.snapshot()["repro_cache_events_total"]

        full = counted(candidates)
        assert full == {("template", "hit"): shells, ("tensor", "hit"): 1}
        # Covered: every candidate has a column, or is on a table no
        # statement touches — the pass returns before any column scan.
        touched = {table for statement in workload
                   for table in statement.query.tables}
        untouched = sorted(set(tpch.table_names) - touched)
        assert untouched
        stray = Index(untouched[0],
                      (tpch.table(untouched[0]).columns[0].name,))
        monkeypatch.setattr(inum, "_build_statements", None)
        assert counted((stray, *reversed(candidates.indexes))) == full
        monkeypatch.undo()
        # A genuinely new column still takes the full, extending pass.
        table = sorted(touched)[0]
        columns = [column.name for column in tpch.table(table).columns]
        new = Index(table, tuple(reversed(columns[:3])))
        assert new not in candidates
        assert counted((*candidates, new)) == full
        assert new in inum.workload_tensor(workload).candidate_columns

    def test_a_canonical_workload_skips_the_fingerprint(
            self, simple_schema, simple_workload, monkeypatch):
        import repro.api.tuner as tuner_module

        calls = []
        fingerprint = tuner_module.workload_fingerprint
        monkeypatch.setattr(tuner_module, "workload_fingerprint",
                            lambda workload: calls.append(workload)
                            or fingerprint(workload))
        context = Tuner().context_for(simple_schema)
        assert context.canonical_workload(simple_workload) is simple_workload
        assert context.canonical_workload(simple_workload) is simple_workload
        assert calls == [simple_workload]
        copy = Workload(list(simple_workload), name=simple_workload.name)
        assert context.canonical_workload(copy) is simple_workload
        assert calls == [simple_workload, copy]
