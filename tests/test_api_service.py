"""Tests for the concurrent TuningService: cache sharing, determinism, sessions."""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    AdvisorSpec,
    Tuner,
    TuningRequest,
    TuningService,
    TuningSession,
)
from repro.core.constraints import IndexCountConstraint, StorageBudgetConstraint
from repro.workload.workload import Workload


def _budget(schema, fraction=1.0):
    return StorageBudgetConstraint.from_fraction_of_data(schema, fraction)


def _requests(schema, workload):
    """A mixed batch: three strategies plus a repeated request, a variant and
    a greedy-tier request."""
    budget = _budget(schema)
    return [
        TuningRequest(workload=workload, schema=schema, constraints=[budget],
                      advisor="cophy", request_id="cophy-1"),
        TuningRequest(workload=workload, schema=schema, constraints=[budget],
                      advisor="dta", request_id="dta-1"),
        TuningRequest(workload=workload, schema=schema, constraints=[budget],
                      advisor="tool-a", request_id="tool-a-1"),
        TuningRequest(workload=workload, schema=schema,
                      constraints=[_budget(schema, 0.25)],
                      advisor="cophy", request_id="cophy-tight"),
        TuningRequest(workload=workload, schema=schema, constraints=[budget],
                      advisor="cophy", request_id="cophy-2"),
        TuningRequest(workload=workload, schema=schema,
                      constraints=[_budget(schema, 0.5)],
                      advisor=AdvisorSpec("cophy", solve_tier="heuristic"),
                      request_id="cophy-greedy"),
    ]


class TestConcurrentTuning:
    def test_simultaneous_requests_share_one_cache_deterministically(
            self, simple_schema, simple_workload):
        """≥4 simultaneous ``tune()`` calls, one shared cache, per-request
        results identical to an isolated sequential run.

        Determinism is asserted on the decisions (configuration, objective,
        per-statement costs) — call-count diagnostics legitimately differ
        between warm and cold caches.
        """
        sequential = [Tuner().tune(request)  # fresh Tuner per request: cold,
                      for request in _requests(simple_schema, simple_workload)]

        with TuningService(max_workers=4) as service:
            # All five requests are in flight together before any completes.
            barrier = threading.Barrier(4, timeout=30)
            gate_hits = []

            original = service.tune

            def gated_tune(request):
                if len(gate_hits) < 4:
                    gate_hits.append(request.request_id)
                    barrier.wait()
                return original(request)

            service.tune = gated_tune  # type: ignore[method-assign]
            concurrent = service.tune_many(
                _requests(simple_schema, simple_workload))
            assert len(gate_hits) >= 4

            # One schema + one costing spec = exactly one shared context.
            assert len(service.tuner.contexts) == 1
            context = service.context_for(simple_schema)
            assert context.inum.cached_query_count == len(simple_workload)

        for expected, got in zip(sequential, concurrent):
            assert got.configuration == expected.configuration
            assert got.objective_estimate == expected.objective_estimate
            assert ([ (c.statement, c.cost) for c in got.statement_costs]
                    == [(c.statement, c.cost) for c in expected.statement_costs])

    def test_repeated_requests_reuse_templates_and_tensors(self, simple_schema,
                                                           simple_workload):
        service = TuningService()
        first = TuningRequest(workload=simple_workload, schema=simple_schema,
                              constraints=[_budget(simple_schema)])
        service.tune(first)
        context = service.context_for(simple_schema)
        builds_after_first = context.inum.template_build_calls
        assert builds_after_first > 0

        # An equal-but-distinct workload object: the canonical-workload LRU
        # must route it onto the existing tensors, not rebuild anything.
        clone = Workload(simple_workload.statements, name=simple_workload.name)
        assert clone is not simple_workload
        second = TuningRequest(workload=clone, schema=simple_schema,
                               constraints=[_budget(simple_schema)])
        result = service.tune(second)
        assert context.inum.template_build_calls == builds_after_first
        assert context.canonical_workload(clone) is context.canonical_workload(
            simple_workload)
        assert result.configuration == service.tune(first).configuration

    def test_name_collisions_do_not_alias_different_workloads(self, tpch):
        """Default statement names (``stmt1``…) must never make the shared
        context substitute or mix structurally different statements — the
        collision is rejected loudly at admission, never served wrong."""
        from repro.exceptions import WorkloadError
        from repro.api.tuner import workload_fingerprint
        from repro.workload import parse_workload

        first = parse_workload(
            ["SELECT o_totalprice FROM orders WHERE o_orderdate < 700"],
            schema=tpch)
        second = parse_workload(
            ["SELECT l_extendedprice FROM lineitem "
             "WHERE l_shipdate BETWEEN 2300 AND 2400"],
            schema=tpch)
        # Same workload name, same default statement names and weights —
        # only the structure differs.
        assert first.name == second.name
        assert [s.query.name for s in first] == [s.query.name for s in second]
        assert workload_fingerprint(first) != workload_fingerprint(second)

        service = TuningService()
        ok = service.tune(TuningRequest(workload=first, schema=tpch))
        assert {index.table for index in ok.configuration} <= {"orders"}
        # The shared cache keys templates by statement name: serving the
        # colliding workload would mix the two statements' templates.
        with pytest.raises(WorkloadError, match="structurally different"):
            service.tune(TuningRequest(workload=second, schema=tpch))
        # A repeat of the admitted workload (equal fingerprint) still works…
        again = service.tune(TuningRequest(workload=first, schema=tpch))
        assert again.configuration == ok.configuration
        # …and the rejected workload tunes fine on its own context.
        fresh = Tuner().tune(TuningRequest(workload=second, schema=tpch))
        assert {index.table for index in fresh.configuration} <= {"lineitem"}

    def test_rejected_workload_leaves_no_digest_trace(self, tpch):
        """Admission is validate-then-commit: a refused workload must not
        poison the name registry for names it never served."""
        from repro.exceptions import WorkloadError
        from repro.workload import parse_statement
        from repro.workload.workload import Workload

        def statement(sql, name):
            return parse_statement(sql, schema=tpch, name=name)

        service = TuningService()
        service.tune(TuningRequest(workload=Workload([statement(
            "SELECT o_totalprice FROM orders WHERE o_orderdate < 700",
            "q-orders")]), schema=tpch))
        # The rejected workload registers a *fresh* name first, then hits the
        # collision — the fresh registration must be rolled back with it.
        rejected = Workload([
            statement("SELECT s_acctbal FROM supplier WHERE s_acctbal >= 9000",
                      "q-fresh"),
            statement("SELECT l_extendedprice FROM lineitem "
                      "WHERE l_shipdate < 100", "q-orders"),  # collides
        ])
        with pytest.raises(WorkloadError, match="q-orders"):
            service.tune(TuningRequest(workload=rejected, schema=tpch))
        # 'q-fresh' may later name a *different* shape: the rejected
        # workload's registration must not have stuck.
        ok = service.tune(TuningRequest(workload=Workload([statement(
            "SELECT p_retailprice FROM part WHERE p_size <= 5", "q-fresh")]),
            schema=tpch))
        assert {index.table for index in ok.configuration} <= {"part"}

    def test_fingerprint_is_constant_sensitive(self, tpch):
        """Equal shapes with different predicate constants stay distinct."""
        from repro.api.tuner import workload_fingerprint
        from repro.workload import parse_workload

        narrow = parse_workload(
            ["SELECT o_totalprice FROM orders WHERE o_orderdate < 10"],
            schema=tpch)
        wide = parse_workload(
            ["SELECT o_totalprice FROM orders WHERE o_orderdate < 2000"],
            schema=tpch)
        assert workload_fingerprint(narrow) != workload_fingerprint(wide)

    def test_different_costing_specs_do_not_share_a_context(self,
                                                            simple_schema,
                                                            simple_workload):
        from repro.api import CostingSpec

        service = TuningService()
        service.tune(TuningRequest(workload=simple_workload,
                                   schema=simple_schema))
        service.tune(TuningRequest(workload=simple_workload,
                                   schema=simple_schema,
                                   costing=CostingSpec(max_orders_per_table=1)))
        assert len(service.tuner.contexts) == 2


class TestContextEviction:
    def test_lru_cap_evicts_whole_contexts(self, simple_workload):
        from repro.catalog import tpch_schema

        service = TuningService(Tuner(max_contexts=2))
        schemas = [tpch_schema(scale_factor=0.003 + 0.001 * i)
                   for i in range(3)]
        for schema in schemas:
            service.context_for(schema)
        assert len(service.tuner.contexts) == 2
        assert service.tuner.evicted_contexts == 1
        # The survivor set is LRU: schema 0 is gone, touching schema 1 keeps
        # it alive past a fourth arrival.
        service.context_for(schemas[1])
        service.context_for(tpch_schema(scale_factor=0.009))
        live = {context.schema for context in service.tuner.contexts}
        assert schemas[1] in live and schemas[2] not in live
        stats = service.stats()
        assert stats["evicted_contexts"] == 2
        assert stats["max_contexts"] == 2

    def test_ttl_reaps_idle_contexts(self, simple_schema, simple_workload):
        import time

        from repro.catalog import tpch_schema

        service = TuningService(Tuner(context_ttl_s=0.05))
        service.tune(TuningRequest(workload=simple_workload,
                                   schema=simple_schema))
        assert len(service.tuner.contexts) == 1
        time.sleep(0.1)
        service.context_for(tpch_schema(scale_factor=0.003))
        assert service.tuner.expired_contexts == 1
        assert all(context.schema is not simple_schema
                   for context in service.tuner.contexts)

    def test_in_flight_reference_survives_eviction(self, simple_schema,
                                                   simple_workload):
        """Eviction drops the registry entry, not the object: a caller holding
        the context finishes on its own reference, cold state comes later."""
        from repro.catalog import tpch_schema

        service = TuningService(Tuner(max_contexts=1))
        context = service.context_for(simple_schema)
        service.context_for(tpch_schema(scale_factor=0.003))  # evicts it
        assert context not in service.tuner.contexts
        # Tuning through the held reference still works and caches normally.
        result = service.tuner.tune_in_context(
            TuningRequest(workload=simple_workload, schema=simple_schema),
            context)
        assert result.index_count >= 0
        assert context.inum.cached_query_count == len(simple_workload)

    def test_stats_do_not_block_behind_a_busy_context(self, simple_schema,
                                                      simple_workload):
        """A stats poll must not stall behind a context lock held by a
        long-running solve (which would transitively stall tuning traffic
        for every other schema through the registry lock)."""
        service = TuningService()
        service.tune(TuningRequest(workload=simple_workload,
                                   schema=simple_schema))
        context = service.context_for(simple_schema)
        holding = threading.Event()
        release = threading.Event()

        def long_solve_holder():
            with context.lock:
                holding.set()
                release.wait(10)

        holder = threading.Thread(target=long_solve_holder)
        holder.start()
        assert holding.wait(10)
        try:
            polled: dict[str, object] = {}
            poller = threading.Thread(
                target=lambda: polled.setdefault("stats", service.stats()))
            poller.start()
            poller.join(timeout=5)
            assert not poller.is_alive(), "stats() blocked on a busy context"
            assert polled["stats"]["context_count"] == 1
        finally:
            release.set()
            holder.join(timeout=10)

    def test_eviction_knobs_require_owned_tuner(self):
        """The eviction knobs belong to the Tuner alone: the service takes
        no copy of them, so one passed there fails loudly."""
        with pytest.raises(TypeError, match="max_contexts"):
            TuningService(Tuner(), max_contexts=4)
        with pytest.raises(TypeError, match="context_ttl_s"):
            TuningService(context_ttl_s=5.0)

    def test_invalid_knobs_are_rejected(self):
        with pytest.raises(ValueError):
            Tuner(max_contexts=0)
        with pytest.raises(ValueError):
            Tuner(context_ttl_s=0.0)

    def test_max_workers_is_checked_at_construction(self):
        """A pool size the executor would refuse fails the constructor, not
        the first submit."""
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_workers"):
                TuningService(max_workers=bad)
        TuningService(max_workers=1).close()


class TestStatementNamespacing:
    def _colliding_workloads(self, tpch):
        from repro.workload import parse_workload

        first = parse_workload(
            ["SELECT o_totalprice FROM orders WHERE o_orderdate < 700"],
            schema=tpch)
        second = parse_workload(
            ["SELECT l_extendedprice FROM lineitem "
             "WHERE l_shipdate BETWEEN 2300 AND 2400"],
            schema=tpch)
        return first, second

    def test_namespacing_admits_colliding_traffic(self, tpch):
        first, second = self._colliding_workloads(tpch)
        service = TuningService(namespace_statements=True)
        ok = service.tune(TuningRequest(workload=first, schema=tpch))
        renamed = service.tune(TuningRequest(workload=second, schema=tpch))
        isolated = Tuner().tune(TuningRequest(workload=second, schema=tpch))
        # Renaming never changes the decision, only the statement labels.
        assert renamed.configuration == isolated.configuration
        assert renamed.objective_estimate == isolated.objective_estimate
        assert renamed.provenance["pipeline"]["namespaced"] is True
        assert ok.provenance["pipeline"]["namespaced"] is False
        names = [c.statement for c in renamed.statement_costs]
        assert all("@" in name for name in names)
        assert service.stats()["namespaced_requests"] == 1

    def test_namespaced_names_are_content_addressed(self, tpch):
        """The qualifier depends only on the workload's content, so repeats
        resolve to the same canonical workload (tensor cache hits) and the
        rename is independent of request interleaving."""
        first, second = self._colliding_workloads(tpch)
        service = TuningService(namespace_statements=True)
        service.tune(TuningRequest(workload=first, schema=tpch))
        one = service.tune(TuningRequest(workload=second, schema=tpch))
        context = service.context_for(tpch)
        workloads_before = context.canonical_workload_count
        two = service.tune(TuningRequest(workload=second, schema=tpch))
        assert [c.statement for c in one.statement_costs] == \
            [c.statement for c in two.statement_costs]
        assert context.canonical_workload_count == workloads_before
        assert two.configuration == one.configuration

    def test_name_referencing_constraints_follow_the_rename(self, tpch):
        """Constraints targeting statements by name (query-cost, speedup
        generators) must be rewritten alongside the workload, or they would
        silently stop matching the renamed statements."""
        from repro.core.constraints import (
            QueryCostConstraint,
            QuerySpeedupGenerator,
        )

        first, second = self._colliding_workloads(tpch)
        target = second.statements[0].query
        constraints = [
            QueryCostConstraint(target, reference_cost=1e9, factor=1.0),
            QuerySpeedupGenerator(reference_costs={target.name: 1e9},
                                  factor=1.0),
        ]
        isolated = Tuner().tune(TuningRequest(
            workload=second, schema=tpch, constraints=constraints))

        service = TuningService(namespace_statements=True)
        service.tune(TuningRequest(workload=first, schema=tpch))
        renamed = service.tune(TuningRequest(
            workload=second, schema=tpch, constraints=constraints))
        # The constraints applied (no ConstraintError, no silent drop) and
        # the decision matches the isolated run with the same constraints.
        assert renamed.configuration == isolated.configuration
        assert renamed.objective_estimate == isolated.objective_estimate

    def test_default_service_still_rejects_loudly(self, tpch):
        from repro.exceptions import WorkloadError

        first, second = self._colliding_workloads(tpch)
        service = TuningService()
        service.tune(TuningRequest(workload=first, schema=tpch))
        with pytest.raises(WorkloadError, match="structurally different"):
            service.tune(TuningRequest(workload=second, schema=tpch))

    def test_intra_workload_collisions_stay_loud(self, tpch):
        """Two same-named, structurally different statements in ONE request
        would receive the same qualifier — namespacing cannot split them, so
        admission still rejects."""
        from repro.exceptions import WorkloadError
        from repro.workload import parse_statement
        from repro.workload.workload import Workload

        clashing = Workload([
            parse_statement(
                "SELECT o_totalprice FROM orders WHERE o_orderdate < 700",
                schema=tpch, name="dup"),
            parse_statement(
                "SELECT l_extendedprice FROM lineitem WHERE l_shipdate < 10",
                schema=tpch, name="dup"),
        ])
        service = TuningService(namespace_statements=True)
        with pytest.raises(WorkloadError, match="dup"):
            service.tune(TuningRequest(workload=clashing, schema=tpch))


class TestServiceSessions:
    def test_session_add_and_remove_candidates(self, simple_schema,
                                               simple_workload):
        from repro.indexes.index import Index

        service = TuningService()
        session = service.open_session(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[_budget(simple_schema)]))
        session.recommend()
        extra = Index("items", ("i_shipdate",), include_columns=("i_price",))
        session.add_candidates([extra])
        assert extra in session.candidates
        shrunk = session.remove_candidates([extra])
        assert extra not in shrunk.configuration
        assert extra not in session.candidates
        assert session.last_result is shrunk

    def test_candidate_memo_never_leaks_session_edits(self, simple_schema,
                                                      simple_workload):
        """The context keeps the generated candidates per workload; a
        session's add/remove edits its own copy, never the kept tuple."""
        from dataclasses import replace

        from repro.indexes.candidate_generation import CandidateGenerator
        from repro.indexes.index import Index

        generated = CandidateGenerator(simple_schema).generate(
            simple_workload).indexes
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                constraints=[_budget(simple_schema, 0.5)])
        service = TuningService()
        service.tune(request)
        session = service.open_session(request)
        session.recommend()
        extra = Index("items", ("i_quantity", "i_product"))
        assert extra not in generated
        session.add_candidates([extra])
        session.remove_candidates(generated[:2])
        assert extra in session.candidates
        assert len(session.candidates) == len(generated) - 1

        plain = service.tune(request)
        fresh = Tuner().tune(request)
        assert plain.diagnostics.candidate_count == len(generated)
        assert plain.configuration == fresh.configuration
        assert plain.objective_estimate == fresh.objective_estimate

        dba = Index("orders", ("o_total",), include_columns=("o_date",))
        assert dba not in generated
        with_dba = replace(request, dba_indexes=(dba,))
        served = service.tune(with_dba)
        fresh = Tuner().tune(with_dba)
        assert served.diagnostics.candidate_count == len(generated) + 1
        assert served.configuration == fresh.configuration
        assert served.objective_estimate == fresh.objective_estimate
        context, = service.tuner.contexts
        assert context.candidate_generator.generate(
            simple_workload, dba_indexes=(dba,)).indexes \
            == (*generated, dba)

    def test_a_session_leaves_the_callers_candidates_alone(
            self, simple_schema, simple_workload):
        """A request's own CandidateSet is the session's starting point, not
        its storage: retracting and adding candidates edits a copy."""
        from repro.indexes.candidate_generation import (
            CandidateGenerator,
            CandidateSet,
        )
        from repro.indexes.index import Index

        theirs = CandidateSet(simple_schema, CandidateGenerator(
            simple_schema).generate(simple_workload))
        before = theirs.indexes
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema, candidates=theirs,
                                constraints=[_budget(simple_schema, 0.5)])
        service = TuningService()
        fingerprint = service.tune(request).fingerprint()
        session = service.open_session(request)
        session.recommend()
        session.remove_candidates(before[:2])
        extra = Index("items", ("i_quantity", "i_product"))
        assert extra not in before
        session.add_candidates([extra])
        assert len(session.candidates) == len(before) - 1
        assert theirs.indexes == before
        assert service.tune(request).fingerprint() == fingerprint

    def test_a_step_counts_only_its_own_whatif_calls(self, simple_schema,
                                                     simple_workload):
        """A step on a context that served a DTA request fingerprints like the
        same step on a fresh context: it reports the what-if calls it made,
        not the shared optimizer's running total."""
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                constraints=[_budget(simple_schema)])
        extra_cap = [_budget(simple_schema), IndexCountConstraint(limit=2)]

        def steps(service):
            session = service.open_session(request)
            assert isinstance(session, TuningSession)
            results = [session.recommend(),
                       session.update_constraints(extra_cap)]
            assert session.history == tuple(results)
            assert session.last_result is results[-1]
            return results

        fresh = steps(TuningService())
        busy = TuningService()
        dta = busy.tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[_budget(simple_schema)], advisor="dta"))
        assert dta.diagnostics.whatif_calls > 0
        assert [step.fingerprint() for step in steps(busy)] == \
            [step.fingerprint() for step in fresh]
        assert fresh[1].diagnostics.whatif_calls == 0
        assert [step.provenance["session"] for step in fresh] == [
            {"step": 1, "operation": "recommend"},
            {"step": 2, "operation": "update_constraints"}]
        assert fresh[1].provenance["advisor"] == {
            "name": "cophy", "class": "InteractiveTuningSession"}

    def test_sessions_reject_soft_constraints(self, simple_schema,
                                              simple_workload):
        """A step returns one configuration, never a Pareto curve, so a soft
        constraint is refused, and the refused update leaves no step."""
        from repro.exceptions import ConstraintError

        soft = _budget(simple_schema, 0.5).soft()
        service = TuningService()
        with pytest.raises(ConstraintError, match="soft"):
            service.open_session(TuningRequest(
                workload=simple_workload, schema=simple_schema,
                constraints=[_budget(simple_schema), soft]))
        session = service.open_session(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[_budget(simple_schema)]))
        first = session.recommend()
        with pytest.raises(ConstraintError, match="soft"):
            session.update_constraints([soft])
        assert session.history == (first,)
        again = session.update_constraints([_budget(simple_schema)])
        assert again.provenance["session"]["step"] == 2
        assert again.configuration == first.configuration

    def test_open_session_requires_cophy(self, simple_schema,
                                         simple_workload):
        service = TuningService()
        with pytest.raises(ValueError, match="cophy"):
            service.open_session(TuningRequest(
                workload=simple_workload, schema=simple_schema,
                advisor="dta"))

    @pytest.mark.parametrize("budget", [
        {"solve_tier": "heuristic"}, {"solve_tier": "cascade"},
        {"time_budget_ms": 0.001},
        {"time_budget_ms": 0.001, "solve_tier": "exact"}],
        ids=["heuristic", "cascade", "deadline", "deadline_exact"])
    def test_open_session_rejects_a_budget_it_cannot_keep(
            self, budget, simple_schema, simple_workload):
        """A session step is an exact solve without a deadline: a budgeted
        request used to open one and then silently run unbounded."""
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                advisor=AdvisorSpec("cophy", **budget))
        with pytest.raises(ValueError, match="without a deadline"):
            TuningService().open_session(request)

    def test_open_session_accepts_the_exact_tier(self, simple_schema,
                                                 simple_workload):
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                advisor=AdvisorSpec("cophy",
                                                    solve_tier="exact"))
        assert TuningService().open_session(request).recommend().configuration
