"""Tests for the reliability subsystem (PR 7).

Covers the fault-injection harness and retry policy in isolation, then the
three execution layers they are threaded through: the shard executor
(inline + process pool, worker kills, graceful degradation, budget-bounded
retries), the tuning service (admission control), and the HTTP server/client
(429 + Retry-After, typed connection errors, client-side backoff, graceful
shutdown).

The load-bearing guarantee: **a survived fault never changes the
recommendation, only the timing** — every recovery test asserts fingerprint
identity against a fault-free run.  All tests pass explicit plans (or arm
one via the context manager), so the suite is hermetic under the chaos CI
lane's ``REPRO_FAULT_PLAN``.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import AdvisorSpec, Tuner, TuningRequest, TuningService
from repro.core.constraints import StorageBudgetConstraint
from repro.exceptions import ServerOverloaded
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.inum.cache import InumCache
from repro.lp.budget import SolveBudget
from repro.optimizer.whatif import WhatIfOptimizer
from repro.reliability import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    RetryPolicy,
    armed,
    armed_plan,
)
from repro.reliability.faults import maybe_check
from repro.scale.executor import ShardExecutor, build_matrices_in_processes
from repro.scale.partition import partition_workload
from repro.server import TuningClient, TuningServer
from repro.server.protocol import TuningServerUnavailable
from repro.workload.workload import Workload

#: Retries in the fast tests should not sleep for real.
FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay_s=0.001,
                           cap_delay_s=0.01, seed=0)


def _budget(schema, fraction=1.0):
    return StorageBudgetConstraint.from_fraction_of_data(schema, fraction)


@pytest.fixture
def two_component_workload(simple_workload):
    """The point (orders) + range (items) statements: two disjoint shards."""
    return Workload(list(simple_workload)[:2], name="two-components")


def _scaleout_request(schema, workload, request_id, **options):
    options.setdefault("shard_workers", 1)
    options.setdefault("gap_tolerance", 0.0)
    return TuningRequest(
        workload=workload, schema=schema, constraints=[_budget(schema)],
        advisor=AdvisorSpec("scaleout", options), request_id=request_id)


def _merge_span(result):
    root = result.extras["trace"]["root"]
    return next(node for node in root["children"] if node["name"] == "merge")


# =========================================================== FaultPlan units
class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="site"):
            FaultRule(site="warp-core")
        with pytest.raises(ValueError, match="action"):
            FaultRule(site="solver", action="explode")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="solver", probability=1.5)

    def test_calls_filter_counts_per_site(self):
        plan = FaultPlan([FaultRule(site="shard_solve", calls=(2,))])
        plan.check("shard_solve")  # call 1: clean
        plan.check("solver")       # other site: independent counter
        with pytest.raises(InjectedFault):
            plan.check("shard_solve")  # call 2 fires
        plan.check("shard_solve")      # call 3: clean again
        assert plan.counters()["checks"] == {"shard_solve": 3, "solver": 1}
        assert plan.injected_total == 1

    def test_attempts_filter(self):
        plan = FaultPlan([FaultRule(site="shard_solve", attempts=(1,),
                                    calls=None)])
        with pytest.raises(InjectedFault):
            plan.check("shard_solve", attempt=1)
        plan.check("shard_solve", attempt=2)  # the retry survives

    def test_key_filter_is_exact(self):
        plan = FaultPlan([FaultRule(site="http_request", key="/v1/tune",
                                    attempts=None)])
        plan.check("http_request", key="/v1/sessions/s1/tune")
        with pytest.raises(InjectedFault):
            plan.check("http_request", key="/v1/tune")

    def test_latency_action_sleeps_and_proceeds(self):
        plan = FaultPlan([FaultRule(site="solver", action="latency",
                                    latency_s=0.05)])
        started = time.perf_counter()
        plan.check("solver")  # no raise
        assert time.perf_counter() - started >= 0.05
        assert plan.injected_total == 1

    def test_kill_outside_worker_degrades_to_raise(self):
        plan = FaultPlan([FaultRule(site="shard_solve", action="kill")])
        with pytest.raises(InjectedFault):
            plan.check("shard_solve", in_worker=False)

    def test_json_round_trip(self):
        plan = FaultPlan([FaultRule(site="shard_solve", action="kill",
                                    key="0", calls=(1, 3), attempts=None),
                          FaultRule(site="http_request", latency_s=0.5,
                                    action="latency", probability=0.25)],
                         seed=42)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.rules == plan.rules
        assert clone.seed == plan.seed

    def test_pickle_resets_per_process_counters(self):
        plan = FaultPlan([FaultRule(site="shard_solve", calls=(1,))])
        with pytest.raises(InjectedFault):
            plan.check("shard_solve")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.counters() == {"checks": {}, "injected": {}}
        with pytest.raises(InjectedFault):
            clone.check("shard_solve")  # the clone's call 1 fires again

    def test_probability_is_seeded_and_reproducible(self):
        def pattern(seed):
            plan = FaultPlan([FaultRule(site="solver", probability=0.5,
                                        attempts=None)], seed=seed)
            fired = []
            for _ in range(30):
                try:
                    plan.check("solver")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        assert pattern(7) == pattern(7)
        assert 0 < sum(pattern(7)) < 30  # actually probabilistic
        assert pattern(7) != pattern(8)  # and actually seeded

    def test_armed_precedence_and_restoration(self, monkeypatch):
        import repro.reliability.faults as faults

        env_plan = FaultPlan([FaultRule(site="solver")], seed=1)
        monkeypatch.setenv(faults.ENV_VAR, env_plan.to_json())
        monkeypatch.setattr(faults, "_env_read", False)
        monkeypatch.setattr(faults, "_env_plan", None)
        assert armed_plan().rules == env_plan.rules  # env plan reachable
        explicit = FaultPlan(seed=2)
        with armed(explicit):
            assert armed_plan() is explicit  # explicit beats env
            mask = FaultPlan()
            with armed(mask):
                # An empty armed plan masks the env plan (hermetic tests).
                assert armed_plan() is mask
            assert armed_plan() is explicit
        assert armed_plan().rules == env_plan.rules

    def test_maybe_check_tolerates_no_plan(self):
        maybe_check(None, "solver")  # no-op, no raise


# ========================================================== RetryPolicy units
class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        attempts = []

        def flaky(attempt):
            attempts.append(attempt)
            if attempt < 3:
                raise InjectedFault("transient")
            return "ok"

        assert FAST_RETRIES.call(flaky) == "ok"
        assert attempts == [1, 2, 3]

    def test_non_retryable_raises_immediately(self):
        attempts = []

        def broken(attempt):
            attempts.append(attempt)
            raise ValueError("a bug, not a fault")

        with pytest.raises(ValueError):
            FAST_RETRIES.call(broken)
        assert attempts == [1]

    def test_exhaustion_reraises_the_last_error(self):
        attempts = []

        def hopeless(attempt):
            attempts.append(attempt)
            raise InjectedFault(f"attempt {attempt}")

        with pytest.raises(InjectedFault, match="attempt 3"):
            FAST_RETRIES.call(hopeless)
        assert attempts == [1, 2, 3]

    def test_seeded_delays_are_deterministic(self):
        def delays(policy):
            observed = []
            with pytest.raises(InjectedFault):
                policy.call(lambda attempt: (_ for _ in ()).throw(
                    InjectedFault()),
                    on_retry=lambda a, e, d: observed.append(d))
            return observed

        policy = RetryPolicy(max_attempts=4, base_delay_s=0.001, seed=11)
        assert delays(policy) == delays(policy)

    def test_delay_cap_and_growth(self):
        policy = RetryPolicy(max_attempts=9, base_delay_s=0.1, cap_delay_s=0.4,
                             multiplier=2.0, jitter=0.0)
        assert policy.backoff_delay(1) == pytest.approx(0.1)
        assert policy.backoff_delay(2) == pytest.approx(0.2)
        assert policy.backoff_delay(8) == pytest.approx(0.4)  # capped

    def test_budget_stops_retries(self):
        budget = SolveBudget(time_budget_ms=50).start()
        policy = RetryPolicy(max_attempts=10, base_delay_s=0.2, jitter=0.0)
        attempts = []

        def hopeless(attempt):
            attempts.append(attempt)
            raise InjectedFault()

        started = time.perf_counter()
        with pytest.raises(InjectedFault):
            policy.call(hopeless, budget=budget)
        # The 0.2 s backoff does not fit the 50 ms budget: no retry taken.
        assert attempts == [1]
        assert time.perf_counter() - started < 0.2

    def test_retry_after_floors_the_delay(self):
        observed = []

        def overloaded(attempt):
            if attempt == 1:
                raise ServerOverloaded(retry_after_s=0.05)
            return "ok"

        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0001, jitter=0.0)
        assert policy.call(overloaded, retryable=lambda exc: True,
                           on_retry=lambda a, e, d: observed.append(d)) == "ok"
        assert observed and observed[0] >= 0.05


# ================================================== executor fault tolerance
class TestExecutorFaultTolerance:
    def _partition(self, schema, workload):
        candidates = CandidateGenerator(schema).generate(workload)
        return partition_workload(workload, candidates)

    def test_inline_crash_is_retried_with_identical_results(
            self, simple_schema, two_component_workload):
        plan = self._partition(simple_schema, two_component_workload)
        clean = ShardExecutor(workers=1, gap_tolerance=0.0).solve_shards(
            plan, simple_schema,
            inum=InumCache(WhatIfOptimizer(simple_schema)))
        faults = FaultPlan([FaultRule(site="shard_solve", key="0",
                                      attempts=(1,))])
        recovered = ShardExecutor(
            workers=1, gap_tolerance=0.0, retry_policy=FAST_RETRIES,
            fault_plan=faults).solve_shards(
            plan, simple_schema,
            inum=InumCache(WhatIfOptimizer(simple_schema)))
        assert [r.indexes for r in recovered] == [r.indexes for r in clean]
        assert [r.objective for r in recovered] == [
            r.objective for r in clean]
        assert recovered[0].retries == 1
        assert recovered[0].faults_survived == 1
        assert not any(r.failed for r in recovered)
        assert recovered[1].retries == 0  # the other shard never failed

    def test_exhausted_retries_degrade_instead_of_raising(
            self, simple_schema, two_component_workload):
        plan = self._partition(simple_schema, two_component_workload)
        faults = FaultPlan([FaultRule(site="shard_solve", key="0",
                                      attempts=None)])  # every attempt fails
        results = ShardExecutor(
            workers=1, gap_tolerance=0.0, retry_policy=FAST_RETRIES,
            fault_plan=faults).solve_shards(
            plan, simple_schema,
            inum=InumCache(WhatIfOptimizer(simple_schema)))
        assert results[0].failed
        assert results[0].indexes == ()
        assert "InjectedFault" in results[0].failure
        assert not results[1].failed and results[1].indexes

    def test_degrade_false_raises_after_exhaustion(self, simple_schema,
                                                   two_component_workload):
        plan = self._partition(simple_schema, two_component_workload)
        faults = FaultPlan([FaultRule(site="shard_solve", key="0",
                                      attempts=None)])
        with pytest.raises(InjectedFault):
            ShardExecutor(workers=1, gap_tolerance=0.0,
                          retry_policy=FAST_RETRIES, fault_plan=faults,
                          degrade=False).solve_shards(
                plan, simple_schema,
                inum=InumCache(WhatIfOptimizer(simple_schema)))

    def test_budget_bounds_recovery_time(self, simple_schema,
                                         two_component_workload):
        plan = self._partition(simple_schema, two_component_workload)
        faults = FaultPlan([FaultRule(site="shard_solve", attempts=None)])
        policy = RetryPolicy(max_attempts=10, base_delay_s=0.2, jitter=0.0)
        budget = SolveBudget(time_budget_ms=150).start()
        started = time.perf_counter()
        results = ShardExecutor(
            workers=1, gap_tolerance=0.0, retry_policy=policy,
            fault_plan=faults).solve_shards(
            plan, simple_schema,
            inum=InumCache(WhatIfOptimizer(simple_schema)), budget=budget)
        elapsed = time.perf_counter() - started
        assert all(result.failed for result in results)
        # 9 allowed retries at >= 0.2 s each would take > 1.8 s per shard;
        # the budget cuts recovery off near its 150 ms deadline instead.
        assert elapsed < 1.5
        assert all(result.retries < 9 for result in results)

    @pytest.mark.slow
    def test_worker_kill_recovers_with_identical_results(
            self, simple_schema, two_component_workload):
        plan = self._partition(simple_schema, two_component_workload)
        clean = ShardExecutor(workers=2, gap_tolerance=0.0).solve_shards(
            plan, simple_schema,
            inum=InumCache(WhatIfOptimizer(simple_schema)))
        faults = FaultPlan([FaultRule(site="shard_solve", action="kill",
                                      key="0", attempts=(1,))])
        recovered = ShardExecutor(
            workers=2, gap_tolerance=0.0, retry_policy=FAST_RETRIES,
            fault_plan=faults).solve_shards(
            plan, simple_schema,
            inum=InumCache(WhatIfOptimizer(simple_schema)))
        assert [r.indexes for r in recovered] == [r.indexes for r in clean]
        assert not any(r.failed for r in recovered)
        assert sum(r.faults_survived for r in recovered) >= 1
        # Worker-side optimizer work is still fully accounted after recovery.
        assert (sum(r.worker_optimizer_calls for r in recovered)
                == sum(r.worker_optimizer_calls for r in clean))

    def test_matrix_build_faults_fall_back_to_local_build(self,
                                                          simple_schema,
                                                          simple_workload):
        faults = FaultPlan([FaultRule(site="matrix_build", attempts=None)])
        cache = InumCache(WhatIfOptimizer(simple_schema))
        shells = [statement.query.query_shell()
                  if hasattr(statement.query, "query_shell")
                  else statement.query for statement in simple_workload]
        built = build_matrices_in_processes(cache, shells, (), workers=2,
                                            retry_policy=FAST_RETRIES,
                                            fault_plan=faults)
        assert built == 0  # degraded: nothing adopted, nothing raised
        # The caller-side local build still works on the untouched cache.
        candidates = CandidateGenerator(simple_schema).generate(
            simple_workload)
        cache.prepare(simple_workload, candidates)
        assert cache.workload_cost(simple_workload, Configuration(())) > 0


# ================================================ end-to-end through the API
class TestTunerFaultTolerance:
    def test_recovered_run_fingerprints_identical_to_clean_run(
            self, simple_schema, two_component_workload):
        request = _scaleout_request(simple_schema, two_component_workload,
                                    "recovery-parity")
        with armed(FaultPlan()):
            clean = Tuner().tune(request)
        faults = FaultPlan([FaultRule(site="shard_solve", key="0",
                                      attempts=(1,))])
        faulty = Tuner(fault_plan=faults).tune(request)
        assert faulty.fingerprint() == clean.fingerprint()
        assert faulty.diagnostics.retries >= 1
        assert faulty.diagnostics.faults_survived >= 1
        assert not faulty.diagnostics.degraded
        assert clean.diagnostics.retries == 0

    def test_exhaustion_degrades_to_surviving_shards(
            self, simple_schema, two_component_workload):
        faults = FaultPlan([FaultRule(site="shard_solve", key="0",
                                      attempts=None)])
        service = TuningService(tuner=Tuner(fault_plan=faults))
        result = service.tune(_scaleout_request(
            simple_schema, two_component_workload, "degraded-run",
            retry_policy=FAST_RETRIES))
        # Shard 0 (the orders statement) is lost; the recommendation is
        # merged over the surviving items shard instead of raising.
        assert result.diagnostics.degraded
        assert result.configuration
        assert all(index.table == "items" for index in result.configuration)
        assert result.extras["faults"]["failed_shards"] == [0]
        stats = service.stats()
        assert stats["degraded_results"] == 1
        assert stats["retries"] >= 2
        assert stats["faults_injected"] >= 3

    def test_degraded_runs_fingerprint_differently(self, simple_schema,
                                                   two_component_workload):
        request = _scaleout_request(simple_schema, two_component_workload,
                                    "degraded-fp", retry_policy=FAST_RETRIES)
        with armed(FaultPlan()):
            clean = Tuner().tune(request)
        faults = FaultPlan([FaultRule(site="shard_solve", key="0",
                                      attempts=None)])
        degraded = Tuner(fault_plan=faults).tune(request)
        # Unlike retries (timing detail), degradation changes the result:
        # it must never masquerade as the complete recommendation.
        assert degraded.fingerprint() != clean.fingerprint()

    def test_pool_shard_lost_on_every_attempt_is_built_by_the_merge(
            self, simple_schema, two_component_workload):
        # Shard 0 fails in the pool and in the inline fallback, so no worker
        # ever returns its templates: the merge enumerates exactly those
        # shells on the parent cache and the outcome matches the inline
        # executor's degraded run.
        faults = FaultPlan([FaultRule(site="shard_solve", key="0",
                                      attempts=None)])
        results = {}
        for workers in (1, 2):
            results[workers] = Tuner(fault_plan=faults).tune(
                _scaleout_request(simple_schema, two_component_workload,
                                  "degraded-pool", shard_workers=workers,
                                  retry_policy=FAST_RETRIES))
        pooled, inline = results[2], results[1]
        assert pooled.diagnostics.degraded
        assert pooled.extras["faults"]["failed_shards"] == [0]
        assert pooled.configuration == inline.configuration
        assert pooled.objective_estimate == inline.objective_estimate
        assert (pooled.diagnostics.whatif_calls
                == inline.diagnostics.whatif_calls)
        merge = _merge_span(pooled)
        assert merge["attrs"]["adopted"] == 1  # the surviving items shard
        assert merge["attrs"]["template_builds"] > 0
        # Inline, the lost shard's shells are likewise left to the merge.
        assert (_merge_span(inline)["attrs"]["template_builds"]
                == merge["attrs"]["template_builds"])

    def test_first_attempt_worker_kill_fingerprints_like_a_clean_pool_run(
            self, simple_schema, two_component_workload):
        # The chaos lane's shard rule, armed explicitly: every first attempt
        # kills its worker (BrokenProcessPool), the retry returns the built
        # entries, and the merge adopts them exactly as on a clean run.
        request = _scaleout_request(simple_schema, two_component_workload,
                                    "kill-parity", shard_workers=2,
                                    retry_policy=FAST_RETRIES)
        clean = Tuner(fault_plan=FaultPlan()).tune(request)
        faults = FaultPlan([FaultRule(site="shard_solve", action="kill",
                                      attempts=(1,))])
        recovered = Tuner(fault_plan=faults).tune(request)
        assert recovered.fingerprint() == clean.fingerprint()
        assert recovered.diagnostics.faults_survived >= 1
        assert not recovered.diagnostics.degraded
        assert (_merge_span(recovered)["attrs"]["adopted"]
                == _merge_span(clean)["attrs"]["adopted"] == 2)
        assert _merge_span(recovered)["attrs"]["template_builds"] == 0

    def test_solver_site_faults_surface_to_the_caller(self, simple_schema,
                                                      simple_workload):
        faults = FaultPlan([FaultRule(site="solver")])
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                constraints=[_budget(simple_schema)])
        with pytest.raises(InjectedFault):
            Tuner(fault_plan=faults).tune(request)


# ========================================================= admission control
class TestAdmissionControl:
    def test_full_service_rejects_with_retry_hint(self, simple_schema,
                                                  simple_workload):
        service = TuningService(max_pending=0, retry_after_s=2.5)
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                constraints=[_budget(simple_schema)])
        with pytest.raises(ServerOverloaded) as info:
            service.tune(request)
        assert info.value.retry_after_s == 2.5
        stats = service.stats()
        assert stats["rejected_overload"] == 1
        assert stats["pending"] == 0  # no slot leaked
        assert stats["requests_served"] == 0

    def test_slots_are_released_after_each_request(self, simple_schema,
                                                   simple_workload):
        with TuningService(max_pending=1) as service:
            request = TuningRequest(workload=simple_workload,
                                    schema=simple_schema,
                                    constraints=[_budget(simple_schema)])
            first = service.tune(request)
            second = service.tune(request)  # the slot came back
            assert first.configuration == second.configuration
            assert first.objective_estimate == second.objective_estimate
            assert service.pending == 0

    def test_server_answers_429_with_retry_after_header(self, simple_schema,
                                                        simple_workload):
        from repro.server.wire import encode_request

        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                constraints=[_budget(simple_schema)])
        with TuningServer(max_pending=0, retry_after_s=1.0) as server:
            raw = urllib.request.Request(
                f"{server.url}/v1/tune",
                data=json.dumps(encode_request(request)).encode(),
                headers={"Content-Type": "application/json"}, method="POST")
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(raw, timeout=10)
            assert info.value.code == 429
            assert info.value.headers["Retry-After"] == "1"
            envelope = json.loads(info.value.read())
            assert envelope["error"]["type"] == "ServerOverloaded"
            assert envelope["error"]["retry_after_s"] == 1.0

    def test_client_rejection_is_typed_with_retry_hint(self, simple_schema,
                                                       simple_workload):
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                constraints=[_budget(simple_schema)])
        with TuningServer(max_pending=0, retry_after_s=0.5) as server:
            client = TuningClient(server.url, retry_policy=None,
                                  fault_plan=FaultPlan())
            with pytest.raises(ServerOverloaded) as info:
                client.tune(request)
        assert info.value.retry_after_s == 0.5

    def test_client_backoff_outlives_transient_overload(self, simple_schema,
                                                        simple_workload):
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                constraints=[_budget(simple_schema)])
        with TuningServer(max_pending=0, retry_after_s=0.2) as server:
            # The overload clears while the client is backing off.
            timer = threading.Timer(
                0.3, lambda: setattr(server.service, "max_pending", None))
            timer.start()
            try:
                client = TuningClient(
                    server.url, fault_plan=FaultPlan(),
                    retry_policy=RetryPolicy(max_attempts=5,
                                             base_delay_s=0.05, seed=3))
                result = client.tune(request)
            finally:
                timer.cancel()
            assert result.configuration
            assert server.service.stats()["rejected_overload"] >= 1
            assert server.service.stats()["requests_served"] == 1


# ================================================================ client SDK
class TestClientResilience:
    def test_unreachable_server_raises_typed_error(self):
        client = TuningClient("http://127.0.0.1:9", timeout=2,
                              retry_policy=None, fault_plan=FaultPlan())
        with pytest.raises(TuningServerUnavailable) as info:
            client.health()
        assert info.value.status == 0
        assert info.value.error_type == "ServerUnavailable"

    def test_transient_5xx_is_retried(self, simple_schema):
        with TuningServer() as server:
            calls = {"health": 0}
            original = server.handle_health

            def flaky_health():
                calls["health"] += 1
                if calls["health"] == 1:
                    raise RuntimeError("transient server bug")
                return original()

            server.handle_health = flaky_health  # type: ignore[method-assign]
            client = TuningClient(server.url, fault_plan=FaultPlan(),
                                  retry_policy=FAST_RETRIES)
            assert client.health()["status"] == "ok"
        assert calls["health"] == 2

    def test_injected_transport_faults_are_transparent(self, simple_schema,
                                                       simple_workload):
        faults = FaultPlan([FaultRule(site="http_request", key="/v1/tune",
                                      attempts=(1,))])
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                constraints=[_budget(simple_schema)])
        with TuningServer() as server:
            clean = TuningClient(server.url, fault_plan=FaultPlan()).tune(
                request)
            retried = TuningClient(server.url, fault_plan=faults,
                                   retry_policy=FAST_RETRIES).tune(request)
        # Same server, warm cache: call-count diagnostics legitimately
        # differ, the decision must not.
        assert retried.configuration == clean.configuration
        assert retried.objective_estimate == clean.objective_estimate

    def test_non_idempotent_calls_are_never_retried(self, simple_schema,
                                                    simple_workload):
        faults = FaultPlan([FaultRule(site="http_request", key="/v1/sessions",
                                      attempts=None)])
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                constraints=[_budget(simple_schema)])
        with TuningServer() as server:
            client = TuningClient(server.url, fault_plan=faults,
                                  retry_policy=FAST_RETRIES)
            with pytest.raises(InjectedFault):
                client.open_session(request)
        # Exactly one check: the fault was not swallowed by a retry loop.
        assert faults.counters()["checks"]["http_request"] == 1


# ========================================================= graceful shutdown
class TestGracefulShutdown:
    def test_stop_drains_inflight_requests(self, simple_schema,
                                           simple_workload):
        slow = FaultPlan([FaultRule(site="solver", action="latency",
                                    latency_s=0.5)])
        request = TuningRequest(workload=simple_workload,
                                schema=simple_schema,
                                constraints=[_budget(simple_schema)])
        server = TuningServer(service=TuningService(
            tuner=Tuner(fault_plan=slow)), drain_timeout_s=10.0)
        server.start()
        client = TuningClient(server.url, retry_policy=None,
                              fault_plan=FaultPlan())
        outcome = {}

        def tune_slowly():
            try:
                outcome["result"] = client.tune(request)
            except Exception as exc:  # pragma: no cover - failure diagnostics
                outcome["error"] = exc

        worker = threading.Thread(target=tune_slowly)
        worker.start()
        deadline = time.monotonic() + 5
        while server.inflight_requests == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server.inflight_requests == 1
        server.stop()  # must wait for the in-flight solve, then close
        worker.join(timeout=10)
        assert "error" not in outcome
        assert outcome["result"].configuration is not None
        assert server.inflight_requests == 0
        # The listener is gone: new requests fail as unreachable.
        with pytest.raises(TuningServerUnavailable):
            client.health()

    def test_stop_is_idempotent_and_reentrant_safe(self):
        server = TuningServer().start()
        server.stop()
        server.stop()  # second call is a no-op

    def test_signal_handler_stops_the_server(self):
        import signal

        from repro.server.app import install_signal_handlers

        previous_term = signal.getsignal(signal.SIGTERM)
        previous_int = signal.getsignal(signal.SIGINT)
        server = TuningServer().start()
        try:
            install_signal_handlers(server)
            handler = signal.getsignal(signal.SIGTERM)
            assert callable(handler)
            handler(signal.SIGTERM, None)  # what the kernel would invoke
            deadline = time.monotonic() + 5
            while server._serving and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._serving
        finally:
            server.stop()
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)


# ==================================================================== stats
class TestStatsCounters:
    def test_stats_exposes_reliability_counters(self):
        service = TuningService()
        stats = service.stats()
        for key in ("pending", "max_pending", "rejected_overload", "retries",
                    "degraded_results", "faults_injected"):
            assert key in stats

    def test_server_stats_surface_service_counters(self, simple_schema,
                                                   simple_workload):
        with TuningServer() as server:
            client = TuningClient(server.url, retry_policy=None,
                                  fault_plan=FaultPlan())
            stats = client.stats()
        service_stats = stats["service"]
        assert service_stats["rejected_overload"] == 0
        assert service_stats["retries"] == 0
        assert service_stats["degraded_results"] == 0
