"""Anytime tuning tests: ``SolveBudget`` end to end.

Three guarantees are pinned here:

* **No-budget parity** — a request without budget fields takes exactly the
  pre-anytime code path: every advisor's ``fingerprint()`` is deterministic
  run to run, and budget-less payloads still encode as wire version 1.
* **Graceful degradation** — an (absurdly) tight budget never breaks a
  request: every advisor still returns a *feasible* configuration, flagged
  ``timed_out=True`` with a finite optimality gap.
* **The budget travels** — through the wire codecs (version 2), the server's
  default/clamp policy, the per-session TTL reaper and the client SDK's
  derived socket timeouts.
"""

from __future__ import annotations

import math
import random
import socket
import time

import pytest

from repro.api import AdvisorSpec, Tuner, TuningRequest, TuningService
from repro.api.registry import make_advisor
from repro.core.constraints import (
    ClusteredIndexConstraint,
    ComparisonSense,
    IndexCountConstraint,
    IndexWidthConstraint,
    StorageBudgetConstraint,
)
from repro.core.heuristics import greedy_knapsack, unsupported_constraint
from repro.exceptions import ConstraintError
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.inum.probe import ConfigurationProbe
from repro.lp import SOLVE_TIERS, SolveBudget
from repro.lp.branch_and_bound import BranchAndBoundSolver
from repro.lp.expression import LinearExpression
from repro.lp.model import Model, ObjectiveSense
from repro.lp.solution import SolutionStatus
from repro.optimizer.whatif import WhatIfOptimizer
from repro.server import (
    TuningClient,
    TuningClientTimeout,
    TuningServer,
    TuningServerError,
    WireFormatError,
    decode_request,
    encode_request,
)
from repro.workload.generators import (
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
)
from repro.workload.workload import Workload, WorkloadStatement

from tests.conftest import reference_greedy_knapsack


def _storage(schema, fraction=1.0):
    return StorageBudgetConstraint.from_fraction_of_data(schema, fraction)


def _request(schema, workload, **kwargs):
    kwargs.setdefault("constraints", [_storage(schema)])
    return TuningRequest(workload=workload, schema=schema, **kwargs)


def _expired_budget(**kwargs) -> SolveBudget:
    """A started budget whose deadline has certainly passed."""
    budget = SolveBudget(time_budget_ms=0.001, **kwargs).start()
    time.sleep(0.002)
    assert budget.expired()
    return budget


#: Every registered (canonical) advisor; scale-out runs inline so tests
#: share no process-pool state.
ADVISORS = [("cophy", {}), ("ilp", {}), ("dta", {}), ("relaxation", {}),
            ("scaleout", {"shard_workers": 1})]


# =========================================================== the budget object
class TestSolveBudget:
    def test_from_spec_unbudgeted_is_none(self):
        assert SolveBudget.from_spec(None, None) is None

    def test_from_spec_deadline_defaults_to_cascade(self):
        budget = SolveBudget.from_spec(250.0, None)
        assert budget.tier == "cascade"
        assert budget.time_budget_ms == 250.0

    def test_from_spec_tier_without_deadline(self):
        budget = SolveBudget.from_spec(None, "heuristic")
        assert budget.tier == "heuristic"
        assert budget.time_budget_ms is None
        assert budget.remaining_seconds() is None
        assert not budget.expired()

    def test_invalid_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            SolveBudget(tier="quantum")
        assert set(SOLVE_TIERS) == {"heuristic", "cascade", "exact"}

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("inf"), float("nan")])
    def test_nonpositive_deadline_rejected(self, bad):
        with pytest.raises(ValueError, match="time_budget_ms"):
            SolveBudget(time_budget_ms=bad)

    def test_clock_anchors_once(self):
        budget = SolveBudget(time_budget_ms=10_000.0)
        assert not budget.started
        assert budget.remaining_seconds() == pytest.approx(10.0)
        budget.start()
        first_deadline = budget._deadline
        budget.start()  # idempotent: re-entering a stage must not extend it
        assert budget._deadline == first_deadline
        assert 0.0 < budget.remaining_seconds() <= 10.0

    def test_expiry_and_floor_at_zero(self):
        budget = _expired_budget()
        assert budget.remaining_seconds() == 0.0

    def test_clamp_time_limit_merges_by_min(self):
        assert SolveBudget().clamp_time_limit(5.0) == 5.0
        budget = SolveBudget(time_budget_ms=1_000.0).start()
        assert budget.clamp_time_limit(None) <= 1.0
        assert budget.clamp_time_limit(0.1) <= 0.1
        assert budget.clamp_time_limit(100.0) <= 1.0

    def test_shard_slice_reserves_merge_time(self):
        assert SolveBudget().shard_slice_seconds(4) is None
        budget = SolveBudget(time_budget_ms=8_000.0)
        # 4 shards on 2 workers = 2 sequential waves; 25% held back for the
        # merge BIP, so each wave gets at most 8s * 0.75 / 2 = 3s.
        slice_s = budget.shard_slice_seconds(4, workers=2)
        assert slice_s == pytest.approx(3.0, rel=0.01)
        everything = budget.shard_slice_seconds(1, workers=1, merge_reserve=0.0)
        assert everything == pytest.approx(8.0, rel=0.01)


# ==================================================== branch and bound anytime
def _knapsack(values, weights, capacity):
    model = Model("knapsack", sense=ObjectiveSense.MAXIMIZE)
    variables = [model.add_binary(f"x{i}") for i in range(len(values))]
    model.set_objective(LinearExpression.sum_of(variables, values))
    model.add_constraint(
        LinearExpression.sum_of(variables, weights) <= capacity,
        name="capacity")
    return model, variables


class TestBranchAndBoundAnytime:
    def test_expired_deadline_returns_warm_start_with_finite_gap(self):
        model, variables = _knapsack([6, 5, 4, 3], [4, 3, 2, 1], 6)
        warm = {variables[3]: 1.0}  # feasible but far from optimal
        solution = BranchAndBoundSolver().solve(
            model, warm_start=warm, budget=_expired_budget())
        assert solution.timed_out
        assert solution.status is SolutionStatus.FEASIBLE
        assert solution.objective == pytest.approx(3.0)
        # The root LP seeds the bound, so the gap is finite (closed-form)
        # even though zero nodes were explored.
        assert math.isfinite(solution.gap) and solution.gap > 0.0
        assert solution.nodes_explored == 0

    def test_expired_deadline_without_incumbent_reports_timeout(self):
        model, _ = _knapsack([6, 5], [4, 3], 6)
        solution = BranchAndBoundSolver().solve(model,
                                                budget=_expired_budget())
        assert solution.timed_out
        assert solution.status is SolutionStatus.ERROR

    def test_budget_node_limit_caps_exploration(self):
        model, _ = _knapsack([6, 5, 4, 3, 2], [4, 3, 2, 1, 2], 6)
        solution = BranchAndBoundSolver().solve(
            model, budget=SolveBudget(node_limit=1))
        assert solution.nodes_explored <= 1
        assert not solution.timed_out  # node limits are not wall-clock expiry

    def test_unbudgeted_solve_is_untouched(self):
        model, _ = _knapsack([6, 5, 4, 3], [4, 3, 2, 1], 6)
        solution = BranchAndBoundSolver().solve(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(12.0)  # items 2+3+4
        assert not solution.timed_out


# ========================================================= the greedy heuristic
class TestGreedyKnapsack:
    def _parts(self, simple_schema, simple_workload, simple_candidates):
        advisor = make_advisor("cophy", simple_schema)
        return advisor.inum, simple_workload, simple_candidates

    def test_respects_storage_budget_and_improves_cost(
            self, simple_schema, simple_workload, simple_candidates):
        inum, workload, candidates = self._parts(
            simple_schema, simple_workload, simple_candidates)
        limit = _storage(simple_schema, 0.5)
        result = greedy_knapsack(inum, workload, candidates, [limit])
        assert not result.timed_out
        used = sum(candidates.size_of(index)
                   for index in result.configuration)
        assert used <= limit.budget_bytes + 1e-6
        base_cost = inum.workload_cost(
            workload, type(result.configuration)(()))
        assert result.objective <= base_cost + 1e-9
        assert result.objective >= result.lower_bound - 1e-9
        assert math.isfinite(result.gap)

    def test_expired_budget_returns_feasible_with_finite_gap(
            self, simple_schema, simple_workload, simple_candidates):
        inum, workload, candidates = self._parts(
            simple_schema, simple_workload, simple_candidates)
        result = greedy_knapsack(inum, workload, candidates,
                                 [_storage(simple_schema)],
                                 budget=_expired_budget(tier="heuristic"))
        assert result.timed_out
        assert math.isfinite(result.gap)
        assert len(result.configuration) == 0  # interrupted before any pick

    def test_unsupported_constraints_are_detected_and_rejected(
            self, simple_schema, simple_workload, simple_candidates):
        inum, workload, candidates = self._parts(
            simple_schema, simple_workload, simple_candidates)
        at_least = IndexCountConstraint(limit=1,
                                        sense=ComparisonSense.AT_LEAST)
        assert unsupported_constraint([at_least]) is at_least
        assert unsupported_constraint(
            [_storage(simple_schema), IndexCountConstraint(limit=3)]) is None
        with pytest.raises(ConstraintError, match="heuristic"):
            greedy_knapsack(inum, workload, candidates, [at_least])


def _constraint_sets(schema, candidates):
    """Every constraint class the greedy honours, alone and combined."""
    tables = sorted({index.table for index in candidates})
    return [
        [_storage(schema, 0.02)],
        [_storage(schema, 0.3)],
        [_storage(schema, 3.0)],
        [IndexCountConstraint(limit=2)],
        [_storage(schema, 1.0),
         IndexCountConstraint(limit=1.5, selector=lambda a: a.table == tables[0],
                              weight=lambda a: 0.5 * a.width)],
        [IndexWidthConstraint(max_columns=1), _storage(schema, 0.5)],
        [ClusteredIndexConstraint(), _storage(schema, 2.0)],
        [ClusteredIndexConstraint(), IndexWidthConstraint(max_columns=2),
         IndexCountConstraint(limit=4), _storage(schema, 0.2)],
    ]


def _assert_greedy_matches_reference(schema, workload, candidates):
    for constraints in _constraint_sets(schema, candidates):
        result = greedy_knapsack(InumCache(WhatIfOptimizer(schema)),
                                 workload, candidates, constraints)
        expected = reference_greedy_knapsack(
            InumCache(WhatIfOptimizer(schema)), workload, candidates,
            constraints)
        assert result.configuration.indexes == \
            expected.configuration.indexes
        assert result.objective == expected.objective
        assert result.lower_bound == expected.lower_bound
        assert result.gap == expected.gap
        assert result.probes == expected.probes
        assert not result.timed_out


class TestGreedyParity:
    """``greedy_knapsack`` equals the lazy loop over ``workload_cost``
    (``tests/conftest.py::reference_greedy_knapsack``) with ``==``: the
    picks in order, objective, bound, gap and probe count."""

    def test_conftest_workload(self, simple_schema, simple_workload,
                               simple_candidates):
        _assert_greedy_matches_reference(simple_schema, simple_workload,
                                         simple_candidates)

    def test_tpch_workload_with_updates(self, tpch):
        workload = generate_homogeneous_workload(12, seed=3,
                                                 update_fraction=0.4)
        assert workload.update_statements()
        _assert_greedy_matches_reference(
            tpch, workload, CandidateGenerator(tpch).generate(workload))

    def test_weighted_and_repeated_statements(self, tpch):
        base = generate_heterogeneous_workload(8, seed=21,
                                               update_fraction=0.3,
                                               schema=tpch)
        statements = [WorkloadStatement(statement.query, 0.25 + 1.5 * position)
                      for position, statement in enumerate(base)]
        # Repeats: the same statement object again, under other weights.
        statements += [WorkloadStatement(statement.query, 3.0)
                       for statement in list(base)[::3]]
        workload = Workload(statements, name="weighted-repeated")
        _assert_greedy_matches_reference(
            tpch, workload, CandidateGenerator(tpch).generate(workload))


class TestConfigurationProbe:
    """Every probe equals ``workload_cost(chosen.union((c,)))`` with ``==``,
    for random grown prefixes of generated workloads with UPDATEs."""

    @pytest.mark.parametrize("kind,seed", [
        ("homogeneous", 41), ("homogeneous", 42),
        ("heterogeneous", 43), ("heterogeneous", 44)])
    def test_probes_equal_workload_cost(self, tpch, kind, seed):
        if kind == "homogeneous":
            workload = generate_homogeneous_workload(10, seed=seed,
                                                     update_fraction=0.4)
        else:
            workload = generate_heterogeneous_workload(
                10, seed=seed, update_fraction=0.4, schema=tpch)
        assert workload.update_statements()
        touched = {table for statement in workload
                   for table in statement.query.tables}
        untouched = sorted(set(tpch.table_names) - touched)
        assert untouched, "expected a table no statement touches"
        stray = Index(untouched[0],
                      (tpch.table(untouched[0]).columns[0].name,))
        candidates = [*CandidateGenerator(tpch).generate(workload), stray]
        inum = InumCache(WhatIfOptimizer(tpch))
        rng = random.Random(seed)
        for _ in range(3):
            probe = ConfigurationProbe(inum, workload, candidates)
            chosen = Configuration(())
            for index in rng.sample(candidates, rng.randint(0, 6)):
                chosen = chosen.union((index,))
                probe.add(index)
            rest = [index for index in candidates if index not in chosen]
            expected = [inum.workload_cost(workload, chosen.union((index,)))
                        for index in rest]
            assert [probe.cost_with(index) for index in rest] == expected
            assert probe.costs_with(rest).tolist() == expected


class TestGreedyDeadline:
    """The deadline is checked before and after the scoring batch and
    before every re-probe."""

    def test_deadline_expiring_during_the_batch_returns_empty(
            self, simple_schema, simple_workload, simple_candidates,
            monkeypatch):
        import repro.lp.budget as budget_module

        clock = {"now": 100.0}

        class _Clock:
            @staticmethod
            def perf_counter():
                return clock["now"]

        monkeypatch.setattr(budget_module, "time", _Clock)
        batch = ConfigurationProbe.costs_with

        def slow_batch(self, indexes):
            clock["now"] += 10.0  # the deadline passes while scoring runs
            return batch(self, indexes)

        monkeypatch.setattr(ConfigurationProbe, "costs_with", slow_batch)
        inum = InumCache(WhatIfOptimizer(simple_schema))
        budget = SolveBudget(time_budget_ms=1000.0, tier="heuristic")
        result = greedy_knapsack(inum, simple_workload, simple_candidates,
                                 [_storage(simple_schema)], budget=budget)
        assert result.timed_out
        assert len(result.configuration) == 0
        assert result.objective == inum.workload_cost(
            simple_workload, Configuration(()))
        assert math.isfinite(result.gap)
        assert clock["now"] == 110.0  # the batch ran exactly once


# ====================================================== advisors under budgets
class TestAdvisorsUnderBudget:
    @pytest.mark.parametrize("name,options", ADVISORS)
    def test_no_budget_fingerprint_is_deterministic(self, name, options,
                                                    simple_schema,
                                                    simple_workload):
        """Budget-less requests take the pre-anytime path, bit for bit."""
        def run():
            return Tuner().tune(_request(
                simple_schema, simple_workload,
                advisor=AdvisorSpec(name, options),
                request_id=f"parity-{name}"))

        first, second = run(), run()
        assert first.fingerprint() == second.fingerprint()
        assert not first.diagnostics.timed_out
        assert first.diagnostics.solve_tier == "exact"

    @pytest.mark.parametrize("name,options", ADVISORS)
    def test_tight_budget_degrades_gracefully(self, name, options,
                                              simple_schema, simple_workload,
                                              simple_candidates):
        """An absurd deadline still yields a feasible, flagged result."""
        limit = _storage(simple_schema, 0.5)
        result = Tuner().tune(_request(
            simple_schema, simple_workload, constraints=[limit],
            candidates=simple_candidates,
            advisor=AdvisorSpec(name, options, time_budget_ms=0.001)))
        assert result.diagnostics.timed_out
        assert math.isfinite(result.diagnostics.gap)
        assert math.isfinite(result.objective_estimate)
        used = sum(simple_candidates.size_of(index)
                   for index in result.configuration)
        assert used <= limit.budget_bytes + 1e-6

    def test_heuristic_tier_never_builds_the_bip(self, simple_schema,
                                                 simple_workload):
        result = Tuner().tune(_request(
            simple_schema, simple_workload,
            advisor=AdvisorSpec("cophy", solve_tier="heuristic")))
        assert result.diagnostics.solve_tier == "heuristic"
        assert "heuristic" in result.extras
        assert result.diagnostics.nodes_explored == 0

    def test_roomy_budget_finishes_exact_within_deadline(self, simple_schema,
                                                         simple_workload):
        """The acceptance shape, embedded: warm context + sane budget."""
        service = TuningService()
        warm = service.tune(_request(simple_schema, simple_workload))
        started = time.perf_counter()
        result = service.tune(_request(
            simple_schema, simple_workload,
            advisor=AdvisorSpec("cophy", time_budget_ms=250.0)))
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5  # 2x budget, per the acceptance bar
        assert result.diagnostics.solve_tier == "cascade"
        assert not result.diagnostics.timed_out
        # The cascade's exact leg must not be beaten by its own greedy leg.
        assert result.objective_estimate <= warm.objective_estimate + 1e-6
        assert result.configuration == warm.configuration

    def test_budget_lands_in_provenance(self, simple_schema, simple_workload):
        result = Tuner().tune(_request(
            simple_schema, simple_workload,
            advisor=AdvisorSpec("cophy", time_budget_ms=100.0,
                                solve_tier="cascade")))
        advisor = result.provenance["advisor"]
        assert advisor["time_budget_ms"] == 100.0
        assert advisor["solve_tier"] == "cascade"


# ================================================================= wire format
class TestWireVersioning:
    def test_budgetless_request_stays_wire_version_1(self, simple_schema,
                                                     simple_workload):
        payload = encode_request(_request(simple_schema, simple_workload))
        assert payload["wire_version"] == 1
        decoded = decode_request(payload)
        assert decoded.resolved_advisor().time_budget_ms is None

    def test_budget_upgrades_to_wire_version_2_and_round_trips(
            self, simple_schema, simple_workload):
        request = _request(simple_schema, simple_workload,
                           advisor=AdvisorSpec("cophy", time_budget_ms=250.0,
                                               solve_tier="cascade"))
        payload = encode_request(request)
        assert payload["wire_version"] == 2
        spec = decode_request(payload).resolved_advisor()
        assert spec.time_budget_ms == 250.0
        assert spec.solve_tier == "cascade"

    def test_tier_alone_upgrades_the_version(self, simple_schema,
                                             simple_workload):
        payload = encode_request(_request(
            simple_schema, simple_workload,
            advisor=AdvisorSpec("cophy", solve_tier="heuristic")))
        assert payload["wire_version"] == 2

    def test_budget_fields_under_version_1_are_rejected(self, simple_schema,
                                                        simple_workload):
        payload = encode_request(_request(
            simple_schema, simple_workload,
            advisor=AdvisorSpec("cophy", time_budget_ms=250.0)))
        payload["wire_version"] = 1
        with pytest.raises(WireFormatError, match="advisor"):
            decode_request(payload)

    def test_unknown_version_rejected(self, simple_schema, simple_workload):
        payload = encode_request(_request(simple_schema, simple_workload))
        payload["wire_version"] = 3
        with pytest.raises(WireFormatError, match="wire_version"):
            decode_request(payload)

    def test_malformed_budget_value_rejected(self, simple_schema,
                                             simple_workload):
        payload = encode_request(_request(
            simple_schema, simple_workload,
            advisor=AdvisorSpec("cophy", time_budget_ms=250.0)))
        payload["advisor"]["time_budget_ms"] = "soon"
        with pytest.raises(WireFormatError, match="advisor"):
            decode_request(payload)


# ================================================================== the server
class TestServerBudgetPolicy:
    def test_default_budget_fills_unbudgeted_requests(self, simple_schema,
                                                      simple_workload):
        with TuningServer(default_time_budget_ms=5_000.0) as server:
            budgeted = server._budgeted(_request(simple_schema,
                                                 simple_workload))
            assert budgeted.resolved_advisor().time_budget_ms == 5_000.0

    def test_clamp_overrides_greedy_clients_only(self, simple_schema,
                                                 simple_workload):
        with TuningServer(max_time_budget_ms=1_000.0) as server:
            greedy = _request(simple_schema, simple_workload,
                              advisor=AdvisorSpec("cophy",
                                                  time_budget_ms=60_000.0))
            assert (server._budgeted(greedy).resolved_advisor()
                    .time_budget_ms == 1_000.0)
            modest = _request(simple_schema, simple_workload,
                              advisor=AdvisorSpec("cophy",
                                                  time_budget_ms=500.0))
            assert server._budgeted(modest) is modest

    def test_no_policy_leaves_requests_alone(self, simple_schema,
                                             simple_workload):
        with TuningServer() as server:
            request = _request(simple_schema, simple_workload)
            assert server._budgeted(request) is request

    @pytest.mark.parametrize("bad", [{"session_ttl_s": 0},
                                     {"default_time_budget_ms": -1},
                                     {"max_time_budget_ms": 0}])
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            TuningServer(**bad)

    def test_budgeted_round_trip_over_http(self, simple_schema,
                                           simple_workload):
        """The wire carries the budget out and the timeout flag back."""
        request = _request(simple_schema, simple_workload,
                           advisor=AdvisorSpec("cophy",
                                               time_budget_ms=0.001))
        with TuningServer() as server:
            result = TuningClient(server.url).tune(request)
            stats = TuningClient(server.url).stats()
        assert result.diagnostics.timed_out
        assert math.isfinite(result.diagnostics.gap)
        assert result.provenance["advisor"]["time_budget_ms"] == 0.001
        assert stats["default_time_budget_ms"] is None

    def test_roomy_budget_over_http_matches_unbudgeted_decision(
            self, simple_schema, simple_workload):
        with TuningServer() as server:
            client = TuningClient(server.url)
            unbudgeted = client.tune(_request(simple_schema, simple_workload))
            budgeted = client.tune(_request(
                simple_schema, simple_workload,
                advisor=AdvisorSpec("cophy", time_budget_ms=30_000.0)))
        assert budgeted.configuration == unbudgeted.configuration
        assert not budgeted.diagnostics.timed_out
        assert budgeted.diagnostics.solve_tier == "cascade"


class TestSessionReaping:
    def test_idle_sessions_are_reaped_and_counted(self, simple_schema,
                                                  simple_workload):
        body = encode_request(_request(simple_schema, simple_workload))
        with TuningServer(session_ttl_s=0.05) as server:
            session_id = server.handle_open_session(body)["session_id"]
            assert server.session_count == 1
            time.sleep(0.12)
            assert server.session_count == 0
            with pytest.raises(TuningServerError, match="Unknown session"):
                server.handle_session_tune(session_id,
                                           {"operation": "recommend"})
            stats = server.handle_stats()
            assert stats["service"]["sessions_reaped"] == 1
            assert stats["session_ttl_s"] == 0.05

    def test_touch_refreshes_the_ttl(self, simple_schema, simple_workload):
        body = encode_request(_request(simple_schema, simple_workload))
        with TuningServer(session_ttl_s=0.5) as server:
            session_id = server.handle_open_session(body)["session_id"]
            time.sleep(0.3)
            server._session(session_id)  # any access refreshes last-used
            time.sleep(0.3)
            assert server.session_count == 1  # 0.6s old but touched at 0.3s
            server.handle_close_session(session_id)
            assert server.session_count == 0

    def test_without_ttl_sessions_are_immortal(self, simple_schema,
                                               simple_workload):
        body = encode_request(_request(simple_schema, simple_workload))
        with TuningServer() as server:
            server.handle_open_session(body)
            time.sleep(0.05)
            assert server.session_count == 1
            assert server.handle_stats()["service"]["sessions_reaped"] == 0


# ================================================================== the client
class TestClientTimeouts:
    def test_derived_timeout_from_budgets(self, simple_schema,
                                          simple_workload):
        client = TuningClient("http://127.0.0.1:1", budget_slack_s=2.0)
        budgeted = _request(simple_schema, simple_workload,
                            advisor=AdvisorSpec("cophy",
                                                time_budget_ms=250.0))
        unbudgeted = _request(simple_schema, simple_workload)
        assert client._derived_timeout([budgeted]) == pytest.approx(2.25)
        assert client._derived_timeout([budgeted, budgeted]) == \
            pytest.approx(2.5)
        # One unbudgeted request makes the batch unbounded.
        assert client._derived_timeout([budgeted, unbudgeted]) is None
        assert client._derived_timeout([]) is None

    def test_unresponsive_server_raises_typed_timeout(self):
        # A listening socket that never accepts: connects succeed (kernel
        # backlog) but no byte ever comes back, so the read times out.
        with socket.socket() as sink:
            sink.bind(("127.0.0.1", 0))
            sink.listen(1)
            port = sink.getsockname()[1]
            client = TuningClient(f"http://127.0.0.1:{port}", timeout=0.3)
            with pytest.raises(TuningClientTimeout) as excinfo:
                client.health()
        assert excinfo.value.timeout_seconds == 0.3
        assert excinfo.value.error_type == "ClientTimeout"
        # Existing `except TuningServerError` handlers keep catching it.
        assert isinstance(excinfo.value, TuningServerError)
