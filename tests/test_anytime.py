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
from repro.exceptions import ConstraintError, SolveInterrupted
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.inum.probe import ConfigurationProbe, ProbeBase
from repro.lp import SOLVE_TIERS, SolveBudget
from repro.lp.highs_backend import MilpBackend
from repro.lp.model import Model, Objective, RowBlock, RowKind
from repro.lp.solution import SolutionStatus
from repro.optimizer.whatif import WhatIfOptimizer
from repro.server import (
    WIRE_VERSION,
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
from repro.workload.predicates import (
    ColumnRef,
    ComparisonOperator,
    JoinPredicate,
    SimplePredicate,
)
from repro.workload.query import SelectQuery, UpdateQuery
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
    """The export of a knapsack that minimises ``-value``."""
    model = Model("knapsack")
    columns = range(model.add_columns(len(values)), len(values))
    model.set_objective(Objective.of(columns, [-value for value in values]))
    model.add_rows(RowBlock.of([(Objective.of(columns, weights), capacity,
                                 RowKind.LESS_EQUAL)]))
    return model.to_matrices()


class TestBranchAndBoundAnytime:
    """What a budget makes of HiGHS's branch and bound."""

    def test_expired_deadline_without_incumbent_reports_timeout(self):
        solution = MilpBackend().solve(_knapsack([6, 5], [4, 3], 6),
                                       budget=_expired_budget())
        assert solution.timed_out
        assert solution.status is SolutionStatus.ERROR

    def test_budget_node_limit_caps_exploration(self):
        solution = MilpBackend().solve(
            _knapsack([6, 5, 4, 3, 2], [4, 3, 2, 1, 2], 6),
            budget=SolveBudget(node_limit=1))
        assert solution.nodes_explored <= 1
        assert not solution.timed_out  # node limits are not wall-clock expiry

    def test_unbudgeted_solve_is_untouched(self):
        solution = MilpBackend().solve(_knapsack([6, 5, 4, 3], [4, 3, 2, 1], 6))
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(-12.0)  # items 2+3+4
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


def _assert_same_greedy(result, expected):
    assert result.configuration.indexes == expected.configuration.indexes
    assert result.objective == expected.objective
    assert result.lower_bound == expected.lower_bound
    assert result.gap == expected.gap
    assert result.probes == expected.probes
    assert not result.timed_out


def _assert_greedy_matches_reference(schema, workload, candidates):
    for constraints in _constraint_sets(schema, candidates):
        result = greedy_knapsack(InumCache(WhatIfOptimizer(schema)),
                                 workload, candidates, constraints)
        expected = reference_greedy_knapsack(
            InumCache(WhatIfOptimizer(schema)), workload, candidates,
            constraints)
        _assert_same_greedy(result, expected)


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

    def test_requests_on_one_primed_context(self, tpch, monkeypatch):
        """Requests on one cache share the tensor's probe base when their
        admissible candidates are equal, and each still equals the oracle:
        three budgets (one base), a width limit (another admissible set),
        the first budget again, then DBA indexes added to the tensor."""
        workload = generate_homogeneous_workload(12, seed=3,
                                                 update_fraction=0.4)
        candidates = CandidateGenerator(tpch).generate(workload)
        built = []
        init = ProbeBase.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(ProbeBase, "__init__", counting_init)
        inum = InumCache(WhatIfOptimizer(tpch))
        first, second, third = (_storage(tpch, fraction)
                                for fraction in (0.05, 0.4, 2.0))
        requests = [[first], [second], [third],
                    [IndexWidthConstraint(max_columns=1), second], [first]]
        for constraints in requests:
            _assert_same_greedy(
                greedy_knapsack(inum, workload, candidates, constraints),
                reference_greedy_knapsack(InumCache(WhatIfOptimizer(tpch)),
                                          workload, candidates, constraints))
        # One base for the three budgets, one for the width limit, one for
        # the first budget again (the width limit's base replaced it).
        assert len(built) == 3
        tensor = inum.workload_tensor(workload)
        dba = [Index(table.name, (column.name,))
               for table in tpch for column in table.columns[1:3]]
        dba = [index for index in dba if index not in candidates]
        assert not tensor.has_columns(dba)
        tensor.ensure_columns(dba)
        assert tensor.has_columns(dba)
        for constraints in ([first], [second]):
            _assert_same_greedy(
                greedy_knapsack(inum, workload, candidates, constraints),
                reference_greedy_knapsack(InumCache(WhatIfOptimizer(tpch)),
                                          workload, candidates, constraints))
        assert len(built) == 3  # added columns leave the base valid


def _edge_workload() -> Workload:
    """Statements that put the probed tables at slot 0, in the last slot,
    alone (a 1-slot UPDATE) and joined to the picked table."""
    orderdate = ColumnRef("orders", "o_orderdate")
    orders_first = SelectQuery(
        tables=("orders", "lineitem", "customer"),
        projections=(ColumnRef("customer", "c_name"),),
        predicates=(
            SimplePredicate(orderdate, ComparisonOperator.BETWEEN,
                            (100, 200), selectivity_hint=0.05),
            SimplePredicate(ColumnRef("customer", "c_mktsegment"),
                            ComparisonOperator.EQ, 1, selectivity_hint=0.2),
            SimplePredicate(ColumnRef("lineitem", "l_quantity"),
                            ComparisonOperator.LT, 10, selectivity_hint=0.2)),
        joins=(JoinPredicate(ColumnRef("orders", "o_orderkey"),
                             ColumnRef("lineitem", "l_orderkey")),
               JoinPredicate(ColumnRef("orders", "o_custkey"),
                             ColumnRef("customer", "c_custkey"))),
        name="edge-orders-first")
    customer_first = SelectQuery(
        tables=("customer", "orders"),
        projections=(ColumnRef("orders", "o_totalprice"),),
        predicates=(
            SimplePredicate(ColumnRef("customer", "c_acctbal"),
                            ComparisonOperator.GT, 0, selectivity_hint=0.1),
            SimplePredicate(ColumnRef("orders", "o_orderpriority"),
                            ComparisonOperator.EQ, 2, selectivity_hint=0.2)),
        joins=(JoinPredicate(ColumnRef("customer", "c_custkey"),
                             ColumnRef("orders", "o_custkey")),),
        name="edge-customer-first")
    lineitem_alone = SelectQuery(
        tables=("lineitem",),
        projections=(ColumnRef("lineitem", "l_extendedprice"),),
        predicates=(SimplePredicate(ColumnRef("lineitem", "l_discount"),
                                    ComparisonOperator.EQ, 5,
                                    selectivity_hint=0.1),),
        name="edge-lineitem")
    update = UpdateQuery(
        table="orders",
        set_columns=(ColumnRef("orders", "o_orderstatus"),),
        predicates=(SimplePredicate(orderdate, ComparisonOperator.BETWEEN,
                                    (300, 310), selectivity_hint=0.01),),
        name="edge-update")
    return Workload([WorkloadStatement(orders_first, 1.5),
                     WorkloadStatement(customer_first, 1.0),
                     WorkloadStatement(lineitem_alone, 2.0),
                     WorkloadStatement(update, 3.0)], name="probe-edges")


class TestConfigurationProbe:
    """Every probe equals ``workload_cost(chosen.union((c,)))`` with ``==``,
    for random grown prefixes of generated workloads with UPDATEs."""

    @pytest.mark.parametrize("picks,probed,statement,slot", [
        # The probed table at slot 0 of its statement.
        (("lineitem",), "orders", "edge-orders-first", 0),
        # The probed table in the last slot of its statement.
        (("lineitem",), "customer", "edge-orders-first", 2),
        # The 1-slot UPDATE on orders: its maintenance grows per pick.
        (("orders", "orders"), "orders", "edge-update", 0),
        # A pick on a joined table moves the rows the probed table shares
        # with it (the neighbour map).
        (("customer",), "orders", "edge-customer-first", 1),
        (("orders", "customer"), "lineitem", "edge-orders-first", 1),
    ])
    def test_probes_after_picks_at_the_slot_edges(self, tpch, picks, probed,
                                                   statement, slot):
        workload = _edge_workload()
        candidates = list(CandidateGenerator(tpch).generate(workload))
        inum = InumCache(WhatIfOptimizer(tpch))
        base = ProbeBase(inum, workload, candidates)
        rows, slots = inum.workload_tensor(workload).table_slots(probed)
        row = [entry.query.name for entry in workload].index(statement)
        assert dict(zip(rows.tolist(), slots.tolist()))[row] == slot
        on = {table: [index for index in candidates if index.table == table]
              for table in {*picks, probed}}
        assert all(len(indexes) >= 2 for indexes in on.values())
        probe = ConfigurationProbe(base)
        chosen = Configuration(())
        for table in picks:
            # The pick that lowers the cost most, so it moves slot minima.
            cost, at = min(
                (inum.workload_cost(workload, chosen.union((index,))), at)
                for at, index in enumerate(on[table]) if index not in chosen)
            index = on[table][at]
            assert cost < inum.workload_cost(workload, chosen)
            chosen = chosen.union((index,))
            probe.add(index)
            rest = [index for index in candidates if index not in chosen]
            expected = [inum.workload_cost(workload,
                                           chosen.union((index,)))
                        for index in rest]
            assert [probe.cost_with(index) for index in rest] == expected
            assert probe.costs_with(rest).tolist() == expected
        targets = [index for index in on[probed] if index not in chosen]
        assert [probe.cost_with(index) for index in targets] == [
            inum.workload_cost(workload, chosen.union((index,)))
            for index in targets]

    def test_each_statement_holds_a_table_in_one_slot(self, tpch):
        """The re-probe's layout rests on this: a table's (row, slot) pairs
        are one per row, because ``Query.tables`` has no repeats."""
        repeated = SelectQuery(tables=("orders", "lineitem", "orders"),
                               name="repeated")
        assert repeated.tables == ("orders", "lineitem")
        workloads = [_edge_workload(),
                     generate_homogeneous_workload(30, seed=5,
                                                   update_fraction=0.3),
                     generate_heterogeneous_workload(30, seed=6,
                                                     update_fraction=0.3,
                                                     schema=tpch)]
        inum = InumCache(WhatIfOptimizer(tpch))
        for workload in workloads:
            tensor = inum.workload_tensor(workload)
            for table in tpch.table_names:
                rows, slots = tensor.table_slots(table)
                assert len(rows) == len(slots)
                assert len(set(rows.tolist())) == len(rows), table
                assert rows.tolist() == sorted(rows.tolist())

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
            probe = ConfigurationProbe(ProbeBase(inum, workload, candidates))
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

    @staticmethod
    def _assert_empty_answer(result, tier):
        """The answer when the clock stops HiGHS before its first incumbent:
        the empty configuration with its gap to the ideal bound."""
        assert result.diagnostics.timed_out
        assert len(result.configuration) == 0
        assert 0 < result.diagnostics.gap < math.inf
        assert math.isfinite(result.objective_estimate)
        assert result.diagnostics.solve_tier == tier

    @pytest.mark.parametrize("name", ["cophy", "ilp"])
    def test_a_time_limit_before_the_first_incumbent_answers(
            self, name, simple_schema, simple_workload):
        """A solver time limit that fires before the first incumbent."""
        result = Tuner().tune(_request(
            simple_schema, simple_workload,
            constraints=[_storage(simple_schema, 0.5)],
            advisor=AdvisorSpec(name, {"time_limit_seconds": 1e-9})))
        self._assert_empty_answer(result, "exact")

    @pytest.mark.parametrize("name", ["cophy", "ilp"])
    def test_an_exact_tier_deadline_inside_the_solve_answers(
            self, name, simple_schema, simple_workload, monkeypatch):
        """The deadline fires inside the solve: the clock reads unexpired
        through the build and leaves the solve one nanosecond."""
        monkeypatch.setattr(SolveBudget, "expired", lambda budget: False)
        monkeypatch.setattr(SolveBudget, "remaining_seconds",
                            lambda budget: 1e-9)
        result = Tuner().tune(_request(
            simple_schema, simple_workload,
            constraints=[_storage(simple_schema, 0.5)],
            advisor=AdvisorSpec(name, time_budget_ms=60_000.0,
                                solve_tier="exact")))
        self._assert_empty_answer(result, "exact")

    def test_a_time_limit_without_a_fallback_still_raises(
            self, simple_schema, simple_workload):
        """At least one index: the empty configuration is no answer, and
        the solve stopped before it found one."""
        at_least_one = IndexCountConstraint(limit=1,
                                            sense=ComparisonSense.AT_LEAST)
        with pytest.raises(SolveInterrupted, match="Time limit"):
            make_advisor("cophy", simple_schema,
                         time_limit_seconds=1e-9).tune(simple_workload,
                                                       [at_least_one])

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
        payload["wire_version"] = WIRE_VERSION + 1
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
