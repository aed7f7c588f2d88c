"""Anytime tuning: trade recommendation quality for a wall-clock deadline.

One knob — ``AdvisorSpec.time_budget_ms`` — turns a tuning request into an
*anytime* request: the deadline is anchored when the pipeline starts and
threaded through candidate generation, the greedy-knapsack heuristic, BIP
construction and the HiGHS solve, so the call returns a
*feasible* recommendation by the deadline, flagged ``timed_out=True`` with a
finite optimality gap instead of blowing the budget.  ``solve_tier`` picks
how the budget is spent:

* ``"heuristic"`` — greedy knapsack only, never builds the BIP;
* ``"cascade"``  — greedy first, exact solve with whatever clock remains
  (the default when a budget is set);
* ``"exact"``    — the BIP solve as before, interrupted at the deadline.

The same knob travels over the wire (version 2): the server applies
per-request deadlines, can default/clamp them, and the client SDK derives
its socket timeout from the request's own budget.

Run with:  python examples/anytime_tuning.py
"""

from __future__ import annotations

from repro import StorageBudgetConstraint, Tuner, TuningRequest
from repro.api import AdvisorSpec
from repro.catalog import tpch_schema
from repro.server import TuningClient, TuningServer
from repro.workload import generate_homogeneous_workload


def main() -> None:
    schema = tpch_schema(scale_factor=0.01)
    workload = generate_homogeneous_workload(30, seed=11)
    constraints = [StorageBudgetConstraint.from_fraction_of_data(
        schema, fraction=0.5)]

    def request(advisor: AdvisorSpec | None, request_id: str) -> TuningRequest:
        return TuningRequest(workload=workload, schema=schema,
                             constraints=constraints, advisor=advisor,
                             request_id=request_id)

    tuner = Tuner()

    # 1. The unbudgeted ground truth: the exact BIP solve, however long it
    #    takes (on this small problem: not long).
    exact = tuner.tune(request(None, "anytime-exact"))
    print(f"exact:     {exact.index_count} indexes, "
          f"objective {exact.objective_estimate:,.0f}, "
          f"tier {exact.diagnostics.solve_tier}")

    # 2. The heuristic tier: greedy knapsack over the same INUM tensors,
    #    no BIP at all.  Orders of magnitude cheaper, usually within a few
    #    percent of the exact objective.
    heuristic = tuner.tune(request(
        AdvisorSpec("cophy", solve_tier="heuristic"), "anytime-heuristic"))
    print(f"heuristic: {heuristic.index_count} indexes, "
          f"objective {heuristic.objective_estimate:,.0f}, "
          f"reported gap {heuristic.diagnostics.gap:.1%}")

    # 3. A hard deadline.  The second run hits a warm schema context, so the
    #    budget is spent on solving, not on re-preparing INUM state; an
    #    absurdly tight budget still returns a feasible configuration with
    #    the timeout flagged and the gap finite.
    budgeted = tuner.tune(request(
        AdvisorSpec("cophy", time_budget_ms=2.0), "anytime-tight"))
    print(f"2ms budget: {budgeted.index_count} indexes, "
          f"timed_out={budgeted.diagnostics.timed_out}, "
          f"tier {budgeted.diagnostics.solve_tier}, "
          f"gap {budgeted.diagnostics.gap:.1%}")
    assert budgeted.diagnostics.timed_out

    # 4. The same knob over HTTP.  The wire codecs carry the budget (wire
    #    version 2), the server enforces a ceiling on client budgets, and
    #    the client's socket timeout follows the request's own deadline
    #    (budget + slack) instead of the generous default.
    with TuningServer(max_time_budget_ms=60_000.0,
                      session_ttl_s=300.0) as server:
        client = TuningClient(server.url, budget_slack_s=30.0)
        remote = client.tune(request(
            AdvisorSpec("cophy", time_budget_ms=5_000.0), "anytime-remote"))
        print(f"remote 5s budget: {remote.index_count} indexes, "
              f"timed_out={remote.diagnostics.timed_out}, "
              f"objective {remote.objective_estimate:,.0f}")
        assert remote.configuration == exact.configuration, \
            "a roomy budget must not change the recommendation"
        stats = client.stats()
        print(f"server policy: max_time_budget_ms="
              f"{stats['max_time_budget_ms']:,.0f}, "
              f"session_ttl_s={stats['session_ttl_s']:,.0f}, "
              f"sessions_reaped={stats['service']['sessions_reaped']}")


if __name__ == "__main__":
    main()
