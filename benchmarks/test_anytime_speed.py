"""Benchmark: the anytime tiers on a 200-statement mixed workload.

Two claims from the anytime-tuning PR are measured here:

* **The heuristic tier is a real shortcut.**  The greedy-knapsack pass
  (``solve_tier="heuristic"``) never builds the BIP; on the same
  200-statement workload the scale-out benchmark uses, it must recommend a
  configuration whose *evaluated* workload cost is within
  ``QUALITY_BOUND`` of the exact BIP's.  Both tunes are timed once and
  reported; the ratio is not asserted (``perfbench/`` workloads
  ``heuristic_sweep`` and ``cold_tune`` measure the tiers with noise
  accounting).
* **Deadlines are honored.**  Against a warm schema context, a
  ``time_budget_ms=250`` cascade request returns a flagged
  (``timed_out=True``), finite-gap result within ``2x`` its budget —
  the acceptance bar of the PR.

Both recommendations are evaluated with one fresh INUM cache so the quality
comparison is independent of either tier's internal state.
"""

from __future__ import annotations

import math
import time

from repro.api import AdvisorSpec, Tuner, TuningRequest, make_advisor
from repro.core.constraints import StorageBudgetConstraint
from repro.inum.cache import InumCache
from repro.lp import SolveBudget
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import (
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
)
from repro.workload.workload import Workload

from benchmarks.conftest import SEED, make_schema, print_report, storage_budget
from benchmarks.test_scaleout_speed import _timed

STATEMENT_COUNT = 200
TEMPLATED_COUNT = 170
ADHOC_COUNT = 30
QUALITY_BOUND = 1.25
BUDGET_MS = 250.0
DEADLINE_FACTOR = 2.0


def _mixed_workload() -> Workload:
    templated = generate_homogeneous_workload(TEMPLATED_COUNT, seed=SEED)
    adhoc = generate_heterogeneous_workload(ADHOC_COUNT, seed=SEED + 1)
    return Workload([*templated.statements, *adhoc.statements],
                    name=f"W_mixed_{STATEMENT_COUNT}")


def test_heuristic_tier_quality_and_speed():
    schema = make_schema(0.0)
    workload = _mixed_workload()
    assert len(workload) == STATEMENT_COUNT
    budget = storage_budget(schema, 0.5)

    exact_seconds, exact = _timed(
        lambda: make_advisor("cophy", schema).tune(
            workload, constraints=[budget]))

    heuristic_seconds, heuristic = _timed(
        lambda: make_advisor("cophy", schema).tune(
            workload, constraints=[budget],
            budget=SolveBudget(tier="heuristic")))

    assert heuristic.solve_tier == "heuristic"
    assert not heuristic.timed_out  # no deadline: the pass ran to completion

    # One fresh evaluator for both configurations: a single tensor reduction
    # per configuration, independent of either tier's caches.
    evaluator = InumCache(WhatIfOptimizer(schema))
    evaluator.prepare(workload, (*exact.configuration,
                                 *heuristic.configuration))
    exact_cost = evaluator.workload_cost(workload, exact.configuration)
    heuristic_cost = evaluator.workload_cost(workload,
                                             heuristic.configuration)
    cost_ratio = heuristic_cost / exact_cost

    print_report(
        "Anytime heuristic tier vs exact BIP (200-statement mixed workload)",
        f"workload:  {workload.summary()}\n"
        f"exact:     {exact_seconds:6.2f}s, {exact.index_count} indexes, "
        f"evaluated cost {exact_cost:,.0f}\n"
        f"heuristic: {heuristic_seconds:6.2f}s, "
        f"{heuristic.index_count} indexes, "
        f"evaluated cost {heuristic_cost:,.0f}\n"
        f"  greedy probes: {heuristic.extras['heuristic']['probes']}, "
        f"reported gap {heuristic.gap:.3f}\n"
        f"quality:   {cost_ratio:6.4f}x exact cost "
        f"(bound <= {QUALITY_BOUND})")

    assert cost_ratio <= QUALITY_BOUND, (
        f"heuristic recommendation costs {cost_ratio:.4f}x the exact one "
        f"(bound {QUALITY_BOUND}x)")


def test_deadline_honored_on_warm_context():
    schema = make_schema(0.0)
    workload = _mixed_workload()
    budget = storage_budget(schema, 0.5)

    tuner = Tuner()
    # Warm the schema context (templates, gamma matrices, tensors) with a
    # heuristic-tier pass; the deadline below then measures solve economics,
    # not one-time preparation.
    tuner.tune(TuningRequest(
        workload=workload, schema=schema, constraints=[budget],
        advisor=AdvisorSpec("cophy", solve_tier="heuristic")))

    started = time.perf_counter()
    result = tuner.tune(TuningRequest(
        workload=workload, schema=schema, constraints=[budget],
        advisor=AdvisorSpec("cophy", time_budget_ms=BUDGET_MS)))
    elapsed = time.perf_counter() - started

    bound_seconds = DEADLINE_FACTOR * BUDGET_MS / 1000.0
    print_report(
        "Anytime deadline on a warm context (200-statement mixed workload)",
        f"budget:   {BUDGET_MS:.0f} ms (cascade tier)\n"
        f"elapsed:  {elapsed * 1000:6.1f} ms "
        f"(bound <= {bound_seconds * 1000:.0f} ms)\n"
        f"timed_out: {result.diagnostics.timed_out}, "
        f"solve_tier: {result.diagnostics.solve_tier}, "
        f"gap: {result.diagnostics.gap:.3f}\n"
        f"recommendation: {result.index_count} indexes, "
        f"objective {result.objective_estimate:,.0f}")

    assert elapsed <= bound_seconds, (
        f"250 ms budget answered in {elapsed * 1000:.0f} ms "
        f"(bound {bound_seconds * 1000:.0f} ms)")
    assert result.diagnostics.timed_out
    assert math.isfinite(result.diagnostics.gap)
    assert math.isfinite(result.objective_estimate)
