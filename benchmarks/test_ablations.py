"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper figures; they quantify the impact of implementation
choices of the reproduction:

* the Lagrangian-style relaxation of the slot-assignment constraints
  (section 4.1 of the paper) versus solving the raw Theorem-1 BIP;
* INUM's cost approximation versus direct what-if optimization (accuracy and
  optimizer-call counts) — the premise the whole BIP formulation rests on.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SEED, WORKLOAD_SIZES, make_schema, print_report, storage_budget
from repro.api import make_advisor
from repro.bench.harness import run_advisor
from repro.bench.metrics import baseline_configuration
from repro.bench.reporting import format_table
from repro.indexes.candidate_generation import CandidateGenerator
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import generate_homogeneous_workload


def _run_relaxation_ablation():
    schema = make_schema(0.0)
    budget = storage_budget(schema, 1.0)
    workload = generate_homogeneous_workload(WORKLOAD_SIZES[500], seed=SEED)
    rows = []
    results = {}
    for label, apply_relaxation in (("raw BIP", False), ("relaxed BIP", True)):
        advisor = make_advisor("cophy", schema, apply_relaxation=apply_relaxation,
                               gap_tolerance=0.0)
        recommendation = advisor.tune(workload, constraints=[budget])
        results[label] = recommendation
        rows.append({
            "variant": label,
            "objective": round(recommendation.objective_estimate, 1),
            "indexes": recommendation.index_count,
            "solve s": round(recommendation.timings["solve"], 3),
        })
    return rows, results


def test_ablation_relaxation(benchmark):
    rows, results = benchmark.pedantic(_run_relaxation_ablation, rounds=1,
                                       iterations=1)
    print_report("Ablation: Lagrangian-style relaxation of slot constraints",
                 format_table(rows))
    # The relaxation must not change the quality of the recommendation.
    assert results["relaxed BIP"].objective_estimate == pytest.approx(
        results["raw BIP"].objective_estimate, rel=1e-6)


def _run_inum_ablation():
    schema = make_schema(0.0)
    workload = generate_homogeneous_workload(WORKLOAD_SIZES[250], seed=SEED)
    optimizer = WhatIfOptimizer(schema)
    inum = InumCache(optimizer)
    candidates = CandidateGenerator(schema).generate(workload)
    configuration = baseline_configuration(schema).union(list(candidates)[:12])

    inum.build_workload(workload)
    build_calls = inum.template_build_calls

    rows = []
    errors = []
    direct_calls_before = optimizer.whatif_calls
    for statement in workload:
        inum_cost = inum.statement_cost(statement.query, configuration)
        true_cost = optimizer.statement_cost(statement.query, configuration)
        error = abs(inum_cost - true_cost) / max(true_cost, 1e-9)
        errors.append(error)
    direct_calls = optimizer.whatif_calls - direct_calls_before
    rows.append({
        "metric": "INUM template-build optimizer calls",
        "value": build_calls,
    })
    rows.append({
        "metric": "direct what-if calls for the same evaluation",
        "value": direct_calls,
    })
    rows.append({
        "metric": "mean relative cost error",
        "value": round(sum(errors) / len(errors), 4),
    })
    rows.append({
        "metric": "max relative cost error",
        "value": round(max(errors), 4),
    })
    return rows, errors, build_calls, direct_calls


def _run_tool_a_inum_ablation():
    """Tool-A's greedy/relaxation search: black-box what-if vs INUM costing.

    The ROADMAP open item: ``make_advisor("relaxation", inum=...)`` exists but the
    per-figure benchmarks keep the paper-faithful black-box path.  This
    ablation runs both variants on the same workload/seed and quantifies the
    trade: the INUM-backed search answers its thousands of cost probes from
    the workload gamma tensor (orders of magnitude fewer optimizer calls)
    while recommending a configuration of comparable quality — the
    approximation it introduces is exactly the one CoPhy itself rests on.
    """
    schema = make_schema(0.0)
    budget = storage_budget(schema, 0.5)
    workload = generate_homogeneous_workload(WORKLOAD_SIZES[500], seed=SEED)
    evaluation = WhatIfOptimizer(schema)

    def black_box():
        return make_advisor("relaxation", schema, seed=SEED)

    def inum_backed():
        optimizer = WhatIfOptimizer(schema)
        return make_advisor("relaxation", schema, optimizer=optimizer, seed=SEED,
                                 inum=InumCache(optimizer))

    rows = []
    runs = {}
    for label, factory in (("black-box what-if", black_box),
                           ("INUM tensor", inum_backed)):
        run = run_advisor(factory(), evaluation, workload, [budget])
        runs[label] = run
        rows.append({
            "variant": label,
            "perf %": round(run.speedup_percent, 2),
            "indexes": run.recommendation.index_count,
            "whatif_calls": run.recommendation.whatif_calls,
            "seconds": round(run.wall_seconds, 3),
        })
    return rows, runs


def test_ablation_tool_a_inum_costing(benchmark):
    rows, runs = benchmark.pedantic(_run_tool_a_inum_ablation, rounds=1,
                                    iterations=1)
    print_report("Ablation: Tool-A relaxation search, black-box vs INUM costing",
                 format_table(rows))
    black_box = runs["black-box what-if"]
    inum_backed = runs["INUM tensor"]
    # Ground-truth quality must stay comparable: INUM is an approximation of
    # the same optimizer, not a different cost model.
    assert inum_backed.perf >= black_box.perf - 0.10
    # The INUM-backed search must deliver the order-of-magnitude reduction in
    # optimizer calls that motivates it (template builds included).
    assert (inum_backed.recommendation.whatif_calls
            <= black_box.recommendation.whatif_calls / 5)


def test_ablation_inum_accuracy(benchmark):
    rows, errors, build_calls, direct_calls = benchmark.pedantic(
        _run_inum_ablation, rounds=1, iterations=1)
    print_report("Ablation: INUM approximation vs direct what-if optimization",
                 format_table(rows))
    # INUM reproduces the optimizer's cost (paper: "minimal to no loss"):
    # measured 3.9e-16 here and at most 1.1e-3 on other TPC-H mixes.
    assert max(errors) < 1e-2
    # And its one-off build cost is of the same order as a single evaluation
    # pass, while it can afterwards cost arbitrarily many configurations for free.
    assert build_calls <= 4 * direct_calls
