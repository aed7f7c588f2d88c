"""Figure 4 — execution time of CoPhy vs. the commercial advisors vs. workload size.

Paper values (minutes, homogeneous workload, z = 0):

    Tool-A:  250 -> 6.2    500 -> 66.1   1000 -> 419
    CoPhyA:  250 -> 2      500 -> 4.8    1000 -> 8.3
    Tool-B:  250 -> 3.2    500 -> 6.1    1000 -> (not shown, ~2x CoPhyB)
    CoPhyB:  250 -> 1.25   1000 -> 2.26

Reproduced shape: CoPhy's execution time grows slowly with the workload size
and is the smallest for the larger workloads; the Tool-A-like advisor grows
much faster (it is driven by per-candidate what-if evaluation), and the
Tool-B-like advisor sits in between thanks to workload compression.

Each claim is asserted twice: on the measured seconds, as the figure states
it, and on the what-if optimizer calls behind them (the unit the paper measures
advisors by), which repeat exactly on any machine.  The tools spend all of
their time in those calls and CoPhy most of its time in the solver, so PR 22's
3-4x cheaper synthetic optimizer shrank the tools' seconds far more than
CoPhy's: two of the clock claims now sit inside their noise or beyond it and
live in the ``xfail`` test at the bottom, unchanged, until an issue of their
own retargets them (ROADMAP 5f).
"""

from __future__ import annotations

import functools

import pytest

from benchmarks.conftest import SEED, WORKLOAD_SIZES, make_schema, print_report, storage_budget
from repro.api import make_advisor
from repro.bench.harness import run_advisor
from repro.bench.reporting import format_table
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import generate_homogeneous_workload

_PAPER_MINUTES = {
    "tool-a": {250: 6.2, 500: 66.1, 1000: 419.0},
    "cophy": {250: 2.0, 500: 4.8, 1000: 8.3},
    "tool-b": {250: 3.2, 500: 6.1, 1000: 12.0},
}


@functools.cache
def _run_fig4():
    schema = make_schema(0.0)
    budget = storage_budget(schema, 1.0)
    rows = []
    times: dict[str, dict[int, float]] = {"cophy": {}, "tool-a": {}, "tool-b": {}}
    calls: dict[str, dict[int, int]] = {"cophy": {}, "tool-a": {}, "tool-b": {}}
    for paper_size, size in WORKLOAD_SIZES.items():
        workload = generate_homogeneous_workload(size, seed=SEED)
        evaluation = WhatIfOptimizer(schema)
        for advisor in (make_advisor("cophy", schema), make_advisor("relaxation", schema),
                        make_advisor("dta", schema)):
            run = run_advisor(advisor, evaluation, workload, [budget])
            times[advisor.name][paper_size] = run.recommendation.total_seconds
            calls[advisor.name][paper_size] = run.recommendation.whatif_calls
            rows.append({
                "paper workload": paper_size,
                "reduced workload": size,
                "advisor": advisor.name,
                "paper minutes": _PAPER_MINUTES[advisor.name][paper_size],
                "measured seconds": round(run.recommendation.total_seconds, 2),
                "whatif calls": run.recommendation.whatif_calls,
            })
    return rows, times, calls


def test_fig4_commercial_execution_time(benchmark):
    rows, times, calls = benchmark.pedantic(_run_fig4, rounds=1, iterations=1)
    print_report("Figure 4: execution time vs workload size", format_table(rows))

    largest = max(WORKLOAD_SIZES)
    smallest = min(WORKLOAD_SIZES)
    # CoPhy is the fastest technique for the larger workloads (paper: fastest
    # for 500 and 1000 queries, at least 10x faster than Tool-A).
    assert times["cophy"][largest] < times["tool-a"][largest]
    assert calls["cophy"][largest] < calls["tool-a"][largest]
    assert calls["cophy"][largest] < calls["tool-b"][largest]
    assert calls["tool-a"][largest] / calls["cophy"][largest] > 3.0
    # Tool-A's cost grows much faster with the workload than CoPhy's: the
    # absolute time it adds when the workload quadruples dwarfs CoPhy's.
    for measure in (times, calls):
        cophy_increase = measure["cophy"][largest] - measure["cophy"][smallest]
        tool_a_increase = measure["tool-a"][largest] - measure["tool-a"][smallest]
        assert tool_a_increase > 2.0 * max(cophy_increase, 0.0)


@pytest.mark.xfail(strict=False, reason=(
    "PR 22 made the optimizer 3-4x cheaper: Tool-A reads 2.4-3.3x CoPhy's "
    "seconds (asserted > 3x) and Tool-B 0.9-1.5x (asserted > 1x)"))
def test_fig4_clock_claims_the_cheaper_optimizer_left_in_the_noise():
    _, times, _ = _run_fig4()
    largest = max(WORKLOAD_SIZES)
    assert times["cophy"][largest] < times["tool-b"][largest]
    assert times["tool-a"][largest] / times["cophy"][largest] > 3.0
