"""Figure 6(a) — continuous feedback on the distance from the optimal solution.

The paper plots the solver-reported optimality gap over time for W_250, W_500
and W_1000: the bound drops quickly during the first iterations and then
decreases slowly until the final solution; the DBA can stop early (e.g. at a
5% gap) long before the solver proves optimality.

HiGHS reports its gap once, when a solve stops, so the curve is sampled as a
ladder: one BIP per workload, solved by the production solver at falling gap
tolerances.  Each rung reports its solve time, objective, dual bound, gap and
nodes.

Reproduced shape: the reported gap never increases down the ladder, every
rung's gap is a true bound within its tolerance, the last rung proves
optimality, and the program solved grows with the workload size (BIP
variables and rows).  The seconds are printed, not asserted: every rung
closes at HiGHS's root node, so its time is the root's, and a wall-clock
ratio between instances this small is machine noise.
"""

from __future__ import annotations

from benchmarks.conftest import SEED, WORKLOAD_SIZES, make_schema, print_report, storage_budget
from repro.api import make_advisor
from repro.bench.reporting import format_table
from repro.workload.generators import generate_homogeneous_workload

#: Gap tolerances of the ladder, loosest first; 0 asks HiGHS for the optimum.
_TOLERANCES = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0)


def _run_fig6a():
    schema = make_schema(0.0)
    budget = storage_budget(schema, 1.0)
    rows = []
    ladders = {}
    sizes = {}
    for paper_size, size in WORKLOAD_SIZES.items():
        workload = generate_homogeneous_workload(size, seed=SEED)
        advisor = make_advisor("cophy", schema)
        bip = advisor.build_bip(workload)
        sizes[paper_size] = (bip.model.variable_count,
                             bip.model.constraint_count)
        ladder = []
        for tolerance in _TOLERANCES:
            report = advisor.solver.solve(bip, hard_constraints=[budget],
                                          gap_tolerance=tolerance)
            ladder.append((tolerance, report))
            rows.append({
                "paper workload": paper_size,
                "variables": sizes[paper_size][0],
                "rows": sizes[paper_size][1],
                "tolerance %": round(100 * tolerance, 1),
                "solve s": round(report.solve_seconds, 3),
                "objective": round(report.objective, 1),
                "dual bound": round(report.solution.best_bound, 1),
                "gap %": round(100 * report.gap, 2),
                "nodes": report.solution.nodes_explored,
            })
        ladders[paper_size] = ladder
    return rows, ladders, sizes


def test_fig6a_gap_feedback(benchmark):
    rows, ladders, sizes = benchmark.pedantic(_run_fig6a, rounds=1,
                                              iterations=1)
    print_report("Figure 6(a): optimality gap against solve time",
                 format_table(rows))

    time_to_5_percent = {}
    for paper_size, ladder in ladders.items():
        gaps = [report.gap for _tolerance, report in ladder]
        # The reported distance from the optimum never increases.
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:])), gaps
        for tolerance, report in ladder:
            # A true bound: the incumbent is within the gap of the optimum.
            assert report.gap <= tolerance + 1e-9, (paper_size, tolerance)
            assert report.solution.best_bound <= report.objective * (1 + 1e-9)
        # The last rung proves optimality.
        assert gaps[-1] <= 1e-9
        time_to_5_percent[paper_size] = next(
            report.solve_seconds for _tolerance, report in ladder
            if report.gap <= 0.05)
    print("seconds to a 5% gap:", time_to_5_percent)
    # Larger workloads pose larger programs: more BIP variables and rows.
    for measure in (0, 1):
        assert (sizes[250][measure] < sizes[500][measure]
                < sizes[1000][measure]), sizes
