"""Figure 6(c) — time to generate the Pareto-optimal curve for a soft constraint.

The paper replaces the hard storage budget with the soft constraint
``sum size(a) = 0`` and generates five representative Pareto points (lambda in
{0, 0.25, 0.5, 0.75, 1}).  The first point costs 293.5 seconds (it includes
INUM and the BIP build); the subsequent points cost 11-16 seconds each because
the solver reuses the earlier computation — a ~4x speed-up over re-computing
every point from scratch.

Reproduced shape: the first Pareto point is by far the most expensive; later
points, which re-solve the BIP already built, are several times cheaper; the
resulting points trace a monotone storage-vs-cost trade-off.
"""

from __future__ import annotations

from benchmarks.conftest import SEED, WORKLOAD_SIZES, make_schema, print_report, storage_budget
from repro.api import make_advisor
from repro.bench.reporting import format_table
from repro.core.constraints import StorageBudgetConstraint
from repro.workload.generators import generate_homogeneous_workload

_PAPER_SECONDS = {0.0: 293.5, 0.25: 12.1, 0.5: 16.2, 0.75: 12.5, 1.0: 11.0}
_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _run_fig6c():
    schema = make_schema(0.0)
    workload = generate_homogeneous_workload(WORKLOAD_SIZES[1000], seed=SEED)
    advisor = make_advisor("cophy", schema)
    soft = StorageBudgetConstraint(0.0).soft(target=0.0)

    import time

    started = time.perf_counter()
    bip = advisor.build_bip(workload)
    setup_seconds = time.perf_counter() - started

    from repro.core.soft_constraints import ParetoExplorer

    explorer = ParetoExplorer(advisor.solver)
    points = explorer.explore(bip, [soft], lambdas=_LAMBDAS)

    rows = []
    for position, point in enumerate(points):
        measured = point.solve_seconds + (setup_seconds if position == 0 else 0.0)
        rows.append({
            "lambda": point.lambda_value,
            "paper seconds": _PAPER_SECONDS[point.lambda_value],
            "measured s": round(measured, 3),
            "workload cost": round(point.workload_cost, 1),
            "storage MB": round(point.measure / 1e6, 2),
        })
    return rows, points, setup_seconds


def test_fig6c_soft_constraint_pareto(benchmark):
    rows, points, setup_seconds = benchmark.pedantic(_run_fig6c, rounds=1,
                                                     iterations=1)
    print_report("Figure 6(c): Pareto curve generation for a soft storage "
                 "constraint", format_table(rows))

    first_cost = points[0].solve_seconds + setup_seconds
    later_costs = [point.solve_seconds for point in points[1:]]
    # The first point carries the INUM + build cost; later points are much cheaper.
    assert max(later_costs) < first_cost
    assert min(later_costs) < 0.5 * first_cost
    # The trade-off is monotone: more weight on workload cost (larger lambda)
    # never increases cost and never decreases storage.
    costs = [point.workload_cost for point in points]
    storages = [point.measure for point in points]
    assert all(b <= a + 1e-6 for a, b in zip(costs, costs[1:]))
    assert all(b >= a - 1e-6 for a, b in zip(storages, storages[1:]))
