"""Benchmark: scale-out tuning (compress + partition + merge) vs one BIP.

The tentpole claim of the scale-out PR: on a 200-statement heterogeneous
workload, the divide-and-conquer pipeline — workload compression into
weighted representatives, ≥ 4 interaction-graph shards solved through the
process-pool executor, and a merge BIP over the per-shard winners —
recommends a configuration whose evaluated workload cost is within 5% of the
monolithic BIP's.  Both tunes are timed once and reported; the timing is not
asserted (``perfbench/`` workload ``scaleout_300`` measures the pipeline with
noise accounting).

The workload is the compressible-plus-incompressible mix real systems see:
170 statements instantiated from the fifteen TPC-H templates with random
constants (what workload compression is for) blended with 30 ad-hoc C2-style
SPJ/aggregation statements from the ``W_het`` generator (which defeat
compression by construction — they ride through the pipeline uncompressed),
with ~10% UPDATE statements mixed in by both generators.

Both recommendations are evaluated with one fresh INUM cache (a single
workload-tensor reduction per configuration), so the quality comparison is
independent of either advisor's internal state.  On a single-core runner the
process pool degrades to inline shard solves.
"""

from __future__ import annotations

import os
import time

from repro.api import make_advisor
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import (
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
)
from repro.workload.workload import Workload

from benchmarks.conftest import SEED, make_schema, print_report, storage_budget

STATEMENT_COUNT = 200
TEMPLATED_COUNT = 170
ADHOC_COUNT = 30
SHARD_COUNT = 4
MAX_COST_ERROR = 1.0
QUALITY_BOUND = 1.05


def _mixed_workload() -> Workload:
    templated = generate_homogeneous_workload(TEMPLATED_COUNT, seed=SEED)
    adhoc = generate_heterogeneous_workload(ADHOC_COUNT, seed=SEED + 1)
    return Workload([*templated.statements, *adhoc.statements],
                    name=f"W_mixed_{STATEMENT_COUNT}")


def _timed(tune):
    started = time.perf_counter()
    recommendation = tune()
    return time.perf_counter() - started, recommendation


def test_scaleout_quality_and_speed():
    schema = make_schema(0.0)
    workload = _mixed_workload()
    assert len(workload) == STATEMENT_COUNT
    budget = storage_budget(schema, 0.5)

    monolithic_seconds, monolithic = _timed(
        lambda: make_advisor("cophy", schema).tune(workload, constraints=[budget]))

    scaled_seconds, scaled = _timed(
        lambda: make_advisor("scaleout", schema, signature="structural",
                             max_cost_error=MAX_COST_ERROR,
                             shard_count=SHARD_COUNT,
                             shard_workers=os.cpu_count()).tune(
            workload, constraints=[budget]))

    compression = scaled.extras["compression"]
    partition = scaled.extras["partition"]
    assert partition["shards"] >= SHARD_COUNT
    assert compression["representatives"] < STATEMENT_COUNT

    # One fresh evaluator for both configurations: a single tensor reduction
    # per configuration, independent of either advisor's caches.
    evaluator = InumCache(WhatIfOptimizer(schema))
    evaluator.prepare(workload, (*monolithic.configuration,
                                 *scaled.configuration))
    monolithic_cost = evaluator.workload_cost(workload,
                                              monolithic.configuration)
    scaled_cost = evaluator.workload_cost(workload, scaled.configuration)
    quality = scaled_cost / monolithic_cost

    print_report(
        "Scale-out tuning vs monolithic BIP (200-statement mixed workload)",
        f"workload: {workload.summary()}\n"
        f"monolithic: {monolithic_seconds:6.2f}s, "
        f"{monolithic.index_count} indexes, "
        f"evaluated cost {monolithic_cost:,.0f}\n"
        f"scale-out:  {scaled_seconds:6.2f}s, "
        f"{scaled.index_count} indexes, "
        f"evaluated cost {scaled_cost:,.0f}\n"
        f"  representatives: {compression['representatives']} "
        f"(ratio {compression['ratio']:.2f}, "
        f"max_cost_error {MAX_COST_ERROR})\n"
        f"  shards: {partition['shards']} "
        f"({scaled.extras['shard_workers']} worker(s))\n"
        f"quality:  {quality:6.4f}x monolithic cost "
        f"(bound <= {QUALITY_BOUND})")

    assert quality <= QUALITY_BOUND, (
        f"scale-out recommendation costs {quality:.4f}x the monolithic one "
        f"(bound {QUALITY_BOUND}x)")
