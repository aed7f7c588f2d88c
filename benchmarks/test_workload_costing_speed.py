"""Microbenchmark: workload-tensor costing vs the per-query gamma-matrix loop.

Times ``InumCache.workload_cost`` on a 50-query x 100-candidate TPC-H
workload answered through the stacked workload gamma tensor against the
per-query Python loop (PR 1's path: one ``QueryGammaMatrix.cost`` call per
statement) and reports both; the ratio is not asserted (``perfbench/``'s
``inum.statement_costs_ms`` row is the tracked measurement).  Costs must be
bit-identical on every tested configuration.

The timed pattern mirrors configuration-enumeration loops (knapsack greedies,
relaxation searches): every ``workload_cost`` call probes a *fresh, distinct*
configuration, so neither side benefits from its per-configuration memo — the
measurement isolates the stacked reduction against the per-query loop.  The
memoized (repeated-configuration) pattern is reported as well.
"""

from __future__ import annotations

import gc
import random
import time

from repro.catalog.tpch import tpch_schema
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import generate_homogeneous_workload
from repro.workload.workload import Workload

from benchmarks.conftest import print_report

QUERY_COUNT = 50
CANDIDATE_COUNT = 100
#: Fresh configurations timed per side (no memo hits on either path).
COLD_PROBES = 150
#: Distinct configurations in the repeated (memoized) probe pool.
WARM_POOL = 40
WARM_ROUNDS = 3


def _per_query_workload_cost(inum: InumCache, workload: Workload,
                             configuration: Configuration) -> float:
    """PR 1's ``workload_cost``: a Python loop over per-query matrix costings."""
    total = 0.0
    for statement in workload:
        total += statement.weight * inum.statement_cost(statement.query,
                                                        configuration)
    return total


def _setup():
    schema = tpch_schema(scale_factor=0.01)
    workload = generate_homogeneous_workload(QUERY_COUNT, seed=11)
    optimizer = WhatIfOptimizer(schema)
    candidates = list(CandidateGenerator(schema).generate(workload))
    assert len(candidates) >= CANDIDATE_COUNT
    pool = candidates[:CANDIDATE_COUNT]
    inum = InumCache(optimizer)
    inum.prepare(workload, pool)
    return workload, inum, pool


def test_workload_cost_tensor_speedup():
    workload, inum, pool = _setup()
    rng = random.Random(7)

    def fresh_configurations(count: int) -> list[Configuration]:
        return [Configuration(rng.sample(pool, CANDIDATE_COUNT * 3 // 5))
                for _ in range(count)]

    # Headline correctness claim: bit-identical costs on every tested
    # configuration (empty, full and random subsets).
    for configuration in (Configuration(), Configuration(pool),
                          *fresh_configurations(10)):
        assert (inum.workload_cost(workload, configuration)
                == _per_query_workload_cost(inum, workload, configuration))

    # Cold pattern: every probe is a distinct, never-seen configuration.
    # GC is paused around the timed loops: both sides allocate enough to
    # trigger collections, and a full-suite run carries a heap large enough
    # (hundreds of collected tests, session fixtures) that gen-2 pauses
    # inside the sub-millisecond tensor reductions would otherwise dominate
    # the measurement — the benchmark compares costing paths, not the
    # garbage collector.
    slow_probes = fresh_configurations(COLD_PROBES)
    fast_probes = fresh_configurations(COLD_PROBES)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for configuration in slow_probes:
            _per_query_workload_cost(inum, workload, configuration)
        cold_slow = (time.perf_counter() - started) / COLD_PROBES
        started = time.perf_counter()
        for configuration in fast_probes:
            inum.workload_cost(workload, configuration)
        cold_fast = (time.perf_counter() - started) / COLD_PROBES
    finally:
        gc.enable()
    cold_speedup = cold_slow / cold_fast

    # Warm pattern: a fixed probe pool re-costed round after round (what
    # advisor loops do); both sides serve repeats from their caches.
    warm_pool = fresh_configurations(WARM_POOL)
    for configuration in warm_pool:  # warm both paths
        inum.workload_cost(workload, configuration)
        _per_query_workload_cost(inum, workload, configuration)
    warm_slow = min(
        _timed(lambda: [_per_query_workload_cost(inum, workload, c)
                        for c in warm_pool])
        for _ in range(WARM_ROUNDS)) / WARM_POOL
    warm_fast = min(
        _timed(lambda: [inum.workload_cost(workload, c) for c in warm_pool])
        for _ in range(WARM_ROUNDS)) / WARM_POOL
    warm_speedup = warm_slow / warm_fast

    tensor = inum.workload_tensor(workload)
    print_report(
        "Workload costing microbenchmark (gamma tensor vs per-query loop)",
        f"workload: {QUERY_COUNT} TPC-H statements, "
        f"{CANDIDATE_COUNT}-candidate pool, tensor {tensor.shape} "
        f"({tensor.nbytes / 1e6:.1f} MB)\n"
        f"cold (fresh configurations):\n"
        f"  per-query loop: {cold_slow * 1e3:8.3f} ms / workload_cost\n"
        f"  tensor:         {cold_fast * 1e3:8.3f} ms / workload_cost\n"
        f"  speedup:        {cold_speedup:8.1f}x\n"
        f"warm (memoized probe pool):\n"
        f"  per-query loop: {warm_slow * 1e3:8.3f} ms / workload_cost\n"
        f"  tensor:         {warm_fast * 1e3:8.3f} ms / workload_cost\n"
        f"  speedup:        {warm_speedup:8.1f}x")


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started
