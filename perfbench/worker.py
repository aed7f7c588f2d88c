"""One workload's process: runs rounds on command, checks what they return.

The driver (``run.py``) starts one worker per workload and keeps it blocked on
its stdin pipe between rounds, so rounds of different workloads interleave
without sharing an interpreter, a heap or a peak-RSS reading.  Commands and
replies are one JSON object per line; everything else the process (or a pool
child it forks) prints goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any

import numpy
import scipy
from repro import (
    Configuration,
    IndexCountConstraint,
    InumCache,
    StorageBudgetConstraint,
    Tuner,
    TuningRequest,
    WhatIfOptimizer,
)
from repro.indexes import index_size_bytes

from perfbench.calibrate import REFERENCE_S
from perfbench.workloads import WORKLOADS, BenchWorkload, Sample

#: Served results compared against an embedded ``Tuner`` on the same request.
PARITY_SAMPLES = 3


def op_limits(request: TuningRequest) -> tuple[float | None, float | None]:
    """The storage (bytes) and index-count limits a request's result must meet."""
    storage_limit = index_limit = None
    for constraint in request.constraints:
        if isinstance(constraint, StorageBudgetConstraint):
            storage_limit = constraint.budget_bytes
        elif isinstance(constraint, IndexCountConstraint):
            index_limit = constraint.limit
    return storage_limit, index_limit


def violation(workload: BenchWorkload, position: int, sample: Sample
              ) -> str | None:
    """Why op ``position`` failed this round, or ``None``."""
    if sample.error is not None:
        return sample.error
    request, chosen = workload.ops[position], sample.configuration
    storage_limit, index_limit = op_limits(request)
    if index_limit is not None and len(chosen) > index_limit:
        return f"{len(chosen)} indexes exceed the cap of {index_limit}"
    if storage_limit is not None:
        used = sum(index_size_bytes(index, request.schema.table(index.table))
                   for index in chosen)
        if used > storage_limit * (1.0 + 1e-9):
            return f"{used:.0f} bytes exceed the budget of {storage_limit:.0f}"
    return None


class Worker:
    def __init__(self, workload: BenchWorkload) -> None:
        self.workload = workload
        #: The last round's requests and samples, for the post-timing checks.
        self.last_ops: list = []
        self.last_samples: list[Sample] = []

    def versions(self) -> dict[str, str]:
        return {"numpy": numpy.__version__, "scipy": scipy.__version__}

    def warmup(self) -> dict[str, Any]:
        """The one discarded pass: imports, solver libraries, pools."""
        self.workload.setup()
        try:
            self.workload.execute(limit=self.workload.warmup_ops)
        finally:
            self.workload.teardown()
        return {}

    def round(self) -> dict[str, Any]:
        workload = self.workload
        started = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - started
        try:
            gc.collect()
            done = workload.execute()
            samples = done.samples
            failures = {position: reason
                        for position, sample in enumerate(samples)
                        if (reason := violation(workload, position, sample))}
            self.last_ops, self.last_samples = list(workload.ops), samples
        finally:
            workload.teardown()
        # Host slowdown of this round; every time below is divided by it.
        slowdown = statistics.median(done.kernel_s) / REFERENCE_S
        return {
            "setup_s": setup_s / slowdown, "busy_s": done.busy_s / slowdown,
            "cpu_s": done.cpu_s / slowdown, "slowdown": slowdown,
            "raw_s": setup_s + done.busy_s,
            "latencies_ms": [sample.latency_s * 1000.0 / slowdown
                             for sample in samples],
            "fingerprints": [sample.fingerprint for sample in samples],
            "failures": failures,
        }

    def finish(self) -> dict[str, Any]:
        """Quality and parity checks on the last round, after all timing.

        ``cost_ratio`` is recomputed here from the recommended configuration
        with a fresh optimizer and INUM cache per distinct workload, so it
        never trusts a number the timed code reported about itself.
        """
        caches: dict[int, tuple[InumCache, float]] = {}
        ratios: list[float | None] = []
        for request, sample in zip(self.last_ops, self.last_samples):
            if sample.configuration is None:
                ratios.append(None)
                continue
            key = id(request.workload)
            if key not in caches:
                inum = InumCache(WhatIfOptimizer(request.schema))
                caches[key] = (inum, inum.workload_cost(request.workload,
                                                        Configuration()))
            inum, empty_cost = caches[key]
            ratios.append(inum.workload_cost(
                request.workload, sample.configuration) / empty_cost)
        return {
            "cost_ratios": ratios,
            "parity_failures": self.parity_failures(),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def parity_failures(self) -> dict[int, str]:
        """Served ops whose result differs from an embedded ``Tuner``'s.

        Only ops the server did not have to namespace are comparable bit for
        bit (a renamed statement changes the provenance, not the decision),
        and only warm against warm (the fingerprint covers the what-if call
        count): the reference is the second of two tunes on one ``Tuner``.
        """
        if not self.workload.served:
            return {}
        failures: dict[int, str] = {}
        seen: set[str] = set()
        for position, (request, sample) in enumerate(
                zip(self.last_ops, self.last_samples)):
            if (len(seen) >= PARITY_SAMPLES or sample.fingerprint is None
                    or request.request_id in seen or sample.namespaced):
                continue
            seen.add(request.request_id)
            tuner = Tuner()
            tuner.tune(request)
            if tuner.tune(request).fingerprint() != sample.fingerprint:
                failures[position] = "served result differs from embedded Tuner"
        return failures


def serve(worker: Worker, commands, replies) -> None:
    for line in commands:
        command = json.loads(line)
        name = command.pop("cmd")
        if name == "replay":
            from perfbench.layers import replay_workload
            reply = replay_workload(worker.workload, **command)
        else:
            reply = getattr(worker, name)(**command)
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # Keep the reply pipe to ourselves: stray prints (ours or a forked pool
    # child's) must not corrupt the protocol.
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    worker = Worker(WORKLOADS[args.workload](args.seed, args.smoke))
    try:
        serve(worker, sys.stdin, replies)
    finally:
        worker.workload.teardown()


if __name__ == "__main__":
    main()
