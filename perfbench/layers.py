"""The per-layer pass: a staged replay of a workload's first ops.

For each replayed op, every layer's public function is called directly, in
pipeline order, on the op's own request, with the cache state the op meets in
its workload (cold, or primed by the request that warmed it).  Each call is a
span ``{name, op, start, end, parent}`` kept in memory and written out when
the pass ends; counts are read at the same boundaries.  Layers the op's own
pipeline skips (``scale`` on a plain CoPhy request, the BIP on a heuristic
one) are still replayed on its inputs, so every metric exists on every
workload; ``layers.coverage_ratio`` adds up only the stages the op's pipeline
really runs and divides by ``Tuner.tune`` for the same op.

Times are divided by the host slowdown read from the calibration kernel around
each op, like the end-to-end times.  End-to-end numbers never come from here.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
import threading
import time
from typing import Any, Iterator

from repro import (
    Configuration,
    InumCache,
    ScaleSpec,
    StorageBudgetConstraint,
    Tuner,
    TuningRequest,
    TuningResult,
    TuningService,
    WhatIfOptimizer,
)
from repro.api import SchemaContext
from repro.core import CoPhySolver
from repro.core.bip_builder import BipBuilder
from repro.core.heuristics import greedy_knapsack
from repro.indexes import CandidateGenerator
from repro.scale import (
    ShardExecutor,
    compress_workload,
    partition_workload,
    split_budget,
)
from repro.server import (
    SchemaCache,
    TuningClient,
    TuningServer,
    decode_request,
    encode_request,
)

from perfbench.calibrate import REFERENCE_S, kernel
from perfbench.stats import atomic_write_json
from perfbench.workloads import BenchWorkload

#: Per-layer metric -> unit.  Every traced run reports every one of them.
LAYER_METRICS = {
    "server.encode_request_ms": "ms", "server.decode_request_ms": "ms",
    "server.result_codec_ms": "ms", "server.request_bytes": "B",
    "server.response_bytes": "B", "server.http_overhead_ms": "ms",
    "api.canonicalize_ms": "ms", "api.admission_ms": "ms",
    "api.facade_overhead_ms": "ms", "api.wait_ms": "ms",
    "indexes.candidates_ms": "ms", "indexes.candidates_n": "count",
    "optimizer.whatif_calls_per_op": "count",
    "inum.prepare_cold_ms": "ms", "inum.prepare_warm_ms": "ms",
    "inum.template_builds_per_op": "count", "inum.statement_costs_ms": "ms",
    "inum.statement_costs_hit_ms": "ms", "inum.tensor_mb": "MB",
    "core.greedy_ms": "ms", "core.greedy_probes": "count",
    "core.greedy_us_per_probe": "us", "core.bip_build_ms": "ms",
    "core.bip_variables": "count", "core.bip_constraints": "count",
    "core.solve_ms": "ms", "core.solve_gap": "ratio",
    "scale.compress_ms": "ms", "scale.representatives": "count",
    "scale.partition_ms": "ms", "scale.shards": "count",
    "scale.shard_solve_ms": "ms", "scale.shard_solve_inline_ms": "ms",
    "scale.pool_speedup": "ratio", "scale.merge_ms": "ms",
    "obs.tracing_overhead_ratio": "ratio", "reliability.retries_per_op": "count",
    "harness.round_spread": "ratio", "harness.host_slowdown": "ratio",
    "layers.coverage_ratio": "ratio",
}
#: ``harness.steal_share`` is added by the driver, which owns ``/proc/stat``.
DRIVER_METRICS = {"harness.steal_share": "ratio"}

#: The scale-out knobs replayed on requests that carry no ``ScaleSpec``.
DEFAULT_SCALE = ScaleSpec(shard_count=4, shard_workers=2, max_cost_error=1.0)


def is_time(name: str) -> bool:
    """Whether a replay value is a duration (and so divided by the slowdown)."""
    return name.endswith(("_ms", "_us_per_probe"))


class Spans:
    """In-memory span log of one traced pass."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: str) -> Iterator[dict[str, Any]]:
        record = {"name": name, "op": op, "start": time.perf_counter(),
                  "end": None,
                  "parent": self._open[-1] if self._open else None}
        self.records.append(record)
        self._open.append(len(self.records) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()


class OpReplay:
    """Every layer once, on one request; raw milliseconds and counts in ``out``."""

    def __init__(self, request: TuningRequest, primer: TuningRequest | None,
                 spans: Spans, op: str) -> None:
        self.request, self.primer = request, primer
        self.spans, self.op = spans, op
        self.spec = request.scale or DEFAULT_SCALE
        self.out: dict[str, float] = {}

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        # Collect first, untimed: a stage must not pay for walking the
        # garbage (BIP models, results) the stages before it left behind.
        gc.collect()
        with self.spans.span(name, self.op) as record:
            yield
        self.out[f"{name}_ms"] = \
            (time.perf_counter() - record["start"]) * 1000.0

    def run(self) -> dict[str, float]:
        compressed, candidates = self.costing_and_core()
        scaled = self.scale(compressed, candidates)
        service, result = self.facade()
        self.server(service, result)
        self.out["reliability.retries_per_op"] = (
            result.diagnostics.retries + scaled.diagnostics.retries)
        self.coverage()
        return self.out

    def costing_and_core(self):
        """indexes, optimizer, inum and core on the workload the BIP is for."""
        request, out, stage = self.request, self.out, self.stage
        schema, constraints = request.schema, request.constraints
        optimizer = WhatIfOptimizer(schema)
        inum = InumCache(optimizer)

        # scale.compress comes first: a scale-out request runs every later
        # stage on the representatives, not on the statements it was sent.
        with stage("scale.compress"):
            compressed = compress_workload(
                request.workload, signature=self.spec.signature,
                max_cost_error=self.spec.max_cost_error)
        out["scale.representatives"] = len(compressed.workload)
        target = compressed.workload if request.scale else request.workload

        with stage("indexes.candidates"):
            candidates = CandidateGenerator(schema).generate(target)
        out["indexes.candidates_n"] = len(candidates)

        with stage("inum.prepare_cold"):
            inum.prepare(target, candidates)
        # The stack's own definition of a what-if call: optimizer invocations
        # plus template plans built (each one is an optimizer plan search).
        out["inum.template_builds_per_op"] = inum.template_build_calls
        out["optimizer.whatif_calls_per_op"] = (optimizer.whatif_calls
                                                + inum.template_build_calls)
        with stage("inum.prepare_warm"):
            inum.prepare(target, candidates)
        out["inum.tensor_mb"] = inum.workload_tensor(target).nbytes / 2 ** 20

        # A configuration no other stage costs, so the first call cannot hit.
        probe = Configuration(candidates.indexes[::2])
        with stage("inum.statement_costs"):
            inum.statement_costs(target, probe)
        with stage("inum.statement_costs_hit"):
            inum.statement_costs(target, probe)

        if self.primer is not None:  # leaves the memo the primer leaves
            greedy_knapsack(inum, target, candidates, self.primer.constraints)
        with stage("core.greedy"):
            greedy = greedy_knapsack(inum, target, candidates, constraints)
        out["core.greedy_probes"] = greedy.probes
        out["core.greedy_us_per_probe"] = \
            out["core.greedy_ms"] * 1000.0 / max(greedy.probes, 1)
        with stage("core.bip_build"):
            bip = BipBuilder(inum).build(target, candidates)
        out["core.bip_variables"] = bip.statistics["variables"]
        out["core.bip_constraints"] = bip.statistics["constraints"]
        with stage("core.solve"):  # lp runs beneath
            report = CoPhySolver().solve(bip, hard_constraints=constraints)
        out["core.solve_gap"] = report.gap
        return compressed, candidates

    def scale(self, compressed, candidates) -> TuningResult:
        """partition, pooled and inline shard solves, and a scale-out tune."""
        request, out, stage, spec = self.request, self.out, self.stage, self.spec
        schema = request.schema
        storage_bytes = next((c.budget_bytes for c in request.constraints
                              if isinstance(c, StorageBudgetConstraint)), None)
        if not request.scale:
            candidates = CandidateGenerator(schema).generate(
                compressed.workload)
        with stage("scale.partition"):
            plan = split_budget(
                partition_workload(compressed.workload, candidates,
                                   shard_count=spec.shard_count),
                candidates, storage_bytes,
                oversubscription=spec.budget_oversubscription)
        out["scale.shards"] = plan.shard_count
        for name, workers in (("scale.shard_solve", spec.shard_workers or 2),
                              ("scale.shard_solve_inline", 1)):
            with stage(name):
                ShardExecutor(workers=workers).solve_shards(
                    plan, schema, inum=InumCache(WhatIfOptimizer(schema)))
        out["scale.pool_speedup"] = (out["scale.shard_solve_inline_ms"]
                                     / out["scale.shard_solve_ms"])
        scaled = Tuner().tune(TuningRequest(
            workload=request.workload, schema=schema,
            constraints=request.constraints, scale=spec))
        # Program-reported: the merge BIP is not reachable as a public call.
        out["scale.merge_ms"] = scaled.diagnostics.timings["merge"] * 1000.0
        return scaled

    def facade(self) -> tuple[TuningService, TuningResult]:
        """``Tuner.tune`` for the op as its workload meets it, and around it."""
        request, primer, out, stage = \
            self.request, self.primer, self.out, self.stage
        # Admission: the facade fingerprints every statement of the workload
        # to find (or register) its canonical object, on every request.
        context = SchemaContext(request.schema, request.costing)
        if primer is not None:
            context.canonical_workload(primer.workload)
        with stage("api.canonicalize"):
            context.canonical_workload(request.workload)

        tuner = Tuner()
        if primer is not None:
            tuner.tune(primer)
        with stage("api.tune"):
            result = tuner.tune(request)
        with stage("api.tune_again"):
            tuner.tune(request)
        untraced = Tuner(tracing=False)
        untraced.tune(request)
        with stage("obs.tune_untraced"):
            untraced.tune(request)
        out["obs.tracing_overhead_ratio"] = \
            out["api.tune_again_ms"] / out["obs.tune_untraced_ms"]
        service = TuningService(tuner=tuner, namespace_statements=True)
        with stage("api.service_tune"):
            service.tune(request)
        out["api.admission_ms"] = \
            out["api.service_tune_ms"] - out["api.tune_again_ms"]
        return service, result

    def server(self, service: TuningService, result: TuningResult) -> None:
        """The codecs on their own, then the op through a live server."""
        request, out, stage = self.request, self.out, self.stage
        with stage("server.encode_request"):
            body = json.dumps(encode_request(request)).encode("utf-8")
        schema_cache = SchemaCache()
        decode_request(json.loads(body), schema_cache=schema_cache)
        with stage("server.decode_request"):  # steady state: schema cache hit
            decode_request(json.loads(body), schema_cache=schema_cache)
        with stage("server.result_codec"):
            text = json.dumps({"result": result.to_payload()})
            TuningResult.from_payload(json.loads(text)["result"])
        out["server.request_bytes"] = len(body)
        out["server.response_bytes"] = len(text)
        with TuningServer(service=service) as server:
            client = TuningClient(server.url)
            client.tune(request)  # the decoded schema opens its own context
            with stage("server.served"):
                client.tune(request)
            waits: list[float] = []

            def contend() -> None:
                root = TuningClient(server.url).tune(
                    request).extras["trace"]["root"]["attrs"]
                waits.append(root.get("lock_wait_ms", 0.0)
                             + root.get("queue_wait_ms", 0.0))

            threads = [threading.Thread(target=contend) for _ in range(2)]
            with stage("api.contended"):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        out["api.wait_ms"] = statistics.median(waits)  # program-reported
        out["server.http_overhead_ms"] = (
            out["server.served_ms"] - out["server.encode_request_ms"]
            - out["server.decode_request_ms"] - out["server.result_codec_ms"]
            - out["api.service_tune_ms"])

    def coverage(self) -> None:
        """Staged time of the stages the op's own pipeline runs, over its tune."""
        request, out = self.request, self.out
        if request.scale:
            pipeline = ["scale.compress", "indexes.candidates",
                        "scale.partition", "scale.shard_solve", "scale.merge"]
        else:
            prepare = "inum.prepare_warm" if self.primer is not None \
                else "inum.prepare_cold"
            if request.resolved_advisor().solve_tier == "heuristic":
                pipeline = ["indexes.candidates", prepare, "core.greedy",
                            "inum.statement_costs_hit"]
            else:
                pipeline = ["indexes.candidates", prepare, "core.bip_build",
                            "core.solve", "inum.statement_costs"]
        pipeline.append("api.canonicalize")
        staged_ms = sum(out[f"{name}_ms"] for name in pipeline)
        out["api.facade_overhead_ms"] = out["api.tune_ms"] - staged_ms
        out["layers.coverage_ratio"] = staged_ms / out["api.tune_ms"]


def replay_workload(workload: BenchWorkload, seconds: float, smoke: bool,
                    trace_path: str) -> dict[str, Any]:
    """Replay the workload's first ops in whole passes until time is up."""
    spans = Spans()
    started = time.perf_counter()
    workload.setup()
    try:
        ops = workload.ops[:1 if smoke else workload.replay_ops]
        primers = [workload.primer(request) for request in ops]
    finally:
        workload.teardown()
    passes: list[list[dict[str, float]]] = []
    walls: list[float] = []
    slowdowns: list[float] = []
    while True:
        pass_started = time.perf_counter()
        rows = []
        for position, (request, primer) in enumerate(zip(ops, primers)):
            op = f"{workload.name}/{position}/{len(passes)}"
            before = kernel()
            with spans.span("op", op):
                row = OpReplay(request, primer, spans, op).run()
            slowdown = (before + kernel()) / 2.0 / REFERENCE_S
            slowdowns.append(slowdown)
            rows.append({name: value / slowdown if is_time(name) else value
                         for name, value in row.items()})
        passes.append(rows)
        walls.append(time.perf_counter() - pass_started)
        elapsed = time.perf_counter() - started
        if smoke or elapsed + statistics.mean(walls) > seconds:
            break
    values = {
        name: statistics.median(
            statistics.median(rows[position][name] for rows in passes)
            for position in range(len(ops)))
        for name in passes[0][0]}
    values["harness.round_spread"] = \
        (max(walls) - min(walls)) / statistics.median(walls)
    values["harness.host_slowdown"] = statistics.median(slowdowns)
    atomic_write_json(trace_path, {"workload": workload.name,
                                   "seed": workload.seed,
                                   "spans": spans.records})
    return {"ops": len(ops), "repeats": len(passes),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in LAYER_METRICS.items()}}
