"""The four workloads: a seeded, fixed op list each, plus its per-round set-up.

Every workload regenerates its inputs from the seed inside ``setup()``, so a
round never inherits memoised state (cached hashes, canonical workloads,
tensors) from the round before it, and two rounds of one run — or of two runs
with the same seed — execute exactly the same requests.  ``src/`` only ever
sees the generated ``TuningRequest`` objects.
"""

from __future__ import annotations

import random
import resource
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro import (
    AdvisorSpec,
    Configuration,
    IndexCountConstraint,
    ScaleSpec,
    StorageBudgetConstraint,
    Tuner,
    TuningRequest,
    TuningResult,
    Workload,
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
    tpch_schema,
)
from repro.catalog import Schema
from repro.server import TuningClient, TuningServer

from perfbench.calibrate import kernel

SCALE_FACTOR = 0.01
#: Share of UPDATE statements both generators mix in.
UPDATE_FRACTION = 0.1
#: Ops per workload under ``--smoke``.
SMOKE_OPS = 3


def derive_seed(seed: int, *labels: object) -> int:
    """A generator seed that depends on ``--seed`` and the labels only."""
    text = "/".join(str(label) for label in (seed, *labels))
    return random.Random(text).randrange(2 ** 31)


def mixed(size: int, seed: int, templated_share: float, schema: Schema
          ) -> Workload:
    """``templated_share`` TPC-H template instances, the rest ad-hoc SPJ."""
    templated = round(templated_share * size)
    statements = []
    if templated:
        statements += generate_homogeneous_workload(
            templated, seed=seed, update_fraction=UPDATE_FRACTION).statements
    if size - templated:
        statements += generate_heterogeneous_workload(
            size - templated, seed=seed + 1, update_fraction=UPDATE_FRACTION,
            schema=schema).statements
    return Workload(statements, name=f"W_mixed_{size}_{seed}")


def storage(schema: Schema, fraction: float) -> StorageBudgetConstraint:
    return StorageBudgetConstraint.from_fraction_of_data(schema, fraction)


@dataclass
class Sample:
    """One timed op: its latency and what the checks need from its outcome.

    The ``TuningResult`` itself is dropped once digested: a result drags its
    BIP along, and a heap that grew with every op would make late ops pay
    collector time early ops do not.
    """

    latency_s: float
    error: str | None = None
    fingerprint: str | None = None
    configuration: Configuration | None = None
    namespaced: bool = False
    result: TuningResult | None = None

    def digest(self) -> "Sample":
        result, self.result = self.result, None
        if result is not None:
            self.fingerprint = result.fingerprint()
            self.configuration = result.configuration
            self.namespaced = result.provenance["pipeline"]["namespaced"]
        return self


@dataclass
class Pass:
    """One pass over the op list: per-op samples plus what the pass cost."""

    samples: list[Sample] = field(default_factory=list)
    #: Seconds the ops kept the workload busy (calibration excluded).
    busy_s: float = 0.0
    #: CPU seconds of this process and its reaped children over the ops.
    cpu_s: float = 0.0
    #: Calibration-kernel seconds, sampled before, between and after chunks.
    kernel_s: list[float] = field(default_factory=list)


def cpu_seconds() -> float:
    """User+system CPU of this process and the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed_op(tune: Callable[[TuningRequest], TuningResult],
             request: TuningRequest) -> Sample:
    started = time.perf_counter()
    try:
        result = tune(request)
    except Exception as exc:  # an op that raises is a counted failure
        return Sample(time.perf_counter() - started,
                      error=f"{type(exc).__name__}: {exc}")
    return Sample(time.perf_counter() - started, result=result)


class BenchWorkload:
    """A fixed op list and the state every round rebuilds around it.

    Subclasses set the class attributes and implement :meth:`build` (inputs
    and priming) and :meth:`tune` (one op).
    """

    name = ""
    why = ""
    #: Ops per round and statements per generated workload: in a full run, and
    #: under ``--smoke`` (which checks the plumbing and measures nothing).
    op_count = 0
    statements, smoke_statements = 0, 0
    #: Ops between two runs of the calibration kernel (up to a dozen samples
    #: a round, about a tenth of its time).
    chunk = 1
    #: Leading ops of the one discarded warm-up pass, and leading ops the
    #: per-layer pass replays.
    warmup_ops = 2
    replay_ops = 2
    #: Whether ops travel through a ``TuningServer`` (enables the parity check
    #: against an embedded ``Tuner``).
    served = False
    #: Rebuilt by every ``setup()``, like everything else a round touches.
    schema: Schema

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        if smoke:
            self.op_count, self.statements = SMOKE_OPS, self.smoke_statements
        self.ops: list[TuningRequest] = []

    def setup(self) -> None:
        """Rebuild inputs and caches so the round starts from a known state."""
        self.teardown()
        self.schema = tpch_schema(scale_factor=SCALE_FACTOR)
        self.ops = self.build()

    def build(self) -> list[TuningRequest]:
        raise NotImplementedError

    def tune(self, request: TuningRequest) -> TuningResult:
        raise NotImplementedError

    def primer(self, request: TuningRequest) -> TuningRequest | None:
        """The request that warmed ``request``'s context, if an op meets one."""
        return None

    def execute(self, limit: int | None = None) -> Pass:
        """Run the op list once, the calibration kernel between its chunks."""
        ops = self.ops[:limit]
        done = Pass(kernel_s=[kernel()])
        for first in range(0, len(ops), self.chunk):
            cpu_before = cpu_seconds()
            samples, busy_s = self.run_chunk(ops[first:first + self.chunk])
            done.cpu_s += cpu_seconds() - cpu_before
            done.busy_s += busy_s
            done.samples += samples
            done.kernel_s.append(kernel())
        return done

    def run_chunk(self, ops: Sequence[TuningRequest]
                  ) -> tuple[list[Sample], float]:
        """The chunk's samples and the seconds it kept the workload busy."""
        samples = [timed_op(self.tune, request).digest() for request in ops]
        return samples, sum(sample.latency_s for sample in samples)

    def teardown(self) -> None:
        self.ops = []


class ColdTune(BenchWorkload):
    name = "cold_tune"
    why = ("Time to a recommendation from nothing: a fresh Tuner per op, so "
           "template enumeration (inum.prepare) and BIP build+solve dominate; "
           "server and scale do nothing.")
    op_count = 64
    statements, smoke_statements = 12, 8
    chunk = 8

    def build(self) -> list[TuningRequest]:
        budget = storage(self.schema, 0.5)
        return [TuningRequest(
                    workload=mixed(self.statements,
                                   derive_seed(self.seed, self.name, position),
                                   0.5, self.schema),
                    schema=self.schema, constraints=[budget],
                    request_id=f"op{position}")
                for position in range(self.op_count)]

    def tune(self, request: TuningRequest) -> TuningResult:
        return Tuner().tune(request)


class WarmServed(BenchWorkload):
    name = "warm_served"
    why = ("The DBA's what-if loop through the real wire path: two closed-loop "
           "clients against a pre-warmed server, so BIP build, solve, codecs "
           "and context-lock queueing do the work and inum.prepare is "
           "bypassed.")
    op_count = 96
    statements, smoke_statements = 8, 6
    chunk = 16
    served = True
    clients = 2
    skews = (0.0, 0.5, 1.0, 2.0)
    #: Fewer than the canonical-workload LRU of one schema context (8), so a
    #: timed op never finds its workload evicted.
    workloads_per_schema = 6
    fractions = (0.25, 0.5, 1.0, 2.0)
    index_caps = (None, 4, 8)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.skews, self.workloads_per_schema = self.skews[::3], 1
        self.server: TuningServer | None = None

    def build(self) -> list[TuningRequest]:
        self.server = TuningServer(namespace_statements=True).start()
        client = TuningClient(self.server.url)
        distinct: list[TuningRequest] = []
        for skew in self.skews:
            schema = tpch_schema(scale_factor=SCALE_FACTOR, skew=skew)
            for position in range(self.workloads_per_schema):
                workload = mixed(
                    self.statements,
                    derive_seed(self.seed, self.name, skew, position),
                    0.5, schema)
                for fraction in self.fractions:
                    for cap in self.index_caps:
                        constraints = [storage(schema, fraction)]
                        if cap is not None:
                            constraints.append(IndexCountConstraint(limit=cap))
                        distinct.append(TuningRequest(
                            workload=workload, schema=schema,
                            constraints=constraints,
                            request_id=f"z{skew:g}w{position}"
                                       f"m{fraction:g}k{cap}"))
                # Pre-warm: one request per (schema, workload) pays the
                # template enumeration so no timed op does.
                client.tune(self.primer(distinct[-1]))
        rng = random.Random(derive_seed(self.seed, self.name, "draw"))
        return [rng.choice(distinct) for _ in range(self.op_count)]

    def primer(self, request: TuningRequest) -> TuningRequest:
        return replace(request, request_id="primer", constraints=[
            storage(request.schema, self.fractions[-1]),
            IndexCountConstraint(limit=self.index_caps[-1])])

    def run_chunk(self, ops: Sequence[TuningRequest]
                  ) -> tuple[list[Sample], float]:
        """Client ``k`` sends ops ``k::clients`` back to back (closed loop)."""
        samples: list[Sample | None] = [None] * len(ops)

        def client_loop(first: int) -> None:
            client = TuningClient(self.server.url)
            for position in range(first, len(ops), self.clients):
                samples[position] = timed_op(client.tune, ops[position])

        threads = [threading.Thread(target=client_loop, args=(first,))
                   for first in range(self.clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        busy_s = time.perf_counter() - started
        return [sample.digest() for sample in samples], busy_s

    def teardown(self) -> None:
        super().teardown()
        if self.server is not None:
            self.server.stop()
            self.server = None


class HeuristicSweep(BenchWorkload):
    name = "heuristic_sweep"
    why = ("Fig. 8's budget sweep on the anytime tier: never builds a BIP, "
           "reads the gamma tensor hundreds of times per op (greedy probes) "
           "and redoes candidate generation per request — the opposite use "
           "of inum from cold_tune.")
    op_count = 75
    statements, smoke_statements = 100, 30
    chunk = 15
    replay_ops = 1
    #: Primed contexts the sweep alternates over, one Tuner each (an embedded
    #: Tuner rejects two workloads that reuse statement names).
    contexts = 3

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.tuners: dict[int, Tuner] = {}

    def build(self) -> list[TuningRequest]:
        workloads = [mixed(self.statements,
                           derive_seed(self.seed, self.name, position),
                           0.85, self.schema)
                     for position in range(self.contexts)]
        count = self.op_count
        fractions = [0.05 * (3.0 / 0.05) ** (step / max(count - 1, 1))
                     for step in range(count)]
        random.Random(derive_seed(self.seed, self.name, "order")
                      ).shuffle(fractions)
        ops = [TuningRequest(
                   workload=workloads[position % self.contexts],
                   schema=self.schema,
                   constraints=[storage(self.schema, fraction)],
                   advisor=AdvisorSpec("cophy", solve_tier="heuristic"),
                   request_id=f"m{fraction:.4f}")
               for position, fraction in enumerate(fractions)]
        # Prime: one request per context builds its templates and tensor.
        for request in ops[:self.contexts]:
            tuner = self.tuners[id(request.workload)] = Tuner()
            tuner.tune(self.primer(request))
        return ops

    def primer(self, request: TuningRequest) -> TuningRequest:
        return replace(request, request_id="primer",
                       constraints=[storage(request.schema, 1.0)])

    def tune(self, request: TuningRequest) -> TuningResult:
        return self.tuners[id(request.workload)].tune(request)

    def teardown(self) -> None:
        super().teardown()
        self.tuners = {}


class Scaleout300(BenchWorkload):
    name = "scaleout_300"
    why = ("The large-workload path: compress, partition, process-pool shard "
           "solves, merge — the only workload where scale runs, and where "
           "workers and the merge rebuild templates.")
    op_count = 3
    statements, smoke_statements = 300, 24
    warmup_ops = 1
    replay_ops = 1
    scale = ScaleSpec(shard_count=4, shard_workers=2, max_cost_error=1.0)

    def build(self) -> list[TuningRequest]:
        budget = storage(self.schema, 0.5)
        return [TuningRequest(
                    workload=mixed(self.statements,
                                   derive_seed(self.seed, self.name, position),
                                   0.85, self.schema),
                    schema=self.schema, constraints=[budget],
                    scale=self.scale, request_id=f"op{position}")
                for position in range(self.op_count)]

    def tune(self, request: TuningRequest) -> TuningResult:
        return Tuner().tune(request)


WORKLOADS: dict[str, type[BenchWorkload]] = {
    cls.name: cls
    for cls in (ColdTune, WarmServed, HeuristicSweep, Scaleout300)}
