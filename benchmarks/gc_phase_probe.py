"""Probe: which garbage-collector phase does a perfbench round end in?

``cold_tune/setup_s`` (a gated metric) is bimodal: a full collection costs
20-odd ms here and lands inside ``setup()`` whenever the timed ops of the
previous round end with ``gc.get_count()[2]`` at 9 or more — a property of how
many gen-1 collections a round of *ops* performs, not of anything ``setup()``
runs (ROADMAP, direction 1).  A change that allocates differently on the cold
path should run this on the parent and on itself for ten seeds or so:

    python3 benchmarks/gc_phase_probe.py --seed 1 [--workload cold_tune] [--rounds 3]

It runs ``perfbench/worker.py::Worker.round`` itself — the loop the gated
metric is measured in — with the workload's ``setup`` / ``execute`` wrapped to
name the phase for a ``gc.callbacks`` counter, and prints, per round, the
round's ``setup_s``, the collections per generation inside ``setup()`` and
inside the ops, and the collector's counts when the ops end.  Healthy: no
gen-2 inside ``setup()`` after the first round, end count[2] <= 8.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.worker import Worker  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="cold_tune", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()

    phase = "idle"
    collections: dict[tuple[str, int], int] = {}

    def count(event: str, info: dict) -> None:
        if event == "start":
            key = (phase, info["generation"])
            collections[key] = collections.get(key, 0) + 1

    end_counts: dict[str, tuple[int, int, int]] = {}

    def in_phase(name: str, call):
        def wrapped(*args, **kwargs):
            nonlocal phase
            phase = name
            try:
                return call(*args, **kwargs)
            finally:
                end_counts[name], phase = gc.get_count(), "idle"
        return wrapped

    gc.callbacks.append(count)
    worker = Worker(WORKLOADS[args.workload](args.seed))
    worker.warmup()
    workload = worker.workload
    workload.setup = in_phase("setup", workload.setup)
    workload.execute = in_phase("ops", workload.execute)
    for number in range(args.rounds):
        collections.clear()
        setup_ms = worker.round()["setup_s"] * 1000.0
        per_phase = {name: [collections.get((name, generation), 0)
                            for generation in range(3)]
                     for name in ("setup", "ops")}
        print(f"{args.workload} seed {args.seed} round {number}: "
              f"setup {setup_ms:.1f} ms, collections in setup {per_phase['setup']}, "
              f"in ops {per_phase['ops']}, count at end of ops {end_counts['ops']}")


if __name__ == "__main__":
    main()
