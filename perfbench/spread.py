"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

``python3 perfbench/spread.py --runs 10`` runs the ``BENCHMARK.json`` command
``runs`` times per workload, each time with another ``--seed``, and prints for
each metric the distance between the first and third quartile of its values as
a share of their median, next to the metric's bound.  Exits 1 when a spread
exceeds its bound (``setup_s`` is reported but, as in the driver, not judged).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # ``python3 perfbench/spread.py`` puts perfbench/ first
    sys.path.insert(0, ROOT)

from perfbench.stats import iqr, median  # noqa: E402 (needs the path set above)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--save", default=None,
                        help="write every run's result line to this JSON file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        contract = json.load(stream)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    names = args.workload or [w["name"] for w in contract["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in names}
    # Seeds outermost, so a burst of host noise lands on one run of each
    # workload rather than on several runs of one.
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            started = time.perf_counter()
            output = subprocess.run(
                [*contract["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(contract["run_seconds"]), "--trace", "0"],
                cwd=ROOT, text=True, check=True, capture_output=True).stdout
            result = json.loads(output.strip().splitlines()[-1])
            result["wall_s"] = time.perf_counter() - started
            result["seed"] = seed
            results[name].append(result)
            print(f"seed {seed} {name}: {result['wall_s']:.1f} s, "
                  f"failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as stream:
            json.dump(results, stream, indent=1)
    breached = False
    for name, runs in results.items():
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            centre = median(values)
            spread = iqr(values) / centre
            over = spread > bound and metric != "setup_s"
            breached |= over
            print(f"{name}/{metric} median {centre:.6g} spread {spread:.4f} "
                  f"bound {bound} {'BREACH' if over else ''}"
                  f"{'' if spread * 3 <= bound else ' (above bound/3)'}")
        failed = sum(run["failed"] for run in runs)
        breached |= failed > 0
        print(f"{name}: {failed} failed ops, slowest run "
              f"{max(run['wall_s'] for run in runs):.1f} s")
    return 1 if breached else 0


if __name__ == "__main__":
    sys.exit(main())
