"""The benchmark driver: interleaved rounds, medians, checks, one record.

``python3 perfbench/run.py --workload cold_tune --seed 1`` (or ``python -m
perfbench.run``; no ``--workload`` runs all four, round-robin) starts one
worker process per workload, runs whole rounds of each workload's fixed op
list until ``--seconds`` are used up, and reports every metric as
``<workload>/<metric> <value> <unit>``.  ``--trace 1`` runs the per-layer
replay of ``perfbench/layers.py`` instead of the timed rounds.  The last line
of stdout is the machine-readable result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Any, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # ``python3 perfbench/run.py`` puts perfbench/ first
    sys.path.insert(0, ROOT)

from perfbench.stats import (  # noqa: E402 (needs the path set above)
    atomic_write_json,
    iqr,
    median,
    median_over_rounds,
    percentile,
    tail_percentile,
)

WORKLOAD_NAMES = ("cold_tune", "warm_served", "heuristic_sweep", "scaleout_300")
#: End-to-end metric -> unit (bounds live in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "cpu_s_per_op": "s", "peak_rss_mb": "MB", "cost_ratio": "ratio",
}
#: Whole rounds every run completes, however short ``--seconds`` is: the
#: per-op median needs three samples to shrug off one disturbed round.
MIN_ROUNDS = 3
SMOKE_ROUNDS = 2
#: Seconds after which a single workload's run is abandoned (contract: 180).
WATCHDOG_S = 170


class WorkerProcess:
    """One workload's worker, spoken to over its stdin/stdout pipes."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ROOT, os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")])
        command = [sys.executable, "-m", "perfbench.worker",
                   "--workload", name, "--seed", str(seed)]
        if smoke:
            command.append("--smoke")
        # Its own session, so a forced stop also reaches pool children.
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=env, start_new_session=True)

    def call(self, cmd: str, **arguments: Any) -> dict[str, Any]:
        self.process.stdin.write(json.dumps({"cmd": cmd, **arguments}) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"worker {self.name} died (exit {self.process.wait()}) "
                f"during {cmd!r}")
        return json.loads(line)

    def stop(self) -> None:
        """Close the pipe (the worker exits on EOF); force it if it does not."""
        try:
            self.process.stdin.close()
            self.process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        try:  # even after a clean exit: orphaned pool children share the group
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process.stdout.close()


def summarise(rounds: Sequence[dict[str, Any]], finish: dict[str, Any]
              ) -> dict[str, Any]:
    """Fold one workload's rounds into its end-to-end metrics and failures.

    The worker has already divided every time by the host slowdown of its
    chunk (see ``calibrate.py``).  A latency is the median over rounds of one
    op's samples; the percentiles run across ops.  Rates and set-up are
    per-round values whose median is reported with the IQR over rounds beside
    it.  A failed op stays in every latency list and is counted once,
    whichever check caught it.
    """
    op_count = len(rounds[0]["latencies_ms"])
    op_medians = median_over_rounds([r["latencies_ms"] for r in rounds])
    per_round = {
        "setup_s": [r["setup_s"] for r in rounds],
        "ops_per_s": [op_count / r["busy_s"] for r in rounds],
        "cpu_s_per_op": [r["cpu_s"] / op_count for r in rounds],
    }
    failures: dict[int, str] = {}
    for record in (*rounds, {"failures": finish["parity_failures"]}):
        for position, reason in record["failures"].items():
            failures.setdefault(int(position), reason)
    for position in range(op_count):
        if len({r["fingerprints"][position] for r in rounds}) > 1:
            failures.setdefault(position, "fingerprint differs between rounds")
    ratios = finish["cost_ratios"]
    for position, ratio in enumerate(ratios):
        if ratio is not None and ratio > 1.0:
            failures.setdefault(position, f"cost_ratio {ratio} > 1")
    scored = [ratio for ratio in ratios if ratio is not None]
    tail = tail_percentile(op_count)
    values = {name: median(samples) for name, samples in per_round.items()}
    values.update(
        op_p50_ms=percentile(op_medians, 50),
        op_tail_ms=percentile(op_medians, tail),
        peak_rss_mb=finish["peak_rss_mb"],
        cost_ratio=sum(scored) / len(scored) if scored else float("nan"))
    round_walls = [r["raw_s"] for r in rounds]
    return {
        "ops": op_count, "rounds": len(rounds),
        "tail_percentile": tail,
        "metrics": {
            name: {"value": values[name], "unit": unit,
                   "iqr": iqr(per_round[name]) if name in per_round else None}
            for name, unit in END_TO_END.items()},
        "failed": len(failures), "failed_share": len(failures) / op_count,
        "failures": {str(position): failures[position]
                     for position in sorted(failures)},
        "harness": {"round_spread": (max(round_walls) - min(round_walls))
                    / median(round_walls),
                    "host_slowdown": median([r["slowdown"] for r in rounds])},
    }


def steal_ticks() -> tuple[float, float]:
    """(steal, total) CPU ticks so far, from ``/proc/stat`` (0, 0 elsewhere)."""
    try:
        with open("/proc/stat", encoding="ascii") as stream:
            fields = [float(field) for field in stream.readline().split()[1:]]
    except (OSError, ValueError):
        return 0.0, 0.0
    return (fields[7] if len(fields) > 7 else 0.0), sum(fields)


def run_timed(workers: Sequence[WorkerProcess], seconds: float,
              fixed_rounds: int | None) -> dict[str, dict[str, Any]]:
    """Round-robin whole rounds over the workers; summarise each workload.

    Interleaving spreads a burst of host noise over one or two rounds of
    *every* workload instead of all rounds of one.  A workload stops once it
    has ``MIN_ROUNDS`` rounds and another would overrun its ``seconds``;
    every round is the same op list, so the count changes no output.
    """
    if fixed_rounds is None:  # a smoke run measures nothing worth warming
        for worker in workers:
            worker.call("warmup")
    rounds: dict[str, list[dict[str, Any]]] = {w.name: [] for w in workers}
    spent = dict.fromkeys(rounds, 0.0)
    active = list(workers)
    while active:
        for worker in list(active):
            started = time.perf_counter()
            rounds[worker.name].append(worker.call("round"))
            spent[worker.name] += time.perf_counter() - started
            done = len(rounds[worker.name])
            if fixed_rounds is not None:
                finished = done >= fixed_rounds
            else:
                finished = (done >= MIN_ROUNDS and spent[worker.name]
                            * (done + 1) / done > seconds)
            if finished:
                active.remove(worker)
    return {worker.name: summarise(rounds[worker.name], worker.call("finish"))
            for worker in workers}


def run_traced(workers: Sequence[WorkerProcess], seconds: float,
               smoke: bool) -> dict[str, dict[str, Any]]:
    """The per-layer pass: each worker replays its first ops stage by stage."""
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    summaries = {}
    for worker in workers:
        reply = worker.call(
            "replay", seconds=seconds, smoke=smoke,
            trace_path=os.path.join(out_dir, f"trace_{worker.name}.json"))
        summaries[worker.name] = {
            "ops": reply["ops"], "rounds": reply["repeats"],
            "metrics": reply["metrics"], "failed": 0, "failed_share": 0.0,
            "failures": {}, "harness": {}}
    return summaries


def git_sha() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            capture_output=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None  # the accepting driver's checkout is not a git repository


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all four, interleaved)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="budget per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer replay instead of timed rounds")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny inputs, {SMOKE_ROUNDS} rounds: checks the "
                             "plumbing, measures nothing")
    parser.add_argument("--out", default=None, help="record path")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        contract = json.load(stream)
    seconds = args.seconds if args.seconds is not None \
        else float(contract["run_seconds"])
    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    out_path = args.out or os.path.join(
        ROOT, "perfbench", "out",
        f"record_{args.workload or 'all'}_seed{args.seed}_trace{args.trace}"
        f"{'_smoke' if args.smoke else ''}.json")

    def abandon(signum, frame):
        raise TimeoutError(f"perfbench: gave up after {WATCHDOG_S} s per workload")
    signal.signal(signal.SIGALRM, abandon)
    signal.alarm(WATCHDOG_S * len(names))

    steal_before, ticks_before = steal_ticks()
    workers: list[WorkerProcess] = []
    try:
        for name in names:
            workers.append(WorkerProcess(name, args.seed, args.smoke))
        versions = workers[0].call("versions")
        if args.trace:
            summaries = run_traced(workers, seconds, args.smoke)
        else:
            summaries = run_timed(workers, seconds,
                                  SMOKE_ROUNDS if args.smoke else None)
    finally:
        for worker in workers:
            worker.stop()
        signal.alarm(0)
    steal_after, ticks_after = steal_ticks()
    steal_share = ((steal_after - steal_before)
                   / max(ticks_after - ticks_before, 1.0))

    for name, summary in summaries.items():
        summary["harness"]["steal_share"] = steal_share
        if args.trace:
            summary["metrics"]["harness.steal_share"] = {
                "value": steal_share, "unit": "ratio"}
        for metric, entry in summary["metrics"].items():
            print(f"{name}/{metric} {entry['value']!r} {entry['unit']}")
        print(f"{name}/failed_share {summary['failed_share']!r} ratio")
        for position, reason in summary["failures"].items():
            print(f"{name}: op {position} failed: {reason}", file=sys.stderr)

    # Written only now, in one rename: an aborted run never replaces a
    # complete record with a partial one.
    atomic_write_json(out_path, {
        "record_version": 1, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), **versions, "seed": args.seed,
        "seconds": seconds, "trace": args.trace, "smoke": args.smoke,
        "workloads": summaries})

    single = len(names) == 1
    metrics = {(metric if single else f"{name}/{metric}"):
               {"value": entry["value"], "unit": entry["unit"]}
               for name, summary in summaries.items()
               for metric, entry in summary["metrics"].items()}
    failed = sum(summary["failed"] for summary in summaries.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(summary["ops"] for summary in summaries.values()),
        "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
