"""Tests of the benchmark's own plumbing: statistics, records, output contract.

Nothing here asserts a wall-clock number.  The ``--smoke`` runs use three tiny
ops and two rounds per workload, enough to exercise every code path once.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import subprocess
import sys

import pytest

from perfbench import compare, run, stats
from perfbench.worker import Worker
from perfbench.workloads import SMOKE_OPS, WORKLOADS

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def benchmark(*arguments: str) -> tuple[list[str], dict]:
    """Run the benchmark command; returns its stdout lines and result object."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *arguments],
        cwd=ROOT, text=True, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


# ------------------------------------------------------------------ statistics
def test_latency_is_the_median_over_rounds():
    rounds = [[1.0, 10.0, 5.0], [3.0, 20.0, 5.0], [2.0, 60.0, 500.0]]
    assert stats.median_over_rounds(rounds) == [2.0, 20.0, 5.0]
    with pytest.raises(ValueError):
        stats.median_over_rounds([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        stats.median_over_rounds([])


@pytest.mark.parametrize("count,expected", [(1000, 99), (200, 95), (100, 90),
                                            (40, 75), (20, 50), (3, 50)])
def test_tail_percentile_leaves_ten_medians_beyond(count, expected):
    chosen = stats.tail_percentile(count)
    assert chosen == expected
    values = [float(value) for value in range(count)]
    beyond = sum(value > stats.percentile(values, chosen) for value in values)
    assert beyond == count - math.ceil(chosen * count / 100)
    if count >= 20:
        assert beyond >= stats.TAIL_MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > chosen]
        assert all(count - math.ceil(p * count / 100) < stats.TAIL_MIN_BEYOND
                   for p in higher)


def test_iqr_matches_the_drivers_definition():
    values = [1.0, 2.0, 4.0, 8.0, 16.0]
    quartiles = statistics.quantiles(values, n=4)
    assert stats.iqr(values) == quartiles[2] - quartiles[0]
    assert stats.iqr([3.0]) == 0.0


# --------------------------------------------------------------------- records
def test_atomic_write_keeps_the_old_record_when_the_new_one_fails(tmp_path):
    path = tmp_path / "record.json"
    stats.atomic_write_json(str(path), {"complete": True})
    with pytest.raises(TypeError):
        stats.atomic_write_json(str(path), {"complete": object()})
    assert json.loads(path.read_text()) == {"complete": True}
    assert [entry.name for entry in tmp_path.iterdir()] == ["record.json"]


def test_aborted_run_never_replaces_a_complete_record(tmp_path, monkeypatch):
    path = tmp_path / "record.json"
    path.write_text('{"complete": true}')

    def dies(*args, **kwargs):
        raise RuntimeError("worker died mid-run")
    monkeypatch.setattr(run, "run_timed", dies)
    with pytest.raises(RuntimeError):
        run.main(["--workload", "cold_tune", "--smoke", "--out", str(path)])
    assert json.loads(path.read_text()) == {"complete": True}


def round_record(latencies, fingerprints, slowdown=1.0, failures=None):
    return {"setup_s": 0.5, "busy_s": sum(latencies) / 1000.0, "cpu_s": 0.4,
            "slowdown": slowdown, "raw_s": slowdown * sum(latencies) / 1000.0,
            "latencies_ms": list(latencies), "fingerprints": list(fingerprints),
            "failures": failures or {}}


def test_summarise_counts_every_failure_once_and_keeps_its_latency():
    rounds = [round_record([100.0, 200.0, 300.0], ["a", "b", "c"]),
              round_record([110.0, 210.0, 310.0], ["a", "B", "c"],
                           failures={"2": "boom"}),
              round_record([120.0, 220.0, 320.0], ["a", "b", "c"],
                           slowdown=2.0)]
    finish = {"cost_ratios": [0.5, 0.7, 1.5], "parity_failures": {"2": "x"},
              "peak_rss_mb": 100.0}
    summary = run.summarise(rounds, finish)
    assert summary["failed"] == 2  # op 1 (fingerprint), op 2 (three reasons)
    assert summary["failed_share"] == pytest.approx(2 / 3)
    assert set(summary["failures"]) == {"1", "2"}
    # Failed ops keep their latencies: p50 over the per-op medians 110/210/310.
    assert summary["metrics"]["op_p50_ms"]["value"] == 210.0
    assert summary["metrics"]["ops_per_s"]["value"] == pytest.approx(3 / 0.63)
    assert summary["metrics"]["cost_ratio"]["value"] == pytest.approx(0.9)
    assert summary["harness"]["host_slowdown"] == 1.0


def test_worker_divides_every_time_by_the_rounds_host_slowdown():
    from perfbench.calibrate import REFERENCE_S
    from perfbench.workloads import BenchWorkload, Pass, Sample

    class SlowHost(BenchWorkload):
        """Two 200 ms ops on a host the kernel says runs at half speed."""

        def build(self):
            return []

        def execute(self, limit=None):
            return Pass(samples=[Sample(0.2, error="x"), Sample(0.2, error="x")],
                        busy_s=0.4, cpu_s=0.3,
                        kernel_s=[2 * REFERENCE_S, 2 * REFERENCE_S, 9.0])

    reply = Worker(SlowHost(seed=1)).round()
    assert reply["slowdown"] == 2.0  # the median shrugs off the 9 s outlier
    assert reply["latencies_ms"] == [100.0, 100.0]
    assert reply["busy_s"] == 0.2 and reply["cpu_s"] == 0.15
    assert set(reply["failures"]) == {0, 1}


# --------------------------------------------------------------------- compare
def record(value, failed_share=0.0, seed=1):
    return {"seed": seed, "git_sha": "x", "workloads": {"cold_tune": {
        "failed_share": failed_share,
        "metrics": {"op_p50_ms": {"value": value, "unit": "ms"},
                    "ops_per_s": {"value": 1000.0 / value, "unit": "1/s"},
                    "core.solve_ms": {"value": value / 3, "unit": "ms"}}}}}


def test_compare_judges_each_metric_in_its_own_direction():
    rules = contract()
    bound = {m["name"]: m["bound"] for m in rules["end_to_end"]}["op_p50_ms"]
    _, breached = compare.compare(record(100.0), record(100.0), rules)
    assert not breached
    lines, breached = compare.compare(
        record(100.0), record(100.0 * (1 + 2 * bound)), rules)
    assert breached
    assert any("op_p50_ms" in line and "BREACH" in line for line in lines)
    assert any("ops_per_s" in line and "BREACH" in line for line in lines)
    assert any("core.solve_ms" in line and "no bound" in line for line in lines)
    # Getting faster is never a breach; a failure that was not there is.
    assert not compare.compare(record(100.0), record(50.0), rules)[1]
    assert compare.compare(record(100.0), record(100.0, 0.1), rules)[1]


# -------------------------------------------------------------------- contract
def test_benchmark_json_names_what_the_benchmark_prints():
    from perfbench.layers import DRIVER_METRICS, LAYER_METRICS
    rules = contract()
    assert [w["name"] for w in rules["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in rules["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in rules["per_layer"]} == \
        {**LAYER_METRICS, **DRIVER_METRICS}
    assert all(m["bound"] <= 0.25 for m in rules["end_to_end"])
    assert rules["paths"] == ["perfbench"]


def test_smoke_run_prints_every_metric_and_repeats_its_quality(tmp_path):
    out = str(tmp_path / "all.json")
    lines, result = benchmark("--smoke", "--seed", "7", "--out", out)
    printed = {}
    for line in lines:
        name, value, unit = line.split()
        workload, metric = name.split("/")
        assert NAME.match(workload) and NAME.match(metric), name
        printed[workload, metric] = float(value)
    for workload in run.WORKLOAD_NAMES:
        for metric in run.END_TO_END:
            assert printed[workload, metric] > 0, (workload, metric)
        assert printed[workload, "failed_share"] == 0.0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(run.WORKLOAD_NAMES) * SMOKE_OPS
    with open(out, encoding="utf-8") as stream:
        saved = json.load(stream)
    assert saved["seed"] == 7 and saved["nproc"] == os.cpu_count()
    for key in ("git_sha", "python", "numpy", "scipy"):
        assert key in saved
    summary = saved["workloads"]["cold_tune"]
    assert summary["ops"] == SMOKE_OPS
    assert summary["rounds"] == run.SMOKE_ROUNDS
    assert summary["metrics"]["ops_per_s"]["iqr"] is not None
    assert {"round_spread", "host_slowdown", "steal_share"} <= \
        set(summary["harness"])

    # The same seed in another process means the same inputs, so the quality
    # of the recommendations repeats to the last bit; another seed moves it.
    def cost_ratios(seed: int) -> list[float]:
        worker = Worker(WORKLOADS["cold_tune"](seed, smoke=True))
        worker.round()
        return worker.finish()["cost_ratios"]
    again = cost_ratios(7)
    assert sum(again) / len(again) == printed["cold_tune", "cost_ratio"]
    assert cost_ratios(8) != again


def test_traced_smoke_run_reports_every_layer_and_writes_spans(tmp_path):
    _, result = benchmark("--smoke", "--seed", "7", "--workload", "cold_tune",
                          "--trace", "1", "--out", str(tmp_path / "t.json"))
    expected = {m["name"] for m in contract()["per_layer"]}
    assert set(result["metrics"]) == expected
    assert all(NAME.match(name) for name in expected)
    with open(os.path.join(ROOT, "perfbench", "out", "trace_cold_tune.json"),
              encoding="utf-8") as stream:
        spans = json.load(stream)["spans"]
    assert {"name", "op", "start", "end", "parent"} <= set(spans[0])
    assert {"inum.prepare_cold", "core.solve", "scale.shard_solve",
            "server.served"} <= {span["name"] for span in spans}
