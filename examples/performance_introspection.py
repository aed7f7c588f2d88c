"""Performance introspection end to end: contention, profiles, trace store.

Runs a short burst of requests against an in-process ``TuningServer``
configured with the PR 10 introspection knobs, then walks the whole
debugging loop an operator would:

1. **Queryable trace store** — ``GET /v1/traces`` lists the retained
   requests newest-first; the slow-flagged entry is fetched in full via
   ``GET /v1/traces/{id}`` (span tree + sampled hotspot table).
2. **Contention & resource accounting** — the ``/v1/metrics`` scrape now
   carries ``repro_lock_wait_seconds{lock=...}`` and
   ``repro_queue_wait_seconds`` histograms, and every root span records
   ``cpu_ms`` plus its queue/lock wait attribution.
3. **Latency SLOs** — ``/v1/stats`` streams p50/p95/p99 per advisor with an
   exemplar trace id linking the histogram back to a stored trace.
4. **Flame-style rendering** — the fetched entry is written to a temp file
   and rendered with ``python -m repro.obs.report``, exactly as an operator
   would from a saved trace.

Run with:  python examples/performance_introspection.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from urllib.request import urlopen

from repro import StorageBudgetConstraint, TuningRequest
from repro.api import Tuner, TuningService
from repro.catalog import tpch_schema
from repro.server import TuningClient, TuningServer
from repro.workload import generate_homogeneous_workload


def main() -> None:
    schema = tpch_schema(scale_factor=0.01)
    budget = StorageBudgetConstraint.from_fraction_of_data(schema,
                                                           fraction=1.0)

    # The Tuner owns the introspection knobs: slow_threshold_ms=0.1 pins
    # essentially every request in the slow ring; profile_every=2 samples a
    # cProfile hotspot table on every other one.
    tuner = Tuner(trace_store_size=16, slow_threshold_ms=0.1,
                  profile_every=2)
    server = TuningServer(service=TuningService(
        tuner, namespace_statements=True))
    with server:
        client = TuningClient(server.url)
        # A batch goes through the service's thread pool, so every request
        # records its pool-queue wait (single client.tune calls are served
        # synchronously and never queue).
        requests = [
            TuningRequest(
                workload=generate_homogeneous_workload(12, seed=seed),
                schema=schema, constraints=[budget],
                request_id=f"introspect-{seed}")
            for seed in (7, 11, 13)
        ]
        for result in client.tune_many(requests):
            attrs = result.extras["trace"]["root"]["attrs"]
            print(f"request {result.provenance['request_id']}: "
                  f"{result.index_count} indexes, "
                  f"cpu={attrs.get('cpu_ms', 0.0):.1f} ms, "
                  f"queue_wait={attrs.get('queue_wait_ms', 0.0)} ms")

        # 1. The store lists what it retained; grab the newest slow entry.
        #    One HTTP batch = one trace id (PR 8: the whole HTTP request
        #    traces under the caller's id), so the store holds the batch's
        #    last-finished sub-request under that id — latest wins.
        listing = client.traces()
        print(f"\n/v1/traces: {listing['count']} retained "
              f"(capacity {listing['capacity']}, "
              f"slow >= {listing['slow_threshold_ms']} ms)")
        slow_rows = [row for row in listing["traces"] if row["slow"]]
        assert slow_rows, "the 0.1 ms threshold must have pinned something"
        entry = client.trace(slow_rows[0]["trace_id"])
        print(f"fetched slow trace {entry['trace_id']} "
              f"({entry['duration_ms']:.1f} ms, advisor={entry['advisor']})")

        # 2. Contention histograms are part of the ordinary scrape.
        with urlopen(server.url + "/v1/metrics") as response:
            exposition = response.read().decode("utf-8")
        for series in ("repro_lock_wait_seconds_count",
                       "repro_queue_wait_seconds_count"):
            assert series in exposition, f"{series} missing from scrape"
        print("\n/v1/metrics (wait-accounting excerpt):")
        for line in exposition.splitlines():
            if line.startswith(("repro_lock_wait_seconds_count",
                                "repro_queue_wait_seconds_count")):
                print(f"  {line}")

        # 3. Streaming latency SLOs, correlated to the store via exemplars.
        with urlopen(server.url + "/v1/stats") as response:
            stats = json.loads(response.read())
        print("\nlatency SLOs per advisor:")
        for advisor, row in stats["service"]["latency_slo"].items():
            print(f"  {advisor}: n={row['count']} p50={row['p50_ms']} ms "
                  f"p95={row['p95_ms']} ms p99={row['p99_ms']} ms "
                  f"exemplar={row.get('exemplar_trace_id')}")

    # 4. Render the saved entry exactly as an operator would post-mortem.
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(entry, fh)
        saved = fh.name
    src = Path(__file__).resolve().parent.parent / "src"
    completed = subprocess.run(
        [sys.executable, "-m", "repro.obs.report", saved],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert completed.returncode == 0, completed.stderr
    print(f"\npython -m repro.obs.report {saved}:")
    print(completed.stdout)


if __name__ == "__main__":
    main()
