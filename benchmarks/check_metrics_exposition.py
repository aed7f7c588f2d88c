#!/usr/bin/env python
"""Validate a ``/v1/metrics`` scrape as Prometheus text exposition.

Two modes:

* default — read an exposition document from stdin (or ``--file``) and
  validate it;
* ``--live`` — start an in-process :class:`TuningServer` on an ephemeral
  port, serve one small tuning request through the HTTP client, scrape
  ``GET /v1/metrics`` over real HTTP, and validate the response: content
  type, text grammar, the presence of the request/solver/cache/HTTP
  series the dashboard relies on, that every ``# HELP`` / ``# TYPE``
  pair states a row of the family table (``repro.obs.metrics.FAMILIES``)
  word for word, and that every sample's label values lie in its row's
  domains (``Family.domains``; an ``other`` series fails).

CI runs the ``--live`` mode in the server-smoke lane, so a malformed
exposition (or a silently vanished series) fails the build rather than the
first scrape in production.

Usage::

    python benchmarks/check_metrics_exposition.py --live
    curl -s $SERVER/v1/metrics | python benchmarks/check_metrics_exposition.py
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

#: ``name{labels} value`` — the sample-line grammar we emit (no timestamps).
SAMPLE_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r' (?P<value>-?[0-9.e+-]+|[+-]Inf|NaN)$')

#: One ``name="value"`` pair of a sample's label set.
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')

#: Series the tuning dashboard depends on; each must appear in a live scrape
#: after one served request (as a sample, not just a declared family).
REQUIRED_LIVE_SERIES = (
    "repro_requests_total",
    "repro_request_seconds_count",
    "repro_solver_solves_total",
    "repro_cache_events_total",
    "repro_http_requests_total",
    "repro_http_request_seconds_count",
    "repro_lock_wait_seconds_count",
    "repro_queue_wait_seconds_count",
)


def validate_exposition(text: str) -> list[str]:
    """Grammar problems in an exposition document (empty = valid)."""
    problems: list[str] = []
    if not text.endswith("\n"):
        problems.append("document must end with a newline")
    typed: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                problems.append(f"line {number}: truncated comment: {line!r}")
            elif parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                    problems.append(
                        f"line {number}: unknown metric type {parts[3]!r}")
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            problems.append(f"line {number}: malformed comment: {line!r}")
            continue
        match = SAMPLE_LINE.match(line)
        if match is None:
            problems.append(f"line {number}: malformed sample: {line!r}")
            continue
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            problems.append(
                f"line {number}: sample {name!r} has no # TYPE header")
    return problems


def table_mismatches(text: str) -> list[str]:
    """Families whose ``# HELP`` / ``# TYPE`` differ from the family table,
    and samples whose label values lie outside their row's domains (empty =
    every family in the scrape is a row, stated as the row states it)."""
    from repro.obs.metrics import FAMILIES

    rows = {row.name: row for row in FAMILIES}
    problems: list[str] = []
    for line in text.splitlines():
        sample = SAMPLE_LINE.match(line)
        if sample is not None:
            name = sample.group("name")
            row = rows.get(name) or rows.get(
                re.sub(r"_(bucket|sum|count)$", "", name))
            for label, value in LABEL_PAIR.findall(
                    sample.group("labels") or ""):
                if (row is not None and label in row.labelnames
                        and value not in row.domain(label)):
                    problems.append(f"{name} label {label}={value!r} is "
                                    f"outside its row's domain")
            continue
        parts = line.split(" ", 3)
        if len(parts) < 4 or parts[:2] not in (["#", "HELP"], ["#", "TYPE"]):
            continue
        name, stated = parts[2], parts[3]
        row = rows.get(name)
        if row is None:
            problems.append(f"family {name!r} is not in the family table")
            continue
        expected = row.help if parts[1] == "HELP" else row.kind
        if stated != expected:
            problems.append(f"{parts[1]} of {name!r} is {stated!r}, its row "
                            f"says {expected!r}")
    return sorted(set(problems))


def scrape_live() -> tuple[str, str]:
    """Serve one request through a live server; return (content_type, body)."""
    import time
    from urllib.request import urlopen

    from repro.api import TuningRequest
    from repro.catalog.tpch import tpch_schema
    from repro.core.constraints import StorageBudgetConstraint
    from repro.server.app import TuningServer
    from repro.server.client import TuningClient
    from repro.workload.generators import generate_homogeneous_workload

    schema = tpch_schema(scale_factor=0.01)
    workload = generate_homogeneous_workload(8, seed=7)
    request = TuningRequest(
        workload=workload, schema=schema,
        constraints=[StorageBudgetConstraint.from_fraction_of_data(
            schema, 1.0)])
    with TuningServer(namespace_statements=True) as server:
        client = TuningClient(server.url)
        client.tune(request)
        # A one-request batch goes through the service's thread pool, which
        # is the only path that records repro_queue_wait_seconds samples.
        client.tune_many([request])
        # The tune handler records its HTTP counters *after* writing the
        # response body, and before it leaves the in-flight count.
        deadline = time.monotonic() + 10.0
        while server.inflight_requests and time.monotonic() < deadline:
            time.sleep(0.001)
        with urlopen(server.url + "/v1/metrics") as response:
            return (response.headers["Content-Type"],
                    response.read().decode("utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--live", action="store_true",
                        help="start an in-process server, tune once, scrape "
                             "/v1/metrics over HTTP and validate it against "
                             "the family table")
    parser.add_argument("--file", type=Path, default=None,
                        help="read the exposition from a file instead of "
                             "stdin")
    args = parser.parse_args(argv)

    required: tuple[str, ...] = ()
    if args.live:
        from repro.obs.metrics import METRICS_CONTENT_TYPE

        content_type, text = scrape_live()
        if content_type != METRICS_CONTENT_TYPE:
            print(f"FAIL bad content type: {content_type!r}")
            return 1
        required = REQUIRED_LIVE_SERIES
    elif args.file is not None:
        text = args.file.read_text(encoding="utf-8")
    else:
        text = sys.stdin.read()

    problems = validate_exposition(text)
    if args.live:
        problems.extend(table_mismatches(text))
    sample_lines = [line for line in text.splitlines()
                    if line and not line.startswith("#")]
    for series in required:
        if not any(line.startswith(series) for line in sample_lines):
            problems.append(f"required series {series!r} has no samples")
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        return 1
    print(f"Exposition OK: {len(sample_lines)} sample(s), "
          f"{sum(1 for line in text.splitlines() if line.startswith('# TYPE'))} "
          f"family(ies).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
