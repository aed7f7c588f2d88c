"""Compare two benchmark records against the bounds in ``BENCHMARK.json``.

``python3 perfbench/compare.py A.json B.json`` prints, for every
``<workload>/<metric>`` both records hold, how much worse B is than A as a
share of A, next to the metric's bound, and exits 1 when any end-to-end metric
is worse by more than its bound or ``failed_share`` rose.  Per-layer metrics
have no bound and are printed for reading only.  Two records of one commit and
one seed must also agree on ``cost_ratio`` to the last bit; a difference there
is flagged even inside the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    if before == 0:
        return 0.0 if after == before else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def compare(first: dict[str, Any], second: dict[str, Any],
            contract: dict[str, Any]) -> tuple[list[str], bool]:
    """The report lines and whether any bound was breached."""
    bounded = {m["name"]: m for m in contract["end_to_end"]}
    same_inputs = (first.get("seed") == second.get("seed")
                   and first.get("git_sha") == second.get("git_sha"))
    lines: list[str] = []
    breached = False
    for name, before in first["workloads"].items():
        after = second["workloads"].get(name)
        if after is None:
            continue
        for metric, entry in before["metrics"].items():
            if metric not in after["metrics"]:
                continue
            a, b = entry["value"], after["metrics"][metric]["value"]
            rule = bounded.get(metric)
            if rule is None:
                change = (b - a) / abs(a) if a else 0.0
                lines.append(f"{name}/{metric} {a:.6g} -> {b:.6g} "
                             f"({change:+.2%}, no bound)")
                continue
            worse = worsening(a, b, rule["better"])
            verdict = "ok"
            if worse > rule["bound"]:
                verdict, breached = "BREACH", True
            elif metric == "cost_ratio" and same_inputs and a != b:
                verdict, breached = "NOT BIT-EQUAL", True
            lines.append(f"{name}/{metric} {a:.6g} -> {b:.6g} worse by "
                         f"{worse:+.2%} (bound {rule['bound']:.1%}) {verdict}")
        a, b = before["failed_share"], after["failed_share"]
        if b > a:
            breached = True
        lines.append(f"{name}/failed_share {a:.6g} -> {b:.6g} "
                     f"{'ROSE' if b > a else 'ok'}")
    return lines, breached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", help="the baseline record (A)")
    parser.add_argument("second", help="the record under judgement (B)")
    args = parser.parse_args(argv)
    records = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as stream:
            records.append(json.load(stream))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        contract = json.load(stream)
    lines, breached = compare(*records, contract)
    print("\n".join(lines))
    return 1 if breached else 0


if __name__ == "__main__":
    sys.exit(main())
