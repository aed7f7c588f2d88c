"""Order statistics and the atomic record write shared by run and compare."""

from __future__ import annotations

import json
import math
import os
import statistics
import tempfile
from typing import Any, Sequence

#: Percentiles tried, highest first, for the per-workload tail metric.
TAIL_LADDER = (99, 95, 90, 75, 50)
#: Op-medians that must lie beyond the tail percentile for it to be reported.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0.0 below two values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return float(quartiles[2] - quartiles[0])


def median_over_rounds(rounds: Sequence[Sequence[float]]) -> list[float]:
    """Per-op median of ``rounds[r][i]``: one latency per op, jitter removed."""
    if not rounds:
        raise ValueError("median_over_rounds needs at least one round")
    width = len(rounds[0])
    if any(len(samples) != width for samples in rounds):
        raise ValueError("every round must time the same op list")
    return [median([samples[i] for samples in rounds]) for i in range(width)]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: exactly ``n - ceil(p*n/100)`` values lie beyond."""
    if not values:
        raise ValueError("percentile of an empty list")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return float(ordered[rank - 1])


def tail_percentile(op_count: int) -> int:
    """The highest ladder percentile with at least ten op-medians beyond it.

    Below twenty ops not even the median qualifies; the tail then *is* the
    median (``op_tail_ms == op_p50_ms``), which is what an op list that short
    can support.
    """
    for p in TAIL_LADDER:
        if op_count - math.ceil(p * op_count / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def atomic_write_json(path: str, payload: Any) -> None:
    """Write ``payload`` to ``path`` through a temp file and a rename.

    A reader never sees a half-written record and a crash mid-write leaves
    the previous complete record in place.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=1, sort_keys=True)
            stream.write("\n")
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
