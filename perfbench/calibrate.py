"""A fixed kernel that reads how fast the host is running right now.

This guest shares its cores: identical work takes 10-40 % longer for seconds
to minutes at a time, with no ``steal`` ticks and inflated process CPU time,
so neither wall nor CPU seconds repeat between runs.  The kernel below is a
constant amount of work with the tuning stack's instruction mix (interpreter-
bound dict/tuple/float churn, method calls on small objects, many small numpy
calls) that touches no code under ``src/``.  Workloads run it between chunks of ops;
a round's times are divided by ``median kernel seconds / REFERENCE_S``: a
speed-up of ``src/`` shows in full, a host that is slow for the whole round
cancels out.  The median over a round's dozen samples is used, not the samples
next to each op: a single 0.1 s sample jitters by +-10 % on its own.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

#: The kernel duration all reported times are normalised to.
REFERENCE_S = 0.1

_SMALL = np.arange(4000, dtype=np.float64).reshape(40, 100)


class _Plan:
    __slots__ = ("rows", "width", "rank")

    def __init__(self, rows: float, width: float, rank: int) -> None:
        self.rows, self.width, self.rank = rows, width, rank

    def cost(self, other: "_Plan") -> float:
        return self.rows * other.width + self.rank


# Built once: the kernel must not depend on the allocator's state, which the
# workload running between two kernel calls keeps changing.
_KEYS = [(step % 97, f"c{step % 211}") for step in range(1024)]
_PLANS = [_Plan(step * 0.5, step + 1.0, step % 7) for step in range(2000)]


def kernel() -> float:
    """Run the fixed calibration work once; returns the seconds it took.

    The collector is paused meanwhile: a collection triggered here would walk
    the *workload's* heap and charge that to the host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {key: [0.0, 1.0] for key in _KEYS}
        total = 0.0
        for step in range(220_000):
            row = table[_KEYS[step & 1023]]
            row[0] += math.sqrt(step + row[1]) * 1.0001
            total += row[0]
        for _ in range(32):
            total += min(plan.cost(_PLANS[(plan.rank * 31) % 2000])
                         for plan in _PLANS)
            total += len(sorted(_KEYS, key=lambda key: key[1])[:10])
        for _ in range(7000):
            total += float(np.minimum(_SMALL, _SMALL[::-1]).sum(axis=1).min())
        if total < 0.0:  # keeps the work observable
            raise RuntimeError("calibration kernel computed nonsense")
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()
