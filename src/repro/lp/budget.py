"""``SolveBudget`` — the anytime-tuning contract threaded through the stack.

A budget bundles a wall-clock deadline with an optional node limit and a
solve *tier*.  The same object travels from :class:`~repro.api.specs.AdvisorSpec`
down to :class:`~repro.lp.highs_backend.MilpBackend`, so every
layer shares one clock: the deadline is anchored **once** (:meth:`start`) when
the pipeline begins, and each stage below it asks :meth:`remaining_seconds` /
:meth:`expired` against that same anchor instead of restarting its own timer.

Tiers select how the CoPhy pipeline spends the budget:

* ``"exact"`` — the BIP solve as before, interrupted at the deadline with the
  best-so-far incumbent, its gap and ``timed_out=True``;
* ``"heuristic"`` — only the greedy knapsack pass
  (:mod:`repro.core.heuristics`), never building the BIP;
* ``"cascade"`` — greedy first, then (budget permitting) the exact solve;
  whichever is better wins.

This module sits at the bottom layer on purpose: ``lp`` imports nothing from
``core``/``api``, so every layer can depend on the budget without cycles.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

__all__ = ["SOLVE_TIERS", "SolveBudget"]

#: Valid values for :attr:`SolveBudget.tier` (and ``AdvisorSpec.solve_tier``).
SOLVE_TIERS = ("heuristic", "cascade", "exact")


@dataclass
class SolveBudget:
    """A wall-clock / node budget for one tuning request.

    Args:
        time_budget_ms: Wall-clock budget in milliseconds; ``None`` means
            unlimited.  The clock starts at the first :meth:`start` call.
        node_limit: Optional cap on HiGHS's branch-and-bound nodes.
        tier: One of :data:`SOLVE_TIERS`; how the pipeline spends the budget.
    """

    time_budget_ms: float | None = None
    node_limit: int | None = None
    tier: str = "exact"
    #: Monotonic deadline, anchored by :meth:`start`; ``None`` until then.
    _deadline: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tier not in SOLVE_TIERS:
            raise ValueError(
                f"Unknown solve tier {self.tier!r}; expected one of "
                f"{', '.join(SOLVE_TIERS)}")
        if self.time_budget_ms is not None:
            self.time_budget_ms = float(self.time_budget_ms)
            if (not math.isfinite(self.time_budget_ms)
                    or self.time_budget_ms <= 0):
                raise ValueError("time_budget_ms must be a positive, finite "
                                 f"number of milliseconds, got "
                                 f"{self.time_budget_ms!r}")
        if self.node_limit is not None:
            self.node_limit = int(self.node_limit)
            if self.node_limit <= 0:
                raise ValueError("node_limit must be positive, got "
                                 f"{self.node_limit!r}")

    # ------------------------------------------------------------------ factory
    @classmethod
    def from_spec(cls, time_budget_ms: float | None, solve_tier: str | None,
                  ) -> "SolveBudget | None":
        """Budget implied by ``AdvisorSpec`` fields; ``None`` when unbudgeted.

        An unset tier defaults to ``"cascade"`` when a deadline is present
        (graceful degradation) and ``"exact"`` otherwise; an explicit tier is
        honored even without a deadline (e.g. heuristic-only tuning).
        """
        if time_budget_ms is None and solve_tier is None:
            return None
        tier = solve_tier if solve_tier is not None else (
            "cascade" if time_budget_ms is not None else "exact")
        return cls(time_budget_ms=time_budget_ms, tier=tier)

    # -------------------------------------------------------------------- clock
    @property
    def started(self) -> bool:
        return self._deadline is not None

    def start(self) -> "SolveBudget":
        """Anchor the deadline (idempotent); returns ``self`` for chaining."""
        if self._deadline is None and self.time_budget_ms is not None:
            self._deadline = time.perf_counter() + self.time_budget_ms / 1000.0
        return self

    def remaining_seconds(self) -> float | None:
        """Seconds left on the clock (``None`` = no wall-clock limit).

        Never negative: once the deadline passes, 0.0 is returned so the
        value can be handed to backends as a time limit directly.
        """
        if self.time_budget_ms is None:
            return None
        if self._deadline is None:
            return self.time_budget_ms / 1000.0
        return max(0.0, self._deadline - time.perf_counter())

    def expired(self) -> bool:
        """Whether the anchored deadline has passed (False when unlimited)."""
        if self._deadline is None:
            return False
        return time.perf_counter() >= self._deadline

    def can_spend(self, seconds: float) -> bool:
        """Whether ``seconds`` of extra wall clock fits in the budget.

        The retry–deadline contract: a backoff sleep is only taken when the
        remaining budget covers it, so no retry ever pushes a request past
        its own deadline.  Always True when unlimited.
        """
        remaining = self.remaining_seconds()
        return remaining is None or remaining >= max(0.0, seconds)

    # -------------------------------------------------------------- sub-budgets
    def clamp_time_limit(self, limit_seconds: float | None) -> float | None:
        """Merge a solver-configured time limit with the remaining budget."""
        remaining = self.remaining_seconds()
        if remaining is None:
            return limit_seconds
        if limit_seconds is None:
            return remaining
        return min(limit_seconds, remaining)

    def shard_slice_seconds(self, shard_count: int, workers: int = 1,
                            merge_reserve: float = 0.25) -> float | None:
        """Per-shard wall-clock slice for a scale-out solve.

        The remaining budget minus a reserved ``merge_reserve`` fraction (for
        the merge BIP) is divided across the ``ceil(shard_count / workers)``
        waves of shard solves that actually run sequentially; shards within a
        wave run in parallel and share the same slice.
        """
        remaining = self.remaining_seconds()
        if remaining is None:
            return None
        waves = max(1, math.ceil(max(1, shard_count) / max(1, workers)))
        return (remaining * (1.0 - merge_reserve)) / waves
