"""``RetryPolicy`` — one reusable exponential-backoff retry loop (PR 7).

Every retrying layer (shard executor, HTTP client) shares this policy
object, so retry semantics are uniform:

* exponential backoff with a cap and symmetric jitter (seeded for
  deterministic tests);
* a *retryable* predicate — programming errors always propagate on the
  first attempt;
* **deadline awareness**: given the request's
  :class:`~repro.lp.budget.SolveBudget`, the loop never sleeps past the
  budget's deadline — an exhausted budget re-raises immediately instead of
  burning wall clock the caller no longer has;
* a ``Retry-After`` floor: exceptions carrying a ``retry_after_s``
  attribute (:class:`~repro.exceptions.ServerOverloaded`) raise the delay
  to at least what the server asked for.
"""

from __future__ import annotations

import random
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

from repro.reliability.faults import InjectedFault

__all__ = ["RetryPolicy", "default_retryable"]

#: Exception types that signal a transient failure worth retrying.
_TRANSIENT_TYPES = (InjectedFault, BrokenProcessPool, ConnectionError,
                    TimeoutError, OSError)


def default_retryable(exc: BaseException) -> bool:
    """Whether an exception looks transient (crash/connectivity, not a bug)."""
    return isinstance(exc, _TRANSIENT_TYPES)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, capped attempts and budget awareness.

    Args:
        max_attempts: Total tries including the first (1 = no retries).
        base_delay_s: Backoff before the first retry.
        cap_delay_s: Upper bound on any single backoff sleep.
        multiplier: Exponential growth factor per retry.
        jitter: Symmetric jitter fraction (0.1 = each delay drawn from
            ±10 % around the exponential value).
        seed: Seed for the jitter RNG; ``None`` uses the module RNG
            (tests pass a seed for reproducible delay sequences).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    cap_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.cap_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    # ----------------------------------------------------------------- delays
    def backoff_delay(self, attempt: int,
                      rng: random.Random | None = None) -> float:
        """The sleep before retrying after failed attempt ``attempt``."""
        delay = min(self.cap_delay_s,
                    self.base_delay_s * self.multiplier ** (attempt - 1))
        if self.jitter and delay > 0:
            draw = (rng.random() if rng is not None else random.random())
            delay *= 1.0 + self.jitter * (2.0 * draw - 1.0)
        return max(0.0, delay)

    # ------------------------------------------------------------------- loop
    def call(self, fn: Callable[[int], Any], *, budget: Any = None,
             retryable: Callable[[BaseException], bool] | None = None,
             on_retry: Callable[[int, BaseException, float], None]
             | None = None) -> Any:
        """Run ``fn(attempt)`` with retries; attempts are 1-based.

        ``budget`` is an optional started
        :class:`~repro.lp.budget.SolveBudget`: a retry whose backoff sleep
        would cross the deadline (or whose budget already expired) is not
        taken — the triggering exception propagates instead.  ``on_retry``
        observes every retry actually taken (for counters).
        """
        predicate = retryable if retryable is not None else default_retryable
        rng = random.Random(self.seed) if self.seed is not None else None
        attempt = 1
        while True:
            try:
                return fn(attempt)
            except Exception as exc:
                if attempt >= self.max_attempts or not predicate(exc):
                    raise
                delay = self.backoff_delay(attempt, rng)
                retry_after = getattr(exc, "retry_after_s", None)
                if retry_after is not None:
                    delay = max(delay, float(retry_after))
                if budget is not None and (budget.expired()
                                           or not budget.can_spend(delay)):
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc, delay)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
