"""Common advisor interface, the Recommendation result object and helpers."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.configuration import Configuration
from repro.lp.budget import SolveBudget
from repro.lp.solution import GapTracePoint
from repro.workload.workload import Workload, WorkloadStatement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (advisors <- inum)
    from repro.inum.cache import InumCache

__all__ = ["Recommendation", "Advisor", "weighted_statement_costs"]


def weighted_statement_costs(inum: "InumCache",
                             statements: Sequence[WorkloadStatement],
                             eval_workload: Workload,
                             configuration: Configuration
                             ) -> dict[WorkloadStatement, float]:
    """Per-statement ``weight * statement_cost`` from one tensor reduction.

    The shared fast path of the greedy advisors' probe loops: one batched
    ``InumCache.statement_costs`` call per probed configuration, bit-identical
    per statement to the per-query loop it replaces.  ``statements`` must be
    the statements of ``eval_workload``, in order.
    """
    costs = inum.statement_costs(eval_workload, configuration)
    return {statement: statement.weight * float(cost)
            for statement, cost in zip(statements, costs)}


@dataclass
class Recommendation:
    """The result of one index-tuning session.

    Attributes:
        configuration: The recommended index set ``X*``.
        advisor_name: Which advisor produced it.
        objective_estimate: The advisor's own estimate of the weighted
            workload cost under ``X*`` (not the ground-truth what-if cost —
            the evaluation harness recomputes that separately).
        timings: Per-phase wall-clock seconds, each the reading of the
            stage's span (:func:`repro.obs.trace.stage`).  CoPhy and ILP
            report the ``inum`` / ``build`` / ``solve`` breakdown of
            Figures 5 and 10; every advisor reports ``total``.
        candidate_count: Number of candidate indexes the advisor examined
            (the §5.2 observation: 1933 for CoPhy vs. 170 / 45 for the
            commercial tools).
        whatif_calls: What-if optimizer invocations consumed.
        gap: Reported optimality gap (solver-based advisors only).
        gap_trace: Gap-over-time feedback points (CoPhy's early-termination
            feature; empty for advisors that cannot provide it).
        extras: Advisor-specific extra results (e.g. the Pareto set).
        timed_out: True when a :class:`~repro.lp.budget.SolveBudget` deadline
            interrupted the run; the recommendation is the best-so-far
            feasible configuration and ``gap`` its optimality bound.
        solve_tier: The anytime tier that actually produced the result
            (``"exact"`` when no budget was involved).
        degraded: True when part of the pipeline was lost to faults (e.g. a
            shard whose retries were exhausted) and the recommendation
            covers only the surviving work — loud, flagged degradation.
        retries: Retries the reliability layer took while producing this
            recommendation (timing-only jitter: not part of fingerprints).
        faults_survived: Failures absorbed — retried or degraded around —
            instead of propagated.
    """

    configuration: Configuration
    advisor_name: str
    objective_estimate: float = float("nan")
    timings: dict[str, float] = field(default_factory=dict)
    candidate_count: int = 0
    whatif_calls: int = 0
    gap: float = 0.0
    gap_trace: tuple[GapTracePoint, ...] = ()
    extras: dict = field(default_factory=dict)
    timed_out: bool = False
    solve_tier: str = "exact"
    degraded: bool = False
    retries: int = 0
    faults_survived: int = 0

    @property
    def total_seconds(self) -> float:
        return self.timings.get("total", sum(self.timings.values()))

    @property
    def index_count(self) -> int:
        return len(self.configuration)

    def summary(self) -> dict[str, float | int | str]:
        """Flat summary used by the benchmark reports."""
        return {
            "advisor": self.advisor_name,
            "indexes": self.index_count,
            "candidates": self.candidate_count,
            "whatif_calls": self.whatif_calls,
            "objective": self.objective_estimate,
            "gap": self.gap,
            "total_seconds": round(self.total_seconds, 4),
        }


class Advisor(abc.ABC):
    """Interface every index advisor implements.

    An advisor takes a workload, a candidate set (or generates its own) and a
    set of constraints, and returns a :class:`Recommendation`.
    """

    name: str = "advisor"

    @abc.abstractmethod
    def tune(self, workload: Workload, constraints: Sequence = (),
             candidates: CandidateSet | None = None,
             budget: "SolveBudget | None" = None) -> Recommendation:
        """Run one tuning session and return the recommendation.

        ``budget`` (an optional :class:`~repro.lp.budget.SolveBudget`) is the
        anytime contract: advisors honoring it stop at the deadline and
        return the best-so-far feasible result with ``timed_out=True``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
