"""Experiment runner used by the per-figure benchmark scripts.

Two entry points:

* :func:`run_advisor` / :func:`compare_advisors` — the legacy surface taking
  pre-built advisor instances (kept because the figure benchmarks wire
  deliberately unusual instrumented advisors);
* :func:`run_request` / :func:`compare_requests` — the unified-API surface:
  declarative :class:`~repro.api.specs.TuningRequest` objects served through
  one shared :class:`~repro.api.tuner.Tuner`, so a comparison sweep reuses
  templates/tensors across advisors exactly like production traffic would.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.advisors.base import Advisor, Recommendation
from repro.bench.metrics import baseline_configuration, perf_improvement
from repro.core.constraints import SoftConstraint, TuningConstraint
from repro.indexes.candidate_generation import CandidateSet
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - typing-only (bench must not force api)
    from repro.api.result import TuningResult
    from repro.api.specs import TuningRequest
    from repro.api.tuner import Tuner

__all__ = ["AdvisorRun", "ExperimentResult", "run_advisor", "compare_advisors",
           "run_request", "compare_requests"]


def _safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` that never raises on degenerate inputs.

    Instant advisors (``wall_seconds == 0`` on coarse clocks), zero-benefit
    recommendations (``perf == 0``) and timed-out runs (``inf``) all occur in
    benchmark sweeps; comparisons against them must degrade into explicit
    ``inf`` / ``nan`` instead of ``ZeroDivisionError`` so report tables can
    render every cell.

    * Both operands zero, or both infinite: ``nan`` (the ratio is undefined).
    * Zero denominator: ``inf`` (``-inf`` for a negative numerator).
    * Infinite denominator with finite numerator: ``0.0``.
    * ``nan`` anywhere propagates as ``nan``.
    """
    if math.isnan(numerator) or math.isnan(denominator):
        return float("nan")
    if denominator == 0.0:
        if numerator == 0.0:
            return float("nan")
        return math.copysign(float("inf"), numerator)
    if math.isinf(denominator):
        if math.isinf(numerator):
            return float("nan")
        return 0.0
    return numerator / denominator


@dataclass
class AdvisorRun:
    """One advisor's outcome on one tuning-problem instance."""

    advisor_name: str
    recommendation: Recommendation
    perf: float
    wall_seconds: float
    #: Set by the unified-API surface (:func:`run_request`); ``None`` for
    #: legacy advisor-instance runs.
    result: "TuningResult | None" = None

    @property
    def speedup_percent(self) -> float:
        return 100.0 * self.perf

    def row(self) -> dict[str, float | int | str]:
        return {
            "advisor": self.advisor_name,
            "perf": round(self.perf, 4),
            "speedup_%": round(self.speedup_percent, 2),
            "indexes": self.recommendation.index_count,
            "candidates": self.recommendation.candidate_count,
            "whatif_calls": self.recommendation.whatif_calls,
            "seconds": round(self.wall_seconds, 3),
            "inum_s": round(self.recommendation.timings.get("inum", 0.0), 3),
            "build_s": round(self.recommendation.timings.get("build", 0.0), 3),
            "solve_s": round(self.recommendation.timings.get("solve", 0.0), 3),
        }


@dataclass
class ExperimentResult:
    """A named collection of advisor runs (one paper table / figure)."""

    name: str
    runs: list[AdvisorRun] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def run_for(self, advisor_name: str) -> AdvisorRun:
        for run in self.runs:
            if run.advisor_name == advisor_name:
                return run
        raise KeyError(f"No run for advisor {advisor_name!r} in {self.name!r}")

    def perf_ratio(self, numerator: str, denominator: str) -> float:
        """Ratio of perf improvements (the Table-1 metric)."""
        return _safe_ratio(self.run_for(numerator).perf,
                           self.run_for(denominator).perf)

    def time_ratio(self, numerator: str, denominator: str) -> float:
        return _safe_ratio(self.run_for(numerator).wall_seconds,
                           self.run_for(denominator).wall_seconds)

    def rows(self) -> list[dict]:
        return [run.row() for run in self.runs]


def run_advisor(advisor: Advisor, evaluation_optimizer: WhatIfOptimizer,
                workload: Workload,
                constraints: Sequence[TuningConstraint | SoftConstraint] = (),
                candidates: CandidateSet | None = None,
                evaluation_inum: InumCache | None = None) -> AdvisorRun:
    """Run one advisor and evaluate its recommendation against ground truth.

    The evaluation optimizer is deliberately a *separate* what-if optimizer so
    that the advisor's own call counters and caches are not polluted by the
    evaluation, mirroring the paper's use of the DBMS optimizer as the ground
    truth regardless of the advisor's internal approximations.

    ``evaluation_inum`` optionally replaces the per-statement what-if calls of
    the perf evaluation with the INUM cache's costing — answered from the
    workload gamma tensor in one batched reduction per configuration — which
    makes evaluating large workloads
    against many recommendations cheap.  Caveat: INUM is the approximation
    CoPhy-style advisors optimize against, so INUM-based evaluation can
    slightly favour them over black-box advisors; paper-faithful comparisons
    (the per-figure benchmarks) must keep the default what-if ground truth.
    """
    started = time.perf_counter()
    recommendation = advisor.tune(workload, constraints, candidates=candidates)
    wall_seconds = time.perf_counter() - started
    baseline = baseline_configuration(evaluation_optimizer.schema)
    evaluator = (evaluation_optimizer if evaluation_inum is None
                 else evaluation_inum)
    perf = perf_improvement(evaluator, workload,
                            recommendation.configuration, baseline)
    return AdvisorRun(advisor_name=advisor.name, recommendation=recommendation,
                      perf=perf, wall_seconds=wall_seconds)


def compare_advisors(advisors: Sequence[Advisor],
                     evaluation_optimizer: WhatIfOptimizer,
                     workload: Workload,
                     constraints: Sequence[TuningConstraint | SoftConstraint] = (),
                     candidates: CandidateSet | None = None,
                     name: str = "experiment",
                     evaluation_inum: InumCache | None = None) -> ExperimentResult:
    """Run several advisors on the same tuning-problem instance."""
    result = ExperimentResult(name=name,
                              metadata={"workload": workload.name,
                                        "statements": len(workload)})
    for advisor in advisors:
        result.runs.append(run_advisor(advisor, evaluation_optimizer, workload,
                                       constraints, candidates,
                                       evaluation_inum=evaluation_inum))
    return result


# --------------------------------------------------------- unified-API surface
def run_request(tuner: "Tuner", request: "TuningRequest",
                evaluation_optimizer: WhatIfOptimizer,
                evaluation_inum: InumCache | None = None) -> AdvisorRun:
    """Serve one declarative request and evaluate it against ground truth.

    The unified-API twin of :func:`run_advisor`: the advisor is resolved from
    the registry and wired to the tuner's shared per-schema cache, while the
    evaluation still runs on its own optimizer (or INUM cache) so the
    ground-truth measurement never pollutes the advisor-side counters.

    Timing semantics: ``wall_seconds`` excludes the facade's per-statement
    evaluation stage (result enrichment, not advisor work), but requests
    served through one shared tuner are still *sweep-relative* — an earlier
    request pays template builds that later requests reuse, exactly like
    production traffic.  For paper-faithful cold-start timings, use a fresh
    ``Tuner`` per request (or the legacy :func:`run_advisor`).
    """
    started = time.perf_counter()
    result = tuner.tune(request)
    wall_seconds = (time.perf_counter() - started
                    - result.diagnostics.timings.get("facade.evaluate", 0.0))
    baseline = baseline_configuration(evaluation_optimizer.schema)
    evaluator = (evaluation_optimizer if evaluation_inum is None
                 else evaluation_inum)
    perf = perf_improvement(evaluator, request.workload,
                            result.configuration, baseline)
    diagnostics = result.diagnostics
    recommendation = Recommendation(
        configuration=result.configuration,
        advisor_name=result.advisor_name,
        objective_estimate=result.objective_estimate,
        timings=dict(diagnostics.timings),
        candidate_count=diagnostics.candidate_count,
        whatif_calls=diagnostics.whatif_calls,
        gap=diagnostics.gap,
        extras=result.extras,
    )
    return AdvisorRun(advisor_name=result.advisor_name,
                      recommendation=recommendation, perf=perf,
                      wall_seconds=wall_seconds, result=result)


def compare_requests(tuner: "Tuner", requests: "Iterable[TuningRequest]",
                     evaluation_optimizer: WhatIfOptimizer,
                     name: str = "experiment",
                     evaluation_inum: InumCache | None = None
                     ) -> ExperimentResult:
    """Serve several requests (typically one per advisor spec) and compare.

    Requests against the same schema share the tuner's context — templates
    built for the first advisor are reused by every later one, which is both
    the realistic serving scenario and a large wall-clock win for sweeps.
    The flip side: time ratios between rows are sweep-relative (they depend
    on request order); see :func:`run_request` for cold-start alternatives.
    """
    runs = [run_request(tuner, request, evaluation_optimizer,
                        evaluation_inum=evaluation_inum)
            for request in requests]
    metadata: dict = {}
    if runs:
        first = runs[0].result.provenance["workload"]
        metadata = {"workload": first["name"],
                    "statements": first["statements"]}
    return ExperimentResult(name=name, runs=runs, metadata=metadata)
