"""Evaluation metrics: baseline configuration, ground-truth cost and perf."""

from __future__ import annotations

from typing import Iterable

from repro.indexes.configuration import Configuration, baseline_configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.workload import Workload

__all__ = ["baseline_configuration", "workload_cost", "perf_improvement",
           "speedup_percent"]


def workload_cost(optimizer: WhatIfOptimizer, workload: Workload,
                  configuration: Configuration | Iterable[Index]) -> float:
    """Ground-truth weighted workload cost under a configuration.

    Every statement is costed by invoking the what-if optimizer directly (not
    INUM), so advisors are judged by the optimizer's own cost model, exactly
    as in the paper's methodology.  When the evaluator is an INUM cache
    (``run_advisor(..., evaluation_inum=...)``), its own ``workload_cost``
    answers from the workload gamma tensor in one batched reduction —
    bit-identical to the per-statement sum.
    """
    if not isinstance(configuration, Configuration):
        configuration = Configuration(configuration)
    if isinstance(optimizer, InumCache):  # one stacked tensor reduction
        return optimizer.workload_cost(workload, configuration)
    return sum(statement.weight
               * optimizer.statement_cost(statement.query, configuration)
               for statement in workload)


def perf_improvement(optimizer: WhatIfOptimizer, workload: Workload,
                     recommended: Configuration,
                     baseline: Configuration | None = None) -> float:
    """``perf(X*, W) = 1 - cost(X* ∪ X0, W) / cost(X0, W)`` (section 5.1).

    Args:
        optimizer: Ground-truth what-if optimizer.
        workload: Evaluation workload.
        recommended: The advisor's recommendation ``X*``.
        baseline: The baseline ``X0``; the clustered-PK baseline of the
            optimizer's schema is used when omitted.

    Returns:
        The relative cost reduction in [0, 1) — higher is better.
    """
    if baseline is None:
        baseline = baseline_configuration(optimizer.schema)
    baseline_cost = workload_cost(optimizer, workload, baseline)
    combined = baseline.union(recommended)
    recommended_cost = workload_cost(optimizer, workload, combined)
    if baseline_cost <= 0:
        return 0.0
    return max(0.0, 1.0 - recommended_cost / baseline_cost)


def speedup_percent(optimizer: WhatIfOptimizer, workload: Workload,
                    recommended: Configuration,
                    baseline: Configuration | None = None) -> float:
    """The perf metric expressed as a percentage (as in Figures 7-9)."""
    return 100.0 * perf_improvement(optimizer, workload, recommended, baseline)
