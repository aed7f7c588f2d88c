"""Soft constraints: Pareto-frontier exploration with the Chord algorithm.

A soft constraint (e.g. "total index storage should be around M, but exceeding
it is acceptable when it buys enough workload-cost reduction") is handled
outside the BIP solver (section 4.1 and Appendix D of the paper): the BIP's
objective is replaced by the scalarisation

    lambda * cost(X, W) + (1 - lambda) * (measure(X) - target)

and the BIP is re-solved for several values of ``lambda`` in [0, 1].  The
resulting solutions are Pareto-optimal with respect to (workload cost,
measure).  The Chord algorithm of Daskalakis, Diakonikolas and Yannakakis
picks the ``lambda`` values adaptively so that a small number of solves yields
a provably good approximation of the whole curve.

Only the objective changes between solves, so every point re-solves the one
BIP already built — INUM and the build are paid once, which makes the
follow-up points much cheaper than the first one (the effect Figure 6(c)
reports).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from typing import Sequence

import numpy as np

from repro.core.bip_builder import CophyBip
from repro.core.constraints import SoftConstraint, TuningConstraint
from repro.core.solver import CoPhySolver, SolveReport
from repro.indexes.configuration import Configuration
from repro.lp.model import Objective

__all__ = ["ParetoPoint", "ParetoExplorer"]


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the Pareto-optimal trade-off curve."""

    lambda_value: float
    workload_cost: float
    measures: tuple[float, ...]
    configuration: Configuration
    solve_seconds: float

    @property
    def measure(self) -> float:
        """Shorthand for the first (usually only) soft-constraint measure."""
        return self.measures[0] if self.measures else 0.0


@dataclass
class _NormalisedSoft:
    """A soft constraint with its linear measure and scaling factor."""

    measure: Objective
    target: float
    scale: float


class ParetoExplorer:
    """Generates Pareto-optimal recommendations for soft constraints."""

    def __init__(self, solver: CoPhySolver, chord_tolerance: float = 0.05,
                 max_points: int = 9):
        if max_points < 2:
            raise ValueError("max_points must be at least 2")
        self._solver = solver
        self._chord_tolerance = chord_tolerance
        self._max_points = max_points

    # -------------------------------------------------------------------- public
    def explore(self, bip: CophyBip, soft_constraints: Sequence[SoftConstraint],
                hard_constraints: Sequence[TuningConstraint] = (),
                lambdas: Sequence[float] | None = None) -> list[ParetoPoint]:
        """Compute a representative subset of the Pareto curve.

        Args:
            bip: The tuning problem's BIP.
            soft_constraints: One or more soft constraints to trade off
                against workload cost.
            hard_constraints: Hard constraints that must always hold.
            lambdas: Explicit ``lambda`` values to evaluate (bypasses the
                Chord algorithm; used by the benchmark that reproduces the
                fixed lambda sweep of Figure 6(c)).
        """
        if not soft_constraints:
            raise ValueError("explore() needs at least one soft constraint")
        normalised = [self._normalise(bip, soft) for soft in soft_constraints]

        if lambdas is not None:
            return [self._solve_point(bip, normalised, hard_constraints,
                                      lambda_value)
                    for lambda_value in lambdas]
        return self._chord(bip, normalised, hard_constraints)

    # ----------------------------------------------------------- chord algorithm
    def _chord(self, bip: CophyBip, normalised: list[_NormalisedSoft],
               hard_constraints: Sequence[TuningConstraint]) -> list[ParetoPoint]:
        """Adaptive lambda selection following the Chord algorithm."""
        low_point = self._solve_point(bip, normalised, hard_constraints, 0.0)
        high_point = self._solve_point(bip, normalised, hard_constraints, 1.0)
        points: dict[float, ParetoPoint] = {0.0: low_point, 1.0: high_point}
        segments: list[tuple[float, float]] = [(0.0, 1.0)]

        while segments and len(points) < self._max_points:
            low_lambda, high_lambda = segments.pop()
            low = points[low_lambda]
            high = points[high_lambda]
            if self._segment_is_flat(low, high):
                continue
            mid_lambda = 0.5 * (low_lambda + high_lambda)
            mid_point = self._solve_point(bip, normalised, hard_constraints,
                                          mid_lambda)
            points[mid_lambda] = mid_point
            if self._distance_from_chord(low, high, mid_point) > self._chord_tolerance:
                segments.append((low_lambda, mid_lambda))
                segments.append((mid_lambda, high_lambda))
        return [points[key] for key in sorted(points)]

    def _segment_is_flat(self, low: ParetoPoint, high: ParetoPoint) -> bool:
        cost_span = abs(low.workload_cost - high.workload_cost)
        measure_span = abs(low.measure - high.measure)
        cost_scale = max(abs(low.workload_cost), abs(high.workload_cost), 1e-9)
        measure_scale = max(abs(low.measure), abs(high.measure), 1e-9)
        return (cost_span / cost_scale < self._chord_tolerance
                and measure_span / measure_scale < self._chord_tolerance)

    @staticmethod
    def _distance_from_chord(low: ParetoPoint, high: ParetoPoint,
                             mid: ParetoPoint) -> float:
        """Normalised distance of ``mid`` from the chord between ``low`` and ``high``."""
        cost_scale = max(abs(low.workload_cost), abs(high.workload_cost), 1e-9)
        measure_scale = max(abs(low.measure), abs(high.measure), 1e-9)
        ax, ay = low.measure / measure_scale, low.workload_cost / cost_scale
        bx, by = high.measure / measure_scale, high.workload_cost / cost_scale
        px, py = mid.measure / measure_scale, mid.workload_cost / cost_scale
        segment_dx, segment_dy = bx - ax, by - ay
        segment_length = (segment_dx ** 2 + segment_dy ** 2) ** 0.5
        if segment_length < 1e-12:
            return 0.0
        # Perpendicular distance from the point to the chord line.
        cross = abs(segment_dx * (ay - py) - segment_dy * (ax - px))
        return cross / segment_length

    # ---------------------------------------------------------------- internals
    def _normalise(self, bip: CophyBip, soft: SoftConstraint) -> _NormalisedSoft:
        measure = soft.measure(bip)
        scale = (float(np.abs(measure.coefficients).max())
                 if measure.coefficients.size else 1.0)
        return _NormalisedSoft(measure=measure, target=soft.target_value(),
                               scale=max(scale, 1e-9))

    def _solve_point(self, bip: CophyBip, normalised: list[_NormalisedSoft],
                     hard_constraints: Sequence[TuningConstraint],
                     lambda_value: float) -> ParetoPoint:
        lambda_value = min(1.0, max(0.0, lambda_value))
        model = bip.model
        cost = model.objective
        cost_scale = (float(np.abs(cost.coefficients).max())
                      if cost.coefficients.size else 1.0)
        factor = lambda_value / cost_scale
        coefficients = cost.cost_vector(model.variable_count) * factor
        constant = cost.constant * factor
        for soft in normalised:
            weight = (1.0 - lambda_value) / soft.scale
            columns = soft.measure.columns
            coefficients[columns] = (coefficients[columns]
                                     + soft.measure.coefficients * weight)
            constant = constant + (soft.measure.constant
                                   + soft.target * -1.0) * weight
        started = time.perf_counter()
        report: SolveReport = self._solver.solve(
            bip, hard_constraints=hard_constraints,
            objective=Objective(np.arange(model.variable_count), coefficients,
                                constant))
        elapsed = time.perf_counter() - started
        measures = tuple(soft.measure.value(report.solution.vector)
                         for soft in normalised)
        return ParetoPoint(
            lambda_value=lambda_value,
            workload_cost=report.objective,
            measures=measures,
            configuration=report.configuration,
            solve_seconds=elapsed,
        )
