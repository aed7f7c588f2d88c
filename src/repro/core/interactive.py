"""Interactive tuning sessions: incremental re-tuning after small input changes.

Section 4.2 of the paper: index tuning is exploratory — the DBA tweaks the
candidate set, the constraints or the workload and asks for a revised
recommendation.  CoPhy makes this cheap by (a) reusing the INUM cache and
(b) extending the existing BIP with a *delta* instead of rebuilding it, so a
re-tune is one more HiGHS solve of the program already built.  Figure 6(b)
shows the resulting order-of-magnitude reduction in response time.

Since the unified tuning API landed, sessions are opened through
``TuningService.open_session(TuningRequest(...))`` (which shares the
schema's cache with concurrent ``tune()`` traffic and returns uniform
``TuningResult`` objects); this class remains the delta-BIP engine behind
that surface and the legacy ``CoPhyAdvisor.create_session`` entry point.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.advisors.base import Recommendation
from repro.core.bip_builder import CophyBip
from repro.core.constraints import SoftConstraint, TuningConstraint, split_constraints
from repro.exceptions import SolverError
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.index import Index
from repro.lp.model import Objective, RowBlock, RowKind
from repro.obs.trace import stage
from repro.workload.workload import Workload

__all__ = ["InteractiveTuningSession"]


class InteractiveTuningSession:
    """A stateful tuning session supporting cheap incremental re-tuning.

    Args:
        advisor: The :class:`~repro.core.advisor.CoPhyAdvisor` that owns the
            INUM cache, BIP builder and solver.
        workload: The workload being tuned.
        constraints: Initial constraint set (hard and/or soft).
        candidates: Initial candidate set (CGen output when omitted).
        dba_indexes: Extra DBA-supplied candidates.
    """

    def __init__(self, advisor, workload: Workload,
                 constraints: Sequence[TuningConstraint | SoftConstraint] = (),
                 candidates: CandidateSet | None = None,
                 dba_indexes: Iterable[Index] = ()):
        self._advisor = advisor
        self._workload = workload
        self._hard, self._soft = split_constraints(constraints)
        if candidates is None:
            candidates = advisor.generate_candidates(workload, dba_indexes)
        self._candidates = candidates
        self._bip: CophyBip | None = None
        self._last_recommendation: Recommendation | None = None
        self._history: list[Recommendation] = []
        # Candidates retracted after the BIP was built: their z columns are
        # pinned to zero with a one-row block each instead of rebuilding the
        # program (the delta-BIP analogue of candidate *shrinking*).
        # Re-adding a pinned candidate simply removes its block.
        self._pinned_out: dict[Index, RowBlock] = {}

    # ---------------------------------------------------------------- accessors
    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def candidates(self) -> CandidateSet:
        return self._candidates

    @property
    def last_recommendation(self) -> Recommendation | None:
        return self._last_recommendation

    @property
    def history(self) -> tuple[Recommendation, ...]:
        return tuple(self._history)

    @property
    def bip(self) -> CophyBip:
        if self._bip is None:
            raise SolverError("Call recommend() before inspecting the BIP")
        return self._bip

    # ------------------------------------------------------------------ tuning
    # Caller holds the context lock (TuningSession drives this under it);
    # direct embedders are documented single-threaded.
    def recommend(self) -> Recommendation:
        """Produce the initial recommendation (full INUM + build + solve)."""
        advisor = self._advisor
        timings: dict[str, float] = {}
        whatif_before = self._whatif_calls()
        with stage(timings, "total"):
            with stage(timings, "inum", statements=len(self._workload)):
                advisor.inum.build_workload(self._workload)
            with stage(timings, "build"):
                self._bip = advisor.bip_builder.build(self._workload,
                                                      self._candidates)
                # A fresh BIP has no pin rows; stale entries would otherwise
                # make a later add_candidates() take the restore path (a no-op
                # on the new model) and silently skip creating the
                # candidate's columns.
                self._pinned_out = {}
            return self._solve(timings, whatif_before)

    def add_candidates(self, new_indexes: Iterable[Index]) -> Recommendation:
        """Re-tune after the DBA adds candidate indexes (delta BIP)."""
        if self._bip is None:
            self._candidates.add_all(new_indexes)
            return self.recommend()
        timings: dict[str, float] = {"inum": 0.0}
        whatif_before = self._whatif_calls()
        with stage(timings, "total"):
            with stage(timings, "build"):
                new_indexes = list(new_indexes)
                # Candidates that were pinned out earlier come back by
                # dropping their pin rows — their columns and coefficients
                # are still in the BIP.
                restored = [index for index in new_indexes
                            if index in self._pinned_out]
                if restored:
                    self._bip.model.remove_rows(
                        [self._pinned_out.pop(index) for index in restored])
                    self._candidates.add_all(restored)
                self._advisor.bip_builder.extend(self._bip, new_indexes)
            return self._solve(timings, whatif_before)

    def remove_candidates(self, removed_indexes: Iterable[Index]) -> Recommendation:
        """Re-tune after the DBA retracts candidate indexes (pinned delta BIP).

        The shrink analogue of :meth:`add_candidates`: instead of rebuilding
        the BIP without the retracted candidates, each one's ``z`` column
        is pinned to zero with a single row and the solver re-runs on the
        otherwise unchanged program.
        """
        removed = [index for index in dict.fromkeys(removed_indexes)
                   if index in self._candidates]
        self._candidates.remove_all(removed)
        if self._bip is None:
            return self.recommend()
        timings: dict[str, float] = {"inum": 0.0}
        whatif_before = self._whatif_calls()
        with stage(timings, "total"):
            with stage(timings, "build"):
                for index in removed:
                    column = self._bip.z_columns.get(index)
                    if column is None or index in self._pinned_out:
                        continue
                    self._pinned_out[index] = self._bip.model.add_rows(
                        RowBlock.of([(Objective.of([column], [1.0]), 0.0,
                                      RowKind.LESS_EQUAL)]))
            return self._solve(timings, whatif_before)

    def update_constraints(self,
                           constraints: Sequence[TuningConstraint | SoftConstraint]
                           ) -> Recommendation:
        """Re-tune with a different constraint set (a re-solve, no rebuild)."""
        self._hard, self._soft = split_constraints(constraints)
        if self._bip is None:
            return self.recommend()
        timings: dict[str, float] = {"inum": 0.0, "build": 0.0}
        whatif_before = self._whatif_calls()
        with stage(timings, "total"):
            return self._solve(timings, whatif_before)

    # ---------------------------------------------------------------- internals
    def _whatif_calls(self) -> int:
        """What-if calls so far on the advisor's (possibly shared) optimizer.

        A step reports its own delta, as ``CoPhyAdvisor.tune`` does, so what
        other requests did on the context never shows in it.  Template
        builds stay out, as they always have here: counting them would make
        a first step differ between a warm and a fresh context.
        """
        return self._advisor.optimizer.whatif_calls

    def _solve(self, timings: dict[str, float],
               whatif_before: int) -> Recommendation:
        advisor = self._advisor
        with stage(timings, "solve") as node:
            report = advisor.solver.solve(self._bip,
                                          hard_constraints=self._hard)
            node.set(**report.span_attributes())
        recommendation = Recommendation(
            configuration=report.configuration,
            advisor_name=advisor.name,
            objective_estimate=report.objective,
            timings=timings,
            candidate_count=len(self._candidates),
            whatif_calls=self._whatif_calls() - whatif_before,
            gap=report.gap,
            extras={"solve_report": report},
        )
        self._last_recommendation = recommendation
        self._history.append(recommendation)
        return recommendation
