"""CoPhy core: the BIP-based index advisor.

The pipeline mirrors Figure 2 of the paper:

``CGen`` (:mod:`repro.indexes.candidate_generation`) produces the candidate
set ``S``; ``INUM`` (:mod:`repro.inum`) pre-processes the workload;
:class:`~repro.core.bip_builder.BipBuilder` emits the compact BIP of
Theorem 1; the DBA's constraints (:mod:`repro.core.constraints`) are merged in
as linear rows; :class:`~repro.core.solver.CoPhySolver` hands the program to
an off-the-shelf BIP solver with gap-based early termination; soft constraints
are explored along a Pareto-optimal curve
(:mod:`repro.core.soft_constraints`); and
:class:`~repro.core.advisor.CoPhyAdvisor` ties everything together.  Interactive
re-tuning (section 4.2) extends or re-solves one BIP across steps; it is the
service's session, :class:`repro.api.TuningSession`.
"""

from repro.core.bip_builder import BipBuilder, CophyBip
from repro.core.constraints import (
    ClusteredIndexConstraint,
    IndexCountConstraint,
    IndexWidthConstraint,
    QueryCostConstraint,
    QuerySpeedupGenerator,
    SoftConstraint,
    StorageBudgetConstraint,
    TuningConstraint,
    UpdateCostConstraint,
)
from repro.core.solver import CoPhySolver
from repro.core.soft_constraints import ParetoExplorer, ParetoPoint
from repro.core.advisor import CoPhyAdvisor, Recommendation

__all__ = [
    "BipBuilder",
    "CophyBip",
    "TuningConstraint",
    "StorageBudgetConstraint",
    "IndexCountConstraint",
    "IndexWidthConstraint",
    "ClusteredIndexConstraint",
    "QueryCostConstraint",
    "QuerySpeedupGenerator",
    "UpdateCostConstraint",
    "SoftConstraint",
    "CoPhySolver",
    "ParetoExplorer",
    "ParetoPoint",
    "CoPhyAdvisor",
    "Recommendation",
]
