"""The declarative request side of the unified tuning API.

A tuning problem is described by one :class:`TuningRequest`: the workload,
the catalog, the constraint set, and three small specs —
:class:`AdvisorSpec` (which strategy, with which knobs),
:class:`CostingSpec` (how the shared INUM cache is configured) and
:class:`ScaleSpec` (the scale-out pipeline knobs).  The specs are plain data:
they carry no live objects, so a request's resolved pipeline can be recorded
verbatim in the result's provenance and compared across sessions.

``Tuner.tune(request)`` / ``TuningService.tune(request)`` are the only
consumers; nothing here touches an optimizer or a cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Sequence

from repro.catalog.schema import Schema
from repro.core.constraints import SoftConstraint, TuningConstraint
from repro.exceptions import WorkloadError
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.index import Index
from repro.inum.cache import (
    DEFAULT_MAX_ORDERS_PER_TABLE,
    DEFAULT_MAX_TEMPLATES_PER_QUERY,
)
from repro.lp.budget import SOLVE_TIERS, SolveBudget
from repro.workload.workload import Workload

__all__ = ["AdvisorSpec", "CostingSpec", "ScaleSpec", "TuningRequest"]


@dataclass(frozen=True)
class AdvisorSpec:
    """Which advisor strategy to run, with its constructor knobs.

    Attributes:
        name: Registry name of the advisor (``"cophy"``, ``"ilp"``,
            ``"dta"``/``"tool-b"``, ``"relaxation"``/``"tool-a"``,
            ``"scaleout"`` — see :func:`repro.api.available_advisors`).
        options: Keyword options forwarded to the registered factory.  Must be
            JSON-representable values (they are recorded in the provenance);
            live objects (custom generators, shared caches) belong to the
            imperative :func:`repro.api.make_advisor` escape hatch instead.
        time_budget_ms: Anytime wall-clock budget for the whole tune, in
            milliseconds.  ``None`` (the default) keeps today's run-to-gap
            behaviour.  When set, the advisor returns its best feasible
            answer by the deadline and flags ``timed_out`` in the result's
            diagnostics.
        solve_tier: Anytime pipeline tier — one of ``"heuristic"``,
            ``"cascade"`` or ``"exact"``.  ``None`` resolves to ``"cascade"``
            when a time budget is set and ``"exact"`` otherwise (see
            :meth:`repro.lp.SolveBudget.from_spec`).
    """

    name: str = "cophy"
    options: Mapping[str, Any] = field(default_factory=dict)
    time_budget_ms: float | None = None
    solve_tier: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))
        if self.time_budget_ms is not None and self.time_budget_ms <= 0:
            raise ValueError(
                f"time_budget_ms must be positive, got {self.time_budget_ms}")
        if self.solve_tier is not None and self.solve_tier not in SOLVE_TIERS:
            raise ValueError(
                f"solve_tier must be one of {SOLVE_TIERS}, "
                f"got {self.solve_tier!r}")

    def solve_budget(self) -> SolveBudget | None:
        """The spec's anytime budget (``None`` when neither field is set)."""
        return SolveBudget.from_spec(self.time_budget_ms, self.solve_tier)


@dataclass(frozen=True)
class CostingSpec:
    """How the per-schema INUM cache behind a request is configured.

    Requests with equal costing specs share one cache (and therefore template
    plans, gamma matrices and workload tensors); a request with different
    enumeration caps gets its own cache, because caps change the template set
    and with it every INUM cost.
    """

    max_orders_per_table: int = DEFAULT_MAX_ORDERS_PER_TABLE
    max_templates_per_query: int = DEFAULT_MAX_TEMPLATES_PER_QUERY

    def to_provenance(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ScaleSpec:
    """Knobs of the scale-out pipeline (compress → partition → solve → merge).

    Only meaningful for the ``"scaleout"`` advisor; when a request carries a
    scale spec and no advisor spec, the scale-out advisor is implied.  Fields
    mirror :class:`repro.advisors.scaleout.ScaleOutAdvisor`.
    """

    signature: str = "structural"
    max_cost_error: float = 0.0
    compress: bool = True
    shard_count: int | None = None
    shard_workers: int | None = None
    budget_oversubscription: float | None = None

    def to_options(self) -> dict[str, Any]:
        """The spec as ``ScaleOutAdvisor`` constructor options."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    to_provenance = to_options


@dataclass
class TuningRequest:
    """One declarative tuning problem: everything a tune needs, no wiring.

    Attributes:
        workload: The workload being tuned.
        schema: The catalog it runs against.
        constraints: Hard and/or soft DBA constraints.
        candidates: Optional explicit candidate universe (a
            :class:`CandidateSet` or any iterable of :class:`Index`); when
            omitted the advisor runs its own candidate generation, exactly as
            the legacy constructors did.
        dba_indexes: Extra DBA-supplied candidates (``S_DBA``) merged into the
            candidate universe.
        advisor: An :class:`AdvisorSpec`, a bare registry name, or ``None``
            (= ``"cophy"``, or ``"scaleout"`` when ``scale`` is given).
        costing: Shared-cache configuration (see :class:`CostingSpec`).
        scale: Scale-out pipeline knobs; requires the ``"scaleout"`` advisor.
        per_statement_costs: Whether the result should carry per-statement
            INUM costs under the chosen configuration.  ``None`` evaluates
            only advisors wired to the shared gamma-matrix cache (CoPhy,
            ILP; not ``"scaleout"``, whose point is to never cost the full
            workload monolithically, and not the black-box baselines, which
            deliberately avoid INUM).  Explicit ``True`` always evaluates.
        request_id: Free-form correlation id echoed into the provenance.
    """

    workload: Workload
    schema: Schema
    constraints: Sequence[TuningConstraint | SoftConstraint] = ()
    candidates: CandidateSet | Sequence[Index] | None = None
    dba_indexes: Sequence[Index] = ()
    advisor: AdvisorSpec | str | None = None
    costing: CostingSpec = field(default_factory=CostingSpec)
    scale: ScaleSpec | None = None
    per_statement_costs: bool | None = None
    request_id: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.workload, Workload):
            raise WorkloadError(
                f"TuningRequest.workload must be a Workload, got "
                f"{type(self.workload).__name__}")
        self.constraints = tuple(self.constraints)
        self.dba_indexes = tuple(self.dba_indexes)
        if isinstance(self.advisor, str):
            self.advisor = AdvisorSpec(self.advisor)
        if (self.scale is not None and self.advisor is not None
                and self.advisor.name != "scaleout"):
            raise ValueError(
                f"ScaleSpec requires the 'scaleout' advisor, not "
                f"{self.advisor.name!r}")

    def resolved_advisor(self) -> AdvisorSpec:
        """The effective advisor spec (scale-out implied by a scale spec)."""
        if self.advisor is not None:
            return self.advisor
        return AdvisorSpec("scaleout" if self.scale is not None else "cophy")

    def resolved_options(self) -> dict[str, Any]:
        """Advisor options with the scale spec merged in (explicit wins)."""
        options = dict(self.resolved_advisor().options)
        if self.scale is not None:
            for key, value in self.scale.to_options().items():
                options.setdefault(key, value)
        return options
