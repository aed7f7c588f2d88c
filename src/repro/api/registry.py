"""The pluggable advisor registry.

Advisors are strategies implementing :class:`AdvisorProtocol` (structurally:
a ``name`` and ``tune(workload, constraints, candidates) -> Recommendation``).
Each strategy registers a *factory* under one or more names with
:func:`register_advisor`, entry-point style::

    @register_advisor("dta", aliases=("tool-b",))
    def _build_dta(schema, options, *, shared_optimizer=None, shared_inum=None):
        ...

A factory receives the catalog, the caller's constructor options, and — when
invoked by the :class:`~repro.api.tuner.Tuner` pipeline — the per-schema
shared optimizer and INUM cache; a factory that also declares a
``shared_candidate_generator`` keyword receives the per-schema candidate
generator, which keeps the generated candidates per workload.  The factory
decides how the shared state is wired: BIP-based advisors (CoPhy, ILP,
scale-out) always adopt the shared cache and generator, while the
paper-faithful black-box advisors (Tool-A, Tool-B) keep their own
generators and only adopt the cache when the options opt in with
``use_shared_inum=True`` — their cost is *defined* by their own optimizer
calls, so silently switching them to INUM would change the reproduced
behaviour.

Explicit ``optimizer=`` / ``inum=`` / ``candidate_generator=`` options
always win over shared wiring, so imperative callers keep full control:
``make_advisor("dta", schema, optimizer=opt, inum=InumCache(opt))`` behaves
exactly like the direct constructor call.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Mapping, Protocol, Sequence, runtime_checkable

from repro.advisors.base import Advisor, Recommendation
from repro.advisors.dta import DtaAdvisor
from repro.advisors.ilp_advisor import IlpAdvisor
from repro.advisors.relaxation import RelaxationAdvisor
from repro.advisors.scaleout import ScaleOutAdvisor
from repro.catalog.schema import Schema
from repro.core.advisor import CoPhyAdvisor
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.workload import Workload

__all__ = ["AdvisorProtocol", "AdvisorFactory", "register_advisor",
           "advisor_factory", "available_advisors", "make_advisor"]


@runtime_checkable
class AdvisorProtocol(Protocol):
    """What the Tuner requires of an advisor — the one strategy interface."""

    name: str

    def tune(self, workload: Workload, constraints: Sequence = (),
             candidates: CandidateSet | None = None) -> Recommendation:
        ...  # pragma: no cover - protocol definition


#: ``factory(schema, options, *, shared_optimizer=None, shared_inum=None)``,
#: optionally also ``shared_candidate_generator=None``.
AdvisorFactory = Callable[..., Advisor]

_FACTORIES: dict[str, AdvisorFactory] = {}
#: Registered names whose factory declares ``shared_candidate_generator``.
_TAKES_GENERATOR: set[str] = set()
#: Canonical name per registered alias (provenance records the canonical one).
_CANONICAL: dict[str, str] = {}


def register_advisor(name: str, *, aliases: Sequence[str] = ()
                     ) -> Callable[[AdvisorFactory], AdvisorFactory]:
    """Register an advisor factory under ``name`` (plus optional aliases).

    Re-registering a name replaces the factory — sessions may override a
    built-in strategy with an instrumented one.
    """

    def decorator(factory: AdvisorFactory) -> AdvisorFactory:
        keys = dict.fromkeys((name, *aliases))
        # Re-registering a canonical name also rebinds every alias that
        # pointed at it, so alias traffic never serves a stale strategy.
        keys.update((key, None) for key, canonical in _CANONICAL.items()
                    if canonical == name)
        takes_generator = ("shared_candidate_generator"
                           in inspect.signature(factory).parameters)
        for key in keys:
            _FACTORIES[key] = factory
            _CANONICAL[key] = name
            if takes_generator:
                _TAKES_GENERATOR.add(key)
            else:
                _TAKES_GENERATOR.discard(key)
        return factory

    return decorator


def advisor_factory(name: str) -> AdvisorFactory:
    """The factory registered under ``name``; raises ``KeyError`` with help."""
    try:
        return _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"No advisor registered under {name!r}; available: "
            f"{', '.join(available_advisors())}") from None


def canonical_name(name: str) -> str:
    """Resolve an alias (e.g. ``"tool-b"``) to its canonical registry name."""
    if name not in _CANONICAL:
        advisor_factory(name)  # raises the helpful KeyError
    return _CANONICAL[name]


def available_advisors() -> tuple[str, ...]:
    """Every registered name and alias, sorted."""
    return tuple(sorted(_FACTORIES))


def make_advisor(name: str, schema: Schema, *,
                 shared_optimizer: WhatIfOptimizer | None = None,
                 shared_inum: InumCache | None = None,
                 shared_candidate_generator: CandidateGenerator | None = None,
                 **options: Any) -> Advisor:
    """Construct an advisor through the registry.

    ``options`` are forwarded to the underlying constructor, so everything the
    constructors accept — including live ``optimizer=`` / ``inum=`` /
    ``candidate_generator=`` objects — works here.  ``shared_*`` are
    the Tuner's ambient per-schema state; imperative callers rarely pass them.
    """
    factory = advisor_factory(name)
    shared: dict[str, Any] = {}
    if shared_candidate_generator is not None and name in _TAKES_GENERATOR:
        shared["shared_candidate_generator"] = shared_candidate_generator
    return factory(schema, options, shared_optimizer=shared_optimizer,
                   shared_inum=shared_inum, **shared)


# --------------------------------------------------------------------- wiring
def _wire(options: Mapping[str, Any],
          shared_optimizer: WhatIfOptimizer | None,
          shared_inum: InumCache | None,
          adopt_shared_inum: bool,
          shared_candidate_generator: CandidateGenerator | None = None
          ) -> dict[str, Any]:
    """Merge shared per-schema state into constructor options.

    Explicit options always win; the shared INUM cache is only adopted when
    the strategy's policy says so (``adopt_shared_inum``), and the shared
    candidate generator only when one is passed.
    """
    wired = dict(options)
    if shared_optimizer is not None:
        wired.setdefault("optimizer", shared_optimizer)
    if adopt_shared_inum and shared_inum is not None:
        wired.setdefault("inum", shared_inum)
    if shared_candidate_generator is not None:
        wired.setdefault("candidate_generator", shared_candidate_generator)
    return wired


#: CoPhy options that configure an *owned* INUM cache; meaningless (and
#: silently ignored by the constructor) once a shared cache is adopted.
_INUM_CAP_OPTIONS = ("max_orders_per_table", "max_templates_per_query")


@register_advisor("cophy")
def _build_cophy(schema: Schema, options: Mapping[str, Any], *,
                 shared_optimizer: WhatIfOptimizer | None = None,
                 shared_inum: InumCache | None = None,
                 shared_candidate_generator: CandidateGenerator | None = None
                 ) -> Advisor:
    if shared_inum is not None and "inum" not in options:
        caps = [key for key in _INUM_CAP_OPTIONS if key in options]
        if caps:
            # Silently ignoring the caps would leave the provenance attesting
            # to enumeration limits that never applied.
            raise ValueError(
                f"AdvisorSpec options {caps} cannot apply to the shared INUM "
                f"cache; set the enumeration caps on CostingSpec instead "
                f"(they select the per-schema context)")
    return CoPhyAdvisor(schema, **_wire(
        options, shared_optimizer, shared_inum, adopt_shared_inum=True,
        shared_candidate_generator=shared_candidate_generator))


@register_advisor("ilp")
def _build_ilp(schema: Schema, options: Mapping[str, Any], *,
               shared_optimizer: WhatIfOptimizer | None = None,
               shared_inum: InumCache | None = None,
               shared_candidate_generator: CandidateGenerator | None = None
               ) -> Advisor:
    return IlpAdvisor(schema, **_wire(
        options, shared_optimizer, shared_inum, adopt_shared_inum=True,
        shared_candidate_generator=shared_candidate_generator))


@register_advisor("scaleout")
def _build_scaleout(schema: Schema, options: Mapping[str, Any], *,
                    shared_optimizer: WhatIfOptimizer | None = None,
                    shared_inum: InumCache | None = None,
                    shared_candidate_generator: CandidateGenerator | None = None
                    ) -> Advisor:
    return ScaleOutAdvisor(schema, **_wire(
        options, shared_optimizer, shared_inum, adopt_shared_inum=True,
        shared_candidate_generator=shared_candidate_generator))


# The black-box baselines keep their own candidate generators (their CGen
# options differ from CoPhy's), so they take no shared one.
@register_advisor("dta", aliases=("tool-b",))
def _build_dta(schema: Schema, options: Mapping[str, Any], *,
               shared_optimizer: WhatIfOptimizer | None = None,
               shared_inum: InumCache | None = None) -> Advisor:
    options = dict(options)
    adopt = bool(options.pop("use_shared_inum", False))
    return DtaAdvisor(schema, **_wire(options, shared_optimizer,
                                      shared_inum, adopt_shared_inum=adopt))


@register_advisor("relaxation", aliases=("tool-a",))
def _build_relaxation(schema: Schema, options: Mapping[str, Any], *,
                      shared_optimizer: WhatIfOptimizer | None = None,
                      shared_inum: InumCache | None = None) -> Advisor:
    options = dict(options)
    adopt = bool(options.pop("use_shared_inum", False))
    return RelaxationAdvisor(schema, **_wire(options, shared_optimizer,
                                             shared_inum,
                                             adopt_shared_inum=adopt))
