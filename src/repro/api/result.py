"""The uniform result side of the unified tuning API.

Every advisor's outcome is normalised into one :class:`TuningResult`: the
chosen :class:`Configuration`, per-statement costs, solver diagnostics
(bound gap, node counts, optimizer/template-build calls, stage timings) and
a machine-readable ``provenance`` of the resolved pipeline.  The payload is
JSON round-trippable (:meth:`TuningResult.to_json` /
:meth:`TuningResult.from_json`) so results can be shipped over a wire,
archived next to benchmark reports, and diffed across sessions; and
:meth:`TuningResult.fingerprint` hashes the payload with every wall-clock
field stripped, giving a determinism check that is stable across machines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.advisors.base import Recommendation
from repro.api._codec import (
    BOOL, FLOAT, INT, NUMBER, OBJECT, STR, Field, Record, decode, encode, many,
    mapping)
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.lp.solution import GapTracePoint

__all__ = ["RESULT_PAYLOAD_VERSION", "StatementCost", "TuningDiagnostics",
           "TuningResult"]

#: Version of the serialized ``TuningResult`` payload.  Bump on incompatible
#: payload changes; ``from_payload`` rejects versions it does not understand.
RESULT_PAYLOAD_VERSION = 1

#: Payload keys holding wall-clock measurements; stripped by the fingerprint.
_TIMING_KEYS = frozenset({
    "timings", "elapsed_seconds", "solve_seconds", "total_seconds", "seconds"})

#: Keys that vary with machine-local fault/retry luck but never with the
#: recommendation itself; stripped by the fingerprint alongside the timings.
#: ``degraded`` is deliberately NOT here: a degraded result is semantically
#: different from a complete one and must not fingerprint-match it.
#: ``trace`` is: span trees are pure timing observation, so a result must
#: fingerprint identically with tracing on or off.  ``profile`` likewise:
#: sampled hotspot tables are observation, never recommendation.
_VOLATILE_KEYS = frozenset({"retries", "faults_survived", "trace", "profile"})


_INDEX = Record(
    "index", Index,
    Field("table", STR),
    Field("key_columns", many(STR)),
    Field("include_columns", many(STR), required=False),
    Field("clustered", BOOL, required=False),
    Field("name", STR, required=False))


@dataclass(frozen=True)
class StatementCost:
    """One statement's cost under the chosen configuration.

    ``cost`` is the full unweighted INUM statement cost (maintenance terms
    included for updates); the weighted contribution to the workload
    objective is ``weight * cost``.
    """

    statement: str
    weight: float
    cost: float


@dataclass
class TuningDiagnostics:
    """Solver and pipeline diagnostics, uniform across advisors.

    Fields an advisor cannot provide are zero/empty (e.g. greedy advisors
    have no bound gap and no node counts).
    """

    gap: float = 0.0
    whatif_calls: int = 0
    candidate_count: int = 0
    nodes_explored: int = 0
    iterations: int = 0
    #: Advisor-reported per-stage seconds plus the facade's own stages
    #: (``facade.prepare`` / ``facade.evaluate`` / ``facade.total``).
    timings: dict[str, float] = field(default_factory=dict)
    gap_trace: tuple[GapTracePoint, ...] = ()
    #: True when an anytime deadline interrupted the solve; the result is
    #: still feasible and ``gap`` bounds its distance from the optimum.
    timed_out: bool = False
    #: Which anytime tier produced the answer (``"exact"`` when no budget).
    solve_tier: str = "exact"
    #: True when faults cost part of the pipeline (e.g. a shard lost after
    #: retry exhaustion) and the result covers only the surviving work.
    degraded: bool = False
    #: Retries taken by the reliability layer (timing-like jitter: excluded
    #: from fingerprints, as is ``faults_survived``).
    retries: int = 0
    #: Failures absorbed — retried or degraded around — instead of raised.
    faults_survived: int = 0

    def to_payload(self) -> dict[str, Any]:
        return encode(_DIAGNOSTICS, self)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TuningDiagnostics":
        return decode(_DIAGNOSTICS, payload)


_DIAGNOSTICS = Record(
    "diagnostics", TuningDiagnostics,
    Field("gap", FLOAT, required=False),
    Field("whatif_calls", INT, required=False),
    Field("candidate_count", INT, required=False),
    Field("nodes_explored", INT, required=False),
    Field("iterations", INT, required=False),
    Field("timings", mapping(NUMBER, "timing"), required=False),
    Field("gap_trace", many(Record(
        "gap trace point", GapTracePoint,
        Field("elapsed_seconds", NUMBER),
        Field("incumbent_objective", NUMBER),
        Field("best_bound", NUMBER),
        Field("gap", NUMBER),
        Field("nodes_explored", INT))), required=False),
    Field("timed_out", BOOL, required=False),
    Field("solve_tier", STR, required=False),
    Field("degraded", BOOL, required=False),
    Field("retries", INT, required=False),
    Field("faults_survived", INT, required=False))

_STATEMENT_COST = Record(
    "statement cost", StatementCost,
    Field("statement", STR), Field("weight", NUMBER), Field("cost", NUMBER))


@dataclass
class TuningResult:
    """What one ``Tuner.tune(request)`` call returns, for every advisor."""

    configuration: Configuration
    advisor_name: str
    objective_estimate: float
    statement_costs: tuple[StatementCost, ...]
    diagnostics: TuningDiagnostics
    provenance: dict[str, Any]
    #: Advisor-specific live extras (Pareto points, the BIP, solve reports…).
    #: Programmatic-access only and not serialized — except ``"trace"`` (the
    #: exported span tree) and ``"profile"`` (the sampled hotspot table),
    #: which ride the payload so remote callers see the server-side view;
    #: everything else is empty after ``from_json``.  ``extras["bip"]`` is
    #: the schema context's BIP for this workload and candidate set: later
    #: requests of the same context may solve on it, so it is read-only.
    extras: dict[str, Any] = field(default_factory=dict, repr=False)

    # ---------------------------------------------------------------- accessors
    @property
    def index_count(self) -> int:
        return len(self.configuration)

    @property
    def total_seconds(self) -> float:
        timings = self.diagnostics.timings
        return timings.get("facade.total", timings.get("total", 0.0))

    def statement_cost(self, statement_name: str) -> float:
        for entry in self.statement_costs:
            if entry.statement == statement_name:
                return entry.cost
        raise KeyError(f"No per-statement cost recorded for {statement_name!r}")

    def summary(self) -> dict[str, Any]:
        """Flat summary row (mirrors ``Recommendation.summary``)."""
        return {
            "advisor": self.advisor_name,
            "indexes": self.index_count,
            "candidates": self.diagnostics.candidate_count,
            "whatif_calls": self.diagnostics.whatif_calls,
            "objective": self.objective_estimate,
            "gap": self.diagnostics.gap,
            "total_seconds": round(self.total_seconds, 4),
        }

    # ------------------------------------------------------------ construction
    @classmethod
    def from_recommendation(cls, recommendation: Recommendation,
                            provenance: Mapping[str, Any],
                            statement_costs: Sequence[StatementCost] = (),
                            ) -> "TuningResult":
        """Normalise a legacy :class:`Recommendation` into a result.

        Node/iteration counts are lifted from the solve report when the
        advisor recorded one in its extras.  The facade adds its own stage
        timings, and ``extras["trace"]`` / ``extras["profile"]``, once the
        request's root span has closed.
        """
        nodes = iterations = 0
        report = recommendation.extras.get("solve_report")
        solution = getattr(report, "solution", None)
        if solution is not None:
            nodes = int(getattr(solution, "nodes_explored", 0))
            iterations = int(getattr(solution, "iterations", 0))
        diagnostics = TuningDiagnostics(
            gap=recommendation.gap,
            whatif_calls=recommendation.whatif_calls,
            candidate_count=recommendation.candidate_count,
            nodes_explored=nodes,
            iterations=iterations,
            timings=dict(recommendation.timings),
            gap_trace=recommendation.gap_trace,
            timed_out=recommendation.timed_out,
            solve_tier=recommendation.solve_tier,
            degraded=recommendation.degraded,
            retries=recommendation.retries,
            faults_survived=recommendation.faults_survived,
        )
        return cls(
            configuration=recommendation.configuration,
            advisor_name=recommendation.advisor_name,
            objective_estimate=recommendation.objective_estimate,
            statement_costs=tuple(statement_costs),
            diagnostics=diagnostics,
            provenance=dict(provenance),
            extras=dict(recommendation.extras),
        )

    # ------------------------------------------------------------ serialization
    def to_payload(self) -> dict[str, Any]:
        """The JSON-representable payload (everything except live extras)."""
        payload = encode(_RESULT, self)
        payload.update((key, self.extras[key]) for key in _OBSERVATION_EXTRAS
                       if self.extras.get(key) is not None)
        return payload

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the payload (Python's JSON ``NaN``/``Infinity`` allowed)."""
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TuningResult":
        """The result ``payload`` describes; an unknown version, a missing or
        unknown field and a wrong-typed value raise ``WireFormatError`` (a
        ``ValueError``), so a truncated response never loads partially."""
        observations = {}
        if isinstance(payload, Mapping):
            observations = {key: dict(payload[key])
                            for key in _OBSERVATION_EXTRAS
                            if payload.get(key) is not None}
            payload = {key: value for key, value in payload.items()
                       if key not in _OBSERVATION_EXTRAS}
        result = decode(_RESULT, payload)
        result.extras.update(observations)
        return result

    @classmethod
    def from_json(cls, text: str) -> "TuningResult":
        return cls.from_payload(json.loads(text))

    def fingerprint(self) -> str:
        """SHA-256 of the payload with every wall-clock field stripped.

        Two runs of the same seeded request must produce equal fingerprints
        regardless of machine speed; anything that breaks this is a
        determinism bug, not jitter.
        """
        canonical = json.dumps(_strip_timings(self.to_payload()),
                               sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: The extras that ride the payload, as top-level keys present only when set.
_OBSERVATION_EXTRAS = ("trace", "profile")

#: A payload without ``version`` is a pre-PR 5 (structurally version 1) one;
#: any other value is one this build cannot promise to load faithfully.
_RESULT = Record(
    "TuningResult", TuningResult,
    Field("advisor", STR, attr="advisor_name"),
    Field("objective_estimate", FLOAT),
    Field("configuration", Record(
        "configuration", Configuration,
        Field("name", STR, required=False),
        Field("indexes", many(_INDEX)))),
    Field("statement_costs", many(_STATEMENT_COST)),
    Field("diagnostics", _DIAGNOSTICS),
    Field("provenance", OBJECT),
    tag=("version", RESULT_PAYLOAD_VERSION))


def _strip_timings(value: Any) -> Any:
    """Recursively drop wall-clock and fault-jitter keys from a payload.

    A recovered run (worker crashed, shard retried) must fingerprint
    identically to a clean one — retry counters are timing-like jitter.
    ``degraded`` stays in: losing a shard changes the recommendation's
    meaning, so degraded results never alias complete ones.
    """
    if isinstance(value, dict):
        return {key: _strip_timings(item) for key, item in value.items()
                if key not in _TIMING_KEYS and key not in _VOLATILE_KEYS}
    if isinstance(value, list):
        return [_strip_timings(item) for item in value]
    return value
