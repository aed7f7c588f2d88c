"""Versioned JSON wire formats for the network tuning server.

``TuningResult`` has serialized since PR 4 (:meth:`TuningResult.to_json`);
this module states the *request* side once, as a table: one
:class:`~repro.api._codec.Record` of ``Field`` rows per payload type (schema
… statistics, workload … predicate, the constraint kinds, the specs, the
request, the ``tune_batch`` envelope, the session steps), walked by the
single encoder and decoder of
:mod:`repro.api._codec`.  The ``encode_*`` / ``decode_*`` functions are its
entry points; what a row cannot say is a hook on one field (``query_cost``
resolving its statement by name, candidates becoming a ``CandidateSet``).

The contract is **bit-identical round-tripping**: for any encodable request,
tuning ``decode_request(encode_request(request))`` produces a result whose
``fingerprint()`` equals the in-process result for ``request`` (pinned in
``tests/test_wire.py`` and ``tests/test_server.py``).  Three properties make
that hold:

* numbers survive exactly — Python's ``json`` emits shortest-repr floats,
  and a number the object model does not itself hold as a ``float`` is
  decoded as it arrived (an ``int`` stays an ``int``);
* tuple-valued predicate operands (``BETWEEN`` / ``IN``) are restored to
  tuples on decode, so statement digests (which ``repr`` the operands) match;
* statement and workload *names* are part of the payload — the canonical
  workload LRU and the shared INUM cache key on them.

Every request carries ``wire_version``; an unknown version, an unknown or
missing field and a value of the wrong JSON type are all
:class:`WireFormatError` — never a silent partial load.  Constraints carrying
live callables (selectors, filters) are rejected at *encode* time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Iterable, Mapping

from repro.api._codec import (
    BOOL, FLOAT, INT, NUMBER, OBJECT, STR, Codec, Field, Record,
    WireFormatError, decode, encode, enum, flat, many, mapping, union)
from repro.api.result import _INDEX
from repro.obs.metrics import active_registry
from repro.api.specs import AdvisorSpec, CostingSpec, ScaleSpec, TuningRequest
from repro.catalog.column import Column, ColumnType
from repro.catalog.schema import Schema
from repro.catalog.statistics import (
    ColumnStatistics,
    Histogram,
    HistogramBucket,
)
from repro.catalog.table import Table
from repro.core.constraints import (
    ClusteredIndexConstraint,
    ComparisonSense,
    IndexCountConstraint,
    IndexWidthConstraint,
    QueryCostConstraint,
    QuerySpeedupGenerator,
    SoftConstraint,
    StorageBudgetConstraint,
    TuningConstraint,
    UpdateCostConstraint,
)
from repro.indexes.candidate_generation import CandidateSet
from repro.workload.predicates import (
    ColumnRef,
    ComparisonOperator,
    JoinPredicate,
    SimplePredicate,
)
from repro.workload.query import (
    Aggregate,
    AggregateFunction,
    Query,
    SelectQuery,
    UpdateQuery,
)
from repro.workload.workload import Workload, WorkloadStatement

__all__ = [
    "WIRE_VERSION",
    "WireFormatError",
    "SchemaCache",
    "encode_schema",
    "decode_schema",
    "encode_workload",
    "decode_workload",
    "encode_query",
    "decode_query",
    "encode_constraint",
    "decode_constraint",
    "encode_request",
    "decode_request",
    "encode_batch",
    "decode_batch",
    "encode_session_step",
    "decode_session_step",
]

#: Newest version of the request wire format.  Bump on any incompatible
#: change; the decoder rejects versions it does not understand.  History (a
#: row's ``since`` is the version that introduced it): 1 — PR 5 baseline;
#: 2 — anytime tuning: the advisor spec may carry ``time_budget_ms`` /
#: ``solve_tier``.  Neither set, the encoder still emits version 1, so
#: budget-less clients keep interoperating with version-1 servers; the
#: decoder rejects budget fields arriving under version 1.
WIRE_VERSION = 2


# ---------------------------------------------------------------------- schema
#: Bucket frequencies are already normalised, so a decode re-runs
#: ``Histogram``'s normalisation as a no-op and the round trip is exact.
_HISTOGRAM = Record("histogram", Histogram,
                    Field("buckets", many(flat(HistogramBucket, NUMBER))))

_STATISTICS = Record(
    "statistics", ColumnStatistics,
    Field("distinct_values", FLOAT),
    Field("null_fraction", FLOAT, required=False),
    Field("correlation", FLOAT, required=False),
    Field("average_width", FLOAT, required=False),
    Field("histogram", _HISTOGRAM, required=False))

_COLUMN = Record(
    "column", Column,
    Field("name", STR),
    Field("type", enum(ColumnType, "column type"), attr="column_type"),
    Field("width", INT, required=False),
    Field("nullable", BOOL, required=False))

_TABLE = Record(
    "table", Table,
    Field("name", STR),
    Field("row_count", FLOAT),
    Field("page_size", INT, required=False),
    Field("primary_key", many(STR), required=False),
    Field("columns", many(_COLUMN)),
    Field("statistics", mapping(_STATISTICS, "statistics for column"),
          required=False))

_SCHEMA = Record("schema", Schema,
                 Field("name", STR), Field("tables", many(_TABLE)))


def encode_schema(schema: Schema) -> dict[str, Any]:
    """A :class:`Schema` (tables, columns, statistics) as a JSON payload."""
    return encode(_SCHEMA, schema)


def decode_schema(payload: Mapping[str, Any]) -> Schema:
    return decode(_SCHEMA, payload)


def _schema_cache_event(event: str) -> None:
    active_registry().counter(
        "repro_cache_events_total",
        "Hits and misses of the tuning-stack caches",
        ("cache", "event")).inc(cache="schema_payload", event=event)


class SchemaCache:
    """Canonicalizes equal schema payloads onto one decoded :class:`Schema`.

    The Tuner keys its per-schema contexts by *object identity*, so a server
    decoding every request's schema afresh would never share an optimizer, a
    template or a tensor between requests.  This cache maps the canonical
    JSON digest of a schema payload to the first decoded object, so equal
    client schemas resolve to one :class:`Schema` — and therefore one
    :class:`~repro.api.tuner.SchemaContext` — for as long as the entry lives.

    Entries are LRU-bounded by ``max_schemas``; evicting one only means the
    next equal payload decodes a fresh object (and gets a fresh context — the
    Tuner's own ``max_contexts`` / ``context_ttl_s`` reap the orphan).
    """

    def __init__(self, max_schemas: int | None = 32):
        if max_schemas is not None and max_schemas < 1:
            raise ValueError("max_schemas must be positive (or None)")
        self._max_schemas = max_schemas
        self._schemas: OrderedDict[str, Schema] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._schemas)

    def resolve(self, payload: Mapping[str, Any]) -> Schema:
        """Decode ``payload`` once per distinct schema, LRU-cached by digest."""
        key = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
        with self._lock:
            schema = self._schemas.get(key)
            if schema is not None:
                self._schemas.move_to_end(key)
                _schema_cache_event("hit")
                return schema
        _schema_cache_event("miss")
        schema = decode_schema(payload)
        with self._lock:
            known = self._schemas.get(key)
            if known is not None:
                return known
            self._schemas[key] = schema
            if self._max_schemas is not None:
                while len(self._schemas) > self._max_schemas:
                    self._schemas.popitem(last=False)
        return schema


# -------------------------------------------------------------------- workload
_COLUMN_REF = flat(ColumnRef, STR)


def _scalar(value: Any, _walk: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise WireFormatError(
        f"value {value!r} of type {type(value).__name__} has no JSON wire "
        f"representation")


_SCALAR = Codec(_scalar, _scalar)
_SCALARS = many(_SCALAR)
#: A scalar, or the array of a BETWEEN pair / IN list — which comes back as a
#: tuple, so statement digests (they ``repr`` the operand) match.
_OPERAND = Codec(
    lambda value, walk: (_SCALARS if isinstance(value, (tuple, list))
                         else _SCALAR).enc(value, walk),
    lambda value, walk: (_SCALARS if isinstance(value, list)
                         else _SCALAR).dec(value, walk))


def _encode_options(options: Any, walk: Any) -> Any:
    """Strictly-JSON projection of spec options (live objects are rejected)."""
    if isinstance(options, dict):
        return {key: _encode_options(value, walk)
                for key, value in options.items()}
    return _OPERAND.enc(options, walk)


_PREDICATE = Record(
    "predicate", SimplePredicate,
    Field("column", _COLUMN_REF),
    Field("operator", enum(ComparisonOperator, "comparison operator")),
    Field("value", _OPERAND, required=False),
    Field("selectivity_hint", NUMBER, required=False))

_JOIN = Record("join", JoinPredicate,
               Field("left", _COLUMN_REF), Field("right", _COLUMN_REF))

_AGGREGATE = Record(
    "aggregate", Aggregate,
    Field("function", enum(AggregateFunction, "aggregate function")),
    Field("column", _COLUMN_REF, required=False))

_SELECT = Record(
    "select query", SelectQuery,
    Field("name", STR),
    Field("tables", many(STR)),
    Field("projections", many(_COLUMN_REF), required=False),
    Field("predicates", many(_PREDICATE), required=False),
    Field("joins", many(_JOIN), required=False),
    Field("group_by", many(_COLUMN_REF), required=False),
    Field("order_by", many(_COLUMN_REF), required=False),
    Field("aggregates", many(_AGGREGATE), required=False),
    tag=("kind", "select"))

_UPDATE = Record(
    "update query", UpdateQuery,
    Field("name", STR),
    Field("table", STR),
    Field("set_columns", many(_COLUMN_REF)),
    Field("predicates", many(_PREDICATE), required=False),
    Field("update_fraction", NUMBER, required=False),
    tag=("kind", "update"))

_QUERY = union("statement", _SELECT, _UPDATE)

_STATEMENT = Record("statement", WorkloadStatement,
                    Field("weight", FLOAT, required=False),
                    Field("query", _QUERY))

_WORKLOAD = Record("workload", Workload,
                   Field("name", STR), Field("statements", many(_STATEMENT)))


def encode_workload(workload: Workload) -> dict[str, Any]:
    """A :class:`Workload` (statements, weights) as a JSON payload."""
    return encode(_WORKLOAD, workload)


def decode_workload(payload: Mapping[str, Any]) -> Workload:
    return decode(_WORKLOAD, payload)


def encode_query(query: Query) -> dict[str, Any]:
    """A statement (SELECT or UPDATE) as a JSON payload."""
    return encode(_QUERY, query)


def decode_query(payload: Mapping[str, Any]) -> Query:
    return decode(_QUERY, payload)


# ----------------------------------------------------------------- constraints
def _statement_named(name: Any, walk: Any) -> Query:
    """``query_cost`` names its statement; the BIP keys cost expressions by
    statement name, so the workload's statement of that name is the one."""
    for statement in walk.workload:
        if statement.query.name == name:
            return statement.query
    raise WireFormatError(
        f"query_cost constraint references unknown statement {name!r} (not "
        f"in workload {walk.workload.name!r})")


def _hard(kind: str, cls: type, *fields: Field, **options: Any) -> Record:
    """A hard constraint kind: tagged by ``type``, optionally named."""
    return Record(f"{kind} constraint", cls, *fields,
                  Field("name", STR, required=False), tag=("type", kind),
                  **options)


_HARD_CONSTRAINTS = (
    _hard("storage_budget", StorageBudgetConstraint,
          Field("budget_bytes", FLOAT)),
    _hard("index_count", IndexCountConstraint,
          Field("limit", FLOAT),
          Field("sense", enum(ComparisonSense, "comparison sense"),
                required=False),
          callables=("selector", "weight")),
    _hard("index_width", IndexWidthConstraint, Field("max_columns", INT)),
    _hard("clustered_index", ClusteredIndexConstraint),
    _hard("query_cost", QueryCostConstraint,
          Field("query", Codec(lambda query, _walk: query.name,
                               _statement_named)),
          Field("reference_cost", FLOAT),
          Field("factor", FLOAT, required=False)),
    _hard("speedup_generator", QuerySpeedupGenerator,
          Field("reference_costs",
                mapping(FLOAT, "reference cost of statement")),
          Field("factor", FLOAT, required=False),
          callables=("statement_filter",)),
    _hard("update_cost", UpdateCostConstraint, Field("limit", FLOAT)))

#: A soft constraint wraps a hard one — its ``inner`` row knows no ``soft``
#: tag, so soft constraints cannot nest.
_CONSTRAINT = union(
    "constraint",
    Record("soft constraint", SoftConstraint,
           Field("target", NUMBER, required=False),
           Field("inner", union("constraint", *_HARD_CONSTRAINTS)),
           tag=("type", "soft")),
    *_HARD_CONSTRAINTS)


def encode_constraint(constraint: TuningConstraint | SoftConstraint
                      ) -> dict[str, Any]:
    """A DBA constraint as a JSON payload (live callables are rejected)."""
    return encode(_CONSTRAINT, constraint)


def decode_constraint(payload: Mapping[str, Any], workload: Workload
                      ) -> TuningConstraint | SoftConstraint:
    """One constraint; statement names resolve against ``workload``."""
    return decode(_CONSTRAINT, payload, workload=workload)


# --------------------------------------------------------------------- request
def _decode_request_schema(payload: Any, walk: Any) -> Schema:
    cache = walk.schema_cache
    walk.schema = (decode_schema if cache is None else cache.resolve)(payload)
    return walk.schema


def _decode_request_workload(payload: Any, walk: Any) -> Workload:
    walk.workload = _WORKLOAD.dec(payload, walk)
    walk.workload.validate_against(walk.schema)
    return walk.workload


_INDEXES = many(_INDEX)

_ADVISOR = Record(
    "advisor", AdvisorSpec,
    Field("name", STR),
    Field("options", Codec(_encode_options, OBJECT.dec), required=False),
    Field("time_budget_ms", FLOAT, required=False, since=2),
    Field("solve_tier", STR, required=False, since=2))

_COSTING = Record(
    "costing spec", CostingSpec,
    Field("max_orders_per_table", INT, required=False),
    Field("max_templates_per_query", INT, required=False),
    Field("build_processes", INT, required=False))

_SCALE = Record(
    "scale spec", ScaleSpec,
    Field("signature", STR, required=False),
    Field("max_cost_error", NUMBER, required=False),
    Field("compress", BOOL, required=False),
    Field("shard_count", INT, required=False),
    Field("shard_workers", INT, required=False),
    Field("budget_oversubscription", NUMBER, required=False))

#: Decoded in row order: the hooks of later rows read ``walk.schema`` and
#: ``walk.workload``, which the ``schema`` and ``workload`` rows bind.
_REQUEST = Record(
    "request", TuningRequest,
    Field("request_id", STR, required=False),
    Field("schema", Codec(_SCHEMA.enc, _decode_request_schema)),
    Field("workload", Codec(_WORKLOAD.enc, _decode_request_workload)),
    Field("constraints", many(_CONSTRAINT), required=False),
    Field("candidates", Codec(
        _INDEXES.enc, lambda entries, walk: CandidateSet(
            walk.schema, _INDEXES.dec(entries, walk))), required=False),
    Field("dba_indexes", _INDEXES, required=False),
    Field("advisor", _ADVISOR, required=False),
    Field("costing", _COSTING, required=False),
    Field("scale", _SCALE, required=False),
    Field("per_statement_costs", BOOL, required=False),
    tag=("kind", "tuning_request"), version=("wire_version", WIRE_VERSION))


def encode_request(request: TuningRequest) -> dict[str, Any]:
    """One :class:`TuningRequest` as a self-contained, versioned payload."""
    return encode(_REQUEST, request)


def decode_request(payload: Mapping[str, Any],
                   schema_cache: SchemaCache | None = None) -> TuningRequest:
    """Decode a request payload back into a :class:`TuningRequest`; an unknown
    wire version, an unknown or missing field and a wrong-typed value raise
    :class:`WireFormatError` — never a silent partial load.

    With a ``schema_cache``, equal schema payloads resolve to one shared
    :class:`Schema` object, so the serving Tuner can share one context
    (optimizer, INUM cache, tensors) across requests.
    """
    return decode(_REQUEST, payload, schema_cache=schema_cache)


# ----------------------------------------------------------- batches, sessions
def _body(name: str, *fields: Field, **namespace: Any) -> type:
    """The frozen dataclass a body record builds: one field per row."""
    return dataclasses.make_dataclass(name, [(f.key, Any) for f in fields],
                                      namespace=namespace, frozen=True)


_BATCH_ROWS = (Field("requests", many(_REQUEST)),)
_BATCH = Record("tune_batch", _body("tune_batch", *_BATCH_ROWS), *_BATCH_ROWS)


def encode_batch(requests: Iterable[TuningRequest]) -> dict[str, Any]:
    """The ``/v1/tune_batch`` body: ``{"requests": [<request>, ...]}``."""
    return encode(_BATCH, _BATCH.build(list(requests)))


def decode_batch(payload: Any, schema_cache: SchemaCache | None = None
                 ) -> tuple[TuningRequest, ...]:
    """The requests of a ``/v1/tune_batch`` body, each decoded as
    :func:`decode_request` decodes one."""
    return decode(_BATCH, payload, schema_cache=schema_cache).requests


def _step(operation: str, *fields: Field) -> Record:
    """One session operation, tagged by the name of the
    :class:`~repro.api.service.TuningSession` method it calls."""
    return Record(f"{operation} step",
                  _body(f"{operation}_step", *fields, operation=operation),
                  *fields, tag=("operation", operation))


_STEPS = {record.tag[1]: record for record in (
    _step("recommend"),
    _step("add_candidates", Field("indexes", _INDEXES)),
    _step("remove_candidates", Field("indexes", _INDEXES)),
    _step("update_constraints", Field("constraints", many(_CONSTRAINT))))}
_SESSION_STEP = union("session operation", *_STEPS.values())


def encode_session_step(operation: str, *arguments: Any) -> dict[str, Any]:
    """A session step's body: ``operation`` and its argument, if it has one."""
    record = _STEPS[operation]
    return encode(record, record.build(*arguments))


def decode_session_step(payload: Any, workload: Workload
                        ) -> tuple[str, tuple]:
    """The ``(operation, arguments)`` a session step's body asks for;
    constraints name their statements in the session's ``workload``."""
    step = decode(_SESSION_STEP, payload, workload=workload)
    return step.operation, tuple(vars(step).values())
