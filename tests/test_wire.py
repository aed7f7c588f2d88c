"""Tests for the request wire formats: exact round trips, versioning, errors.

The load-bearing guarantee is fingerprint-pinned round-tripping: tuning
``decode_request(encode_request(request))`` must be indistinguishable from
tuning ``request`` — same statement digests, same canonical-workload
fingerprints, same result fingerprints.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AdvisorSpec, CostingSpec, ScaleSpec, Tuner, TuningRequest
from repro.api import result
from repro.api.result import StatementCost, TuningDiagnostics
from repro.api.tuner import statement_digest, workload_fingerprint
from repro.catalog import tpch_schema
from repro.catalog.column import Column, ColumnType
from repro.catalog.schema import Schema
from repro.catalog.statistics import ColumnStatistics, Histogram
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
    UpdateCostConstraint,
)
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.index import Index
from repro.server import wire
from repro.server.protocol import envelope_for_exception
from repro.server.wire import (
    WIRE_VERSION,
    SchemaCache,
    WireFormatError,
    decode_batch,
    decode_constraint,
    decode_request,
    decode_schema,
    decode_session_step,
    decode_workload,
    encode_batch,
    encode_constraint,
    encode_request,
    encode_schema,
    encode_session_step,
    encode_workload,
)
from repro.workload import (
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
)
from repro.workload.predicates import (
    ColumnRef,
    ComparisonOperator,
    JoinPredicate,
    SimplePredicate,
)
from repro.workload.query import (
    Aggregate,
    AggregateFunction,
    SelectQuery,
    UpdateQuery,
)
from repro.workload.workload import Workload, WorkloadStatement
from tests.conftest import build_simple_schema, build_simple_workload


def _json_round_trip(payload):
    """Force the payload through real JSON text, like the HTTP layer does."""
    return json.loads(json.dumps(payload))


class TestSchemaCodec:
    @pytest.mark.parametrize("skew", [0.0, 1.0, 2.0])
    def test_tpch_schema_round_trips_exactly(self, skew):
        schema = tpch_schema(scale_factor=0.005, skew=skew)
        payload = _json_round_trip(encode_schema(schema))
        decoded = decode_schema(payload)
        assert decoded.name == schema.name
        assert decoded.table_names == schema.table_names
        # Exactness to the bit: re-encoding the decoded schema must produce
        # the identical payload (floats round-trip via shortest repr).
        assert encode_schema(decoded) == payload
        assert decoded.total_size_bytes == schema.total_size_bytes

    def test_simple_schema_statistics_round_trip(self, simple_schema):
        payload = _json_round_trip(encode_schema(simple_schema))
        decoded = decode_schema(payload)
        assert encode_schema(decoded) == payload
        table = decoded.table("orders")
        original = simple_schema.table("orders")
        assert table.row_count == original.row_count
        assert table.primary_key == original.primary_key
        stats = table.column_statistics("o_date")
        assert stats.equality_selectivity(100.0) == \
            original.column_statistics("o_date").equality_selectivity(100.0)

    def test_missing_field_is_loud(self):
        with pytest.raises(WireFormatError, match="tables"):
            decode_schema({"name": "broken"})

    def test_unknown_column_type_is_loud(self, simple_schema):
        payload = encode_schema(simple_schema)
        payload["tables"][0]["columns"][0]["type"] = "geometry"
        with pytest.raises(WireFormatError, match="column type"):
            decode_schema(payload)

    def test_unknown_histogram_fields_are_loud(self, simple_schema):
        payload = _json_round_trip(encode_schema(simple_schema))
        table = payload["tables"][0]
        stats = next(entry for entry in table["statistics"].values()
                     if entry["histogram"] is not None)
        stats["histogram"]["bucket_width"] = 5
        with pytest.raises(WireFormatError, match="bucket_width"):
            decode_schema(payload)

    def test_schema_cache_canonicalizes_equal_payloads(self, simple_schema):
        cache = SchemaCache(max_schemas=2)
        payload = _json_round_trip(encode_schema(simple_schema))
        first = cache.resolve(payload)
        second = cache.resolve(_json_round_trip(encode_schema(simple_schema)))
        assert first is second
        assert len(cache) == 1
        # LRU bound: two more distinct schemas evict the oldest entry.
        cache.resolve(encode_schema(tpch_schema(scale_factor=0.005)))
        cache.resolve(encode_schema(tpch_schema(scale_factor=0.004)))
        assert len(cache) == 2
        assert cache.resolve(payload) is not first


class TestWorkloadCodec:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_homogeneous_workloads_round_trip_fingerprint_exact(self, seed):
        workload = generate_homogeneous_workload(25, seed=seed)
        payload = _json_round_trip(encode_workload(workload))
        decoded = decode_workload(payload)
        assert workload_fingerprint(decoded) == workload_fingerprint(workload)
        assert encode_workload(decoded) == payload

    @pytest.mark.parametrize("seed,update_fraction",
                             [(1, 0.1), (11, 0.0), (42, 1.0)])
    def test_heterogeneous_workloads_round_trip_fingerprint_exact(
            self, seed, update_fraction):
        workload = generate_heterogeneous_workload(
            20, seed=seed, update_fraction=update_fraction)
        payload = _json_round_trip(encode_workload(workload))
        decoded = decode_workload(payload)
        assert workload_fingerprint(decoded) == workload_fingerprint(workload)
        assert encode_workload(decoded) == payload

    def test_statement_digests_survive_tuple_operands(self, simple_workload):
        """BETWEEN/IN operands arrive as JSON arrays; the decoder must restore
        tuples or the repr-based statement digests drift."""
        payload = _json_round_trip(encode_workload(simple_workload))
        decoded = decode_workload(payload)
        for original, restored in zip(simple_workload, decoded):
            assert statement_digest(restored.query) == \
                statement_digest(original.query)
            assert restored.weight == original.weight

    def test_unserializable_operand_is_rejected_at_encode_time(self):
        from repro.server.wire import encode_query
        from repro.workload.predicates import (ColumnRef, ComparisonOperator,
                                               SimplePredicate)
        from repro.workload.query import SelectQuery

        query = SelectQuery(
            tables=("orders",),
            predicates=(SimplePredicate(ColumnRef("orders", "o_orderdate"),
                                        ComparisonOperator.EQ, object()),),
            name="bad")
        with pytest.raises(WireFormatError, match="wire representation"):
            encode_query(query)


class TestConstraintCodec:
    def test_all_declarative_constraints_round_trip(self, simple_schema,
                                                    simple_workload):
        constraints = [
            StorageBudgetConstraint.from_fraction_of_data(simple_schema, 0.5),
            IndexCountConstraint(limit=3),
            IndexWidthConstraint(max_columns=2),
            ClusteredIndexConstraint(),
            QueryCostConstraint(simple_workload.statements[0].query,
                                reference_cost=123.5, factor=0.75),
            QuerySpeedupGenerator(reference_costs={"point#1": 10.0}),
            UpdateCostConstraint(limit=40.0),
            SoftConstraint(StorageBudgetConstraint(1000.0), target=900.0),
        ]
        for constraint in constraints:
            payload = _json_round_trip(encode_constraint(constraint))
            decoded = decode_constraint(payload, simple_workload)
            assert encode_constraint(decoded) == payload, constraint

    def test_callable_constraints_are_rejected(self, simple_workload):
        with pytest.raises(WireFormatError, match="selector"):
            encode_constraint(IndexCountConstraint(
                limit=2, selector=lambda index: index.table == "orders"))
        with pytest.raises(WireFormatError, match="statement_filter"):
            encode_constraint(QuerySpeedupGenerator(
                reference_costs={}, statement_filter=lambda q: True))

    def test_query_cost_resolves_by_statement_name(self, simple_workload):
        payload = {"type": "query_cost", "query": "range#1",
                   "reference_cost": 5.0}
        decoded = decode_constraint(payload, simple_workload)
        assert decoded.query is simple_workload.statements[1].query
        with pytest.raises(WireFormatError, match="unknown statement"):
            decode_constraint({**payload, "query": "no-such"},
                              simple_workload)

    def test_unknown_constraint_type_is_loud(self, simple_workload):
        with pytest.raises(WireFormatError, match="Unknown constraint"):
            decode_constraint({"type": "quantum_budget"}, simple_workload)

    def test_misspelled_constraint_field_is_loud(self, simple_workload):
        """A typo'd optional field must not silently fall back to a default
        with the opposite semantics ('sence' -> sense defaults to <=)."""
        with pytest.raises(WireFormatError, match="sence"):
            decode_constraint({"type": "index_count", "limit": 3,
                               "sence": ">="}, simple_workload)


class TestRequestCodec:
    def _request(self, schema, workload, **kwargs):
        kwargs.setdefault("constraints", [
            StorageBudgetConstraint.from_fraction_of_data(schema, 1.0)])
        return TuningRequest(workload=workload, schema=schema, **kwargs)

    def test_full_request_round_trips(self, simple_schema, simple_workload):
        candidates = CandidateSet(simple_schema, [
            Index("orders", ("o_customer",), include_columns=("o_total",)),
            Index("items", ("i_shipdate",)),
        ])
        request = self._request(
            simple_schema, simple_workload,
            candidates=candidates,
            dba_indexes=[Index("orders", ("o_date",))],
            advisor="cophy",
            costing=CostingSpec(max_orders_per_table=2),
            per_statement_costs=True,
            request_id="round-trip")
        payload = _json_round_trip(encode_request(request))
        decoded = decode_request(payload)
        assert decoded.request_id == "round-trip"
        assert decoded.costing == request.costing
        assert decoded.per_statement_costs is True
        assert tuple(decoded.candidates) == tuple(candidates)
        assert decoded.dba_indexes == request.dba_indexes
        assert workload_fingerprint(decoded.workload) == \
            workload_fingerprint(request.workload)
        # Round trip again: encode(decode(x)) == x.
        assert encode_request(decoded) == payload

    def test_scale_spec_round_trips(self, simple_schema, simple_workload):
        request = self._request(simple_schema, simple_workload,
                                scale=ScaleSpec(shard_count=2,
                                                shard_workers=1))
        decoded = decode_request(_json_round_trip(encode_request(request)))
        assert decoded.scale == request.scale
        assert decoded.resolved_advisor().name == "scaleout"

    def test_wrong_wire_version_is_rejected(self, simple_schema,
                                            simple_workload):
        payload = encode_request(self._request(simple_schema,
                                               simple_workload))
        payload["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="wire_version"):
            decode_request(payload)
        del payload["wire_version"]
        with pytest.raises(WireFormatError, match="wire_version"):
            decode_request(payload)

    def test_unknown_spec_fields_are_rejected(self, simple_schema,
                                              simple_workload):
        """Retired costing knobs fail like any other unknown field."""
        base = encode_request(self._request(simple_schema, simple_workload))
        assert set(base["costing"]) == {
            "max_orders_per_table", "max_templates_per_query",
            "build_processes"}
        for key in ("warp_drive", "use_gamma_matrix", "build_workers"):
            payload = json.loads(json.dumps(base))
            payload["costing"][key] = True
            with pytest.raises(WireFormatError, match=key):
                decode_request(payload)

    def test_unknown_fields_are_rejected_at_every_level(self, simple_schema,
                                                        simple_workload):
        base = encode_request(self._request(simple_schema, simple_workload))

        def corrupted(mutate):
            payload = json.loads(json.dumps(base))
            mutate(payload)
            return payload

        mutations = [
            lambda p: p.update(reqest_id="typo"),
            lambda p: p["schema"].update(charset="utf8"),
            lambda p: p["schema"]["tables"][0].update(engine="innodb"),
            lambda p: p["schema"]["tables"][0]["columns"][0].update(pk=True),
            lambda p: p["workload"].update(priority=3),
            lambda p: p["workload"]["statements"][0].update(hint="x"),
            lambda p: p["workload"]["statements"][0]["query"].update(limit=5),
            lambda p: p["workload"]["statements"][0]["query"]["predicates"][0]
                       .update(negated=True),
        ]
        for mutate in mutations:
            with pytest.raises(WireFormatError, match="unknown fields"):
                decode_request(corrupted(mutate))

    def test_workload_must_match_schema(self, simple_schema, tpch):
        workload = generate_homogeneous_workload(4, seed=3)
        payload = encode_request(TuningRequest(workload=workload,
                                               schema=tpch))
        payload["schema"] = encode_schema(simple_schema)
        from repro.exceptions import CatalogError
        with pytest.raises(CatalogError):
            decode_request(payload)

    @pytest.mark.parametrize("advisor", ["cophy", "dta"])
    def test_decoded_request_tunes_to_identical_fingerprint(
            self, advisor, simple_schema, simple_workload):
        """The pinned guarantee: decode(encode(request)) is bit-identical to
        the original, all the way to the tuning result's fingerprint."""
        request = self._request(simple_schema, simple_workload,
                                advisor=advisor, request_id="parity")
        decoded = decode_request(_json_round_trip(encode_request(request)))
        local = Tuner().tune(request)
        remote_shaped = Tuner().tune(decoded)
        assert remote_shaped.fingerprint() == local.fingerprint()


class TestSessionAndBatchBodies:
    """The session step and the ``tune_batch`` envelope are table rows too:
    each round-trips, and each defect the hand decoder let through (it
    answered 200) is a ``WireFormatError``."""

    def _steps(self, workload):
        extra = Index("items", ("i_shipdate",), include_columns=("i_price",))
        return [("recommend",),
                ("add_candidates", [extra]),
                ("remove_candidates", [extra]),
                ("update_constraints",
                 [StorageBudgetConstraint(5e6),
                  QueryCostConstraint(workload.statements[0].query,
                                      reference_cost=12.5)])]

    def test_each_step_round_trips(self, simple_workload):
        for operation, *arguments in self._steps(simple_workload):
            body = _json_round_trip(encode_session_step(operation,
                                                        *arguments))
            assert body["operation"] == operation
            assert decode_session_step(body, simple_workload) == \
                (operation, tuple(tuple(entry) for entry in arguments))

    def test_batch_round_trips_with_each_request_at_its_own_version(
            self, simple_schema, simple_workload):
        plain = TuningRequest(workload=simple_workload, schema=simple_schema)
        budgeted = dataclasses.replace(
            plain, advisor=AdvisorSpec("cophy", time_budget_ms=50.0))
        body = _json_round_trip(encode_batch([budgeted, plain]))
        assert body == {"requests": [encode_request(budgeted),
                                     encode_request(plain)]}
        assert [entry["wire_version"] for entry in body["requests"]] == [2, 1]
        assert [encode_request(request) for request in decode_batch(body)] \
            == body["requests"]

    _DEFECTS = {
        "unknown_key_on_a_step": {"operation": "recommend", "junk": 1},
        "array_body": [1, 2],
        "missing_operation": {},
        "unknown_operation": {"operation": "drop_everything"},
        "argument_of_another_operation":
            {"operation": "recommend", "indexes": []},
        "indexes_is_an_object": {"operation": "add_candidates",
                                 "indexes": {"table": "items"}},
        "constraints_missing": {"operation": "update_constraints"},
    }

    @pytest.mark.parametrize("defect", sorted(_DEFECTS))
    def test_step_defect_is_a_wire_format_error(self, defect,
                                                simple_workload):
        with pytest.raises(WireFormatError):
            decode_session_step(self._DEFECTS[defect], simple_workload)

    @pytest.mark.parametrize("body", [
        {"requests": [], "junk": 1}, [], {}, {"requests": {}}],
        ids=["unknown_key", "array_body", "missing_requests",
             "requests_is_an_object"])
    def test_batch_defect_is_a_wire_format_error(self, body):
        with pytest.raises(WireFormatError):
            decode_batch(body)


class TestDefectsOfTheHandPairedCodec:
    """What the mutation fuzz found at 9bac81d, each pinned by name: the
    first three were HTTP 500s, the rest were accepted."""

    _MUTATIONS = {
        "dba_index_missing_key_columns":
            lambda p: p["dba_indexes"][0].pop("key_columns"),
        "candidate_missing_key_columns":
            lambda p: p["candidates"][0].pop("key_columns"),
        "statistics_is_an_array":
            lambda p: p["schema"]["tables"][0].update(statistics=[]),
        "unknown_field_on_an_index":
            lambda p: p["dba_indexes"][0].update(fillfactor=70),
        "costing_cap_is_a_string":
            lambda p: p["costing"].update(max_orders_per_table="two"),
        "per_statement_costs_is_a_string":
            lambda p: p.update(per_statement_costs="yes"),
        "advisor_name_is_a_number":
            lambda p: p["advisor"].update(name=7),
        "predicate_value_is_an_object":
            lambda p: p["workload"]["statements"][0]["query"]["predicates"][0]
                       .update(value={"gt": 1}),
        "kind_is_another_payload_type":
            lambda p: p.update(kind="tuning_result"),
    }

    @pytest.mark.parametrize("defect", sorted(_MUTATIONS))
    def test_is_a_wire_format_error(self, defect, simple_schema,
                                    simple_workload):
        payload = _json_round_trip(encode_request(TuningRequest(
            workload=simple_workload, schema=simple_schema, advisor="cophy",
            candidates=[Index("items", ("i_shipdate",))],
            dba_indexes=[Index("orders", ("o_date",))])))
        self._MUTATIONS[defect](payload)
        with pytest.raises(WireFormatError):
            decode_request(payload)


#: Every class whose fields cross the wire, with the record that states them
#: and — where the record has rows newer than version 1 — an instance that
#: sets them all.
_WIRE_CLASSES = [
    (TuningRequest, wire._REQUEST, None),
    (AdvisorSpec, wire._ADVISOR,
     AdvisorSpec("cophy", time_budget_ms=5.0, solve_tier="exact")),
    (CostingSpec, wire._COSTING, None),
    (ScaleSpec, wire._SCALE, None),
    (TuningDiagnostics, result._DIAGNOSTICS, None),
    (StatementCost, result._STATEMENT_COST, None),
    (Column, wire._COLUMN, None),
    (ColumnStatistics, wire._STATISTICS, None),
    (wire._BATCH.build, wire._BATCH, None),
    *[(record.build, record, None) for record in wire._STEPS.values()],
]


class TestTableCompleteness:
    """The behavioural successor of the ``wire-codec-completeness`` lint
    rule: a dataclass field the table does not list would be dropped on the
    wire, so adding one fails here until it gets a row."""

    @pytest.mark.parametrize("cls,record,newest", _WIRE_CLASSES,
                             ids=[entry[0].__name__ for entry in _WIRE_CLASSES])
    def test_every_field_has_a_row_and_newer_rows_are_gated(
            self, cls, record, newest):
        assert record.build is cls
        assert {f.attr for f in record.fields} == \
            {f.name for f in dataclasses.fields(cls)}
        newer = [f for f in record.fields if f.since > 1]
        assert all(f.since <= WIRE_VERSION for f in newer)
        if newer:
            payload = record.enc(newest, SimpleNamespace(version=1))
            assert {f.key for f in newer} <= set(payload)
        for f in newer:
            with pytest.raises(WireFormatError, match="unknown fields"):
                record.dec(payload, SimpleNamespace(version=f.since - 1))


# ------------------------------------------------------------ generated cases
# Seeded (``derandomize``) so tier-1 never depends on luck, and sized so the
# whole file stays a few seconds.
_FUZZ = dict(deadline=None, derandomize=True)

_names = st.text(alphabet="abcdefgh_#", min_size=1, max_size=6)
_finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
_positive = st.floats(min_value=0.5, max_value=1e9)
_operand = st.one_of(st.integers(-10_000, 10_000), _finite,
                     st.text(max_size=5))
_hint = st.none() | st.floats(min_value=0.001, max_value=1.0)


@st.composite
def _schemas(draw):
    """Small catalogs whose columns carry no, flat or histogram statistics."""
    tables = []
    for position in range(draw(st.integers(1, 3))):
        columns = [Column(f"t{position}c{column}",
                          draw(st.sampled_from(list(ColumnType))),
                          width=draw(st.sampled_from([0, 2, 24])),
                          nullable=draw(st.booleans()))
                   for column in range(draw(st.integers(2, 4)))]
        statistics = {}
        for column in columns:
            shape = draw(st.sampled_from(["none", "flat", "histogram"]))
            if shape == "flat":
                statistics[column.name] = ColumnStatistics(
                    distinct_values=draw(_positive),
                    null_fraction=draw(st.floats(0.0, 1.0)),
                    correlation=draw(st.floats(-1.0, 1.0)),
                    average_width=draw(st.floats(1.0, 64.0)))
            elif shape == "histogram":
                statistics[column.name] = ColumnStatistics.for_numeric_range(
                    0.0, draw(st.floats(1.0, 1e6)), draw(st.integers(1, 500)),
                    skew=draw(st.sampled_from([0.0, 1.0, 2.0])))
        tables.append(Table(
            f"t{position}", columns, row_count=draw(_positive),
            statistics=statistics,
            primary_key=draw(st.sampled_from([(), (columns[0].name,)])),
            page_size=draw(st.sampled_from([4096, 8192]))))
    return Schema(tables, name=draw(_names))


def _predicates(columns):
    column = st.sampled_from(columns)
    return st.one_of(
        st.builds(SimplePredicate, column, st.sampled_from([
            ComparisonOperator.EQ, ComparisonOperator.NE,
            ComparisonOperator.LT, ComparisonOperator.GE,
            ComparisonOperator.LIKE]), _operand, _hint),
        st.builds(SimplePredicate, column, st.just(ComparisonOperator.BETWEEN),
                  st.tuples(_operand, _operand), _hint),
        st.builds(SimplePredicate, column, st.just(ComparisonOperator.IN),
                  st.lists(_operand, min_size=1, max_size=4).map(tuple),
                  _hint),
        st.builds(SimplePredicate, column,
                  st.just(ComparisonOperator.IS_NULL)))


@st.composite
def _workloads(draw, schema):
    """SELECT (single-table and join) and UPDATE statements over ``schema``."""
    statements = []
    for position in range(draw(st.integers(1, 4))):
        table = draw(st.sampled_from(schema.tables))
        columns = [ColumnRef(table.name, column.name)
                   for column in table.columns]
        some_columns = st.lists(st.sampled_from(columns), max_size=2,
                                unique=True)
        # One predicate per (column, operator): the structural statement
        # key sorts on the hint next and cannot order None against a float.
        predicates = draw(st.lists(
            _predicates(columns), max_size=3,
            unique_by=lambda predicate: (predicate.column,
                                         predicate.operator)))
        if draw(st.booleans()):
            query = UpdateQuery(
                table.name,
                set_columns=draw(st.lists(st.sampled_from(columns),
                                          min_size=1, max_size=2,
                                          unique=True)),
                predicates=predicates, name=f"upd#{position}",
                update_fraction=draw(st.none() | st.floats(0.01, 1.0)))
        else:
            tables, joins = [table.name], []
            other = draw(st.sampled_from(schema.tables))
            if other is not table:
                tables.append(other.name)
                joins.append(JoinPredicate(
                    columns[0], ColumnRef(other.name, other.columns[0].name)))
            query = SelectQuery(
                tables=tables, projections=draw(some_columns),
                predicates=predicates, joins=joins,
                group_by=draw(some_columns), order_by=draw(some_columns),
                aggregates=draw(st.lists(st.builds(
                    Aggregate, st.sampled_from(list(AggregateFunction)),
                    st.none() | st.sampled_from(columns)), max_size=2)),
                name=f"sel#{position}")
        statements.append(WorkloadStatement(query, draw(_positive)))
    return Workload(statements, name=draw(_names))


def _constraints(workload):
    """Lists drawn from all eight declarative constraint kinds."""
    queries = [statement.query for statement in workload]
    hard = st.one_of(
        st.builds(StorageBudgetConstraint, _positive),
        # Floats only where the decoder coerces with float(): an int limit
        # comes back as 3.0, equal as a value but not as JSON text.
        st.builds(IndexCountConstraint, limit=_positive,
                  sense=st.sampled_from(list(ComparisonSense)), name=_names),
        st.builds(IndexWidthConstraint, max_columns=st.integers(1, 6)),
        st.builds(ClusteredIndexConstraint),
        st.builds(QueryCostConstraint, query=st.sampled_from(queries),
                  reference_cost=_positive, factor=st.floats(0.1, 1.0)),
        st.builds(QuerySpeedupGenerator,
                  reference_costs=st.dictionaries(
                      st.sampled_from([query.name for query in queries]),
                      _positive),
                  factor=st.floats(0.1, 1.0)),
        st.builds(UpdateCostConstraint, limit=_positive))
    soft = st.builds(SoftConstraint, hard, target=st.none() | _positive)
    return st.lists(hard | soft, max_size=4)


@st.composite
def _requests(draw):
    schema = draw(_schemas())
    workload = draw(_workloads(schema))
    indexes = st.lists(
        st.sampled_from(schema.tables).flatmap(lambda table: st.builds(
            Index, st.just(table.name),
            st.lists(st.sampled_from(table.column_names), min_size=1,
                     max_size=2, unique=True),
            clustered=st.booleans())),
        max_size=3)
    scale = draw(st.none() | st.builds(
        ScaleSpec, max_cost_error=st.sampled_from([0, 0.0, 0.05]),
        compress=st.booleans(), shard_count=st.none() | st.integers(1, 4),
        shard_workers=st.none() | st.integers(1, 2),
        budget_oversubscription=st.none() | st.floats(1.0, 2.0)))
    advisor = draw(st.none() | st.builds(
        AdvisorSpec,
        st.just("scaleout") if scale is not None
        else st.sampled_from(["cophy", "ilp", "dta", "tool-a"]),
        st.dictionaries(_names, st.one_of(
            st.none(), st.booleans(), st.integers(0, 9), _finite, _names,
            st.lists(st.integers(0, 9), max_size=3)), max_size=2),
        time_budget_ms=st.none() | st.floats(1.0, 1e4),
        solve_tier=st.none() | st.sampled_from(
            ["heuristic", "cascade", "exact"])))
    return TuningRequest(
        workload=workload, schema=schema,
        constraints=draw(_constraints(workload)),
        candidates=draw(st.none() | indexes.map(
            lambda chosen: CandidateSet(schema, chosen))),
        dba_indexes=draw(indexes), advisor=advisor,
        costing=draw(st.builds(
            CostingSpec, max_orders_per_table=st.integers(1, 4),
            max_templates_per_query=st.integers(1, 64),
            build_processes=st.none() | st.integers(1, 2))),
        scale=scale, per_statement_costs=draw(st.none() | st.booleans()),
        request_id=draw(_names))


class TestGeneratedRoundTrips:
    @given(request=_requests())
    @settings(max_examples=60, **_FUZZ)
    def test_encode_decode_encode_is_the_identity(self, request):
        payload = _json_round_trip(encode_request(request))
        decoded = decode_request(payload)
        again = encode_request(decoded)
        assert again == payload
        # Equal as Python values is not enough (1 == 1.0 == True): the JSON
        # *text* a client would send must survive, because statement digests
        # and result fingerprints hash reprs and JSON text.
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(payload, sort_keys=True)
        assert workload_fingerprint(decoded.workload) == \
            workload_fingerprint(request.workload)
        budgeted = (request.advisor is not None and
                    (request.advisor.time_budget_ms is not None
                     or request.advisor.solve_tier is not None))
        assert payload["wire_version"] == (2 if budgeted else 1)


def _slim(schema):
    """``schema`` with two-bucket histograms on every other column, so a random
    path lands on every payload type instead of mostly on bucket numbers."""
    tables = []
    for table in schema:
        statistics = {
            name: dataclasses.replace(
                stats, histogram=None if position % 2 else
                Histogram.from_domain(0.0, 100.0, 50, num_buckets=2))
            for position, (name, stats) in enumerate(table.statistics.items())}
        tables.append(Table(table.name, table.columns, table.row_count,
                            statistics, table.primary_key, table.page_size))
    return Schema(tables, name=schema.name)


def _base_payloads():
    """Encoded requests that exercise every payload type at least once."""
    schema, workload = _slim(build_simple_schema()), build_simple_workload()
    full = TuningRequest(
        workload=workload, schema=schema,
        constraints=[
            StorageBudgetConstraint(5e6), IndexCountConstraint(limit=3),
            IndexWidthConstraint(max_columns=2), ClusteredIndexConstraint(),
            QueryCostConstraint(workload.statements[0].query,
                                reference_cost=123.5, factor=0.75),
            QuerySpeedupGenerator(reference_costs={"point#1": 10.0}),
            UpdateCostConstraint(limit=40.0),
            SoftConstraint(StorageBudgetConstraint(1000.0), target=900.0)],
        candidates=[Index("orders", ("o_customer",),
                          include_columns=("o_total",))],
        dba_indexes=[Index("orders", ("o_date",), clustered=True)],
        advisor=AdvisorSpec("cophy", {"gap_limit": 0.05},
                            time_budget_ms=250.0, solve_tier="cascade"),
        costing=CostingSpec(max_orders_per_table=2, build_processes=1),
        per_statement_costs=True, request_id="fuzz")
    scaled = TuningRequest(
        workload=workload, schema=schema,
        scale=ScaleSpec(shard_count=2, shard_workers=1,
                        budget_oversubscription=1.5))
    return [_json_round_trip(encode_request(request))
            for request in (full, scaled)]


_BASE_PAYLOADS = _base_payloads()


def _session_and_batch_bodies():
    """Every session step's body and the ``tune_batch`` envelope, each with
    the decoder the server runs on it."""
    workload = build_simple_workload()
    steps = [
        ("recommend",),
        ("add_candidates", [Index("orders", ("o_customer",),
                                  include_columns=("o_total",)),
                            Index("items", ("i_shipdate",), clustered=True)]),
        ("remove_candidates", [Index("orders", ("o_customer",))]),
        ("update_constraints", [
            StorageBudgetConstraint(5e6), IndexCountConstraint(limit=3),
            QueryCostConstraint(workload.statements[0].query,
                                reference_cost=123.5, factor=0.75),
            QuerySpeedupGenerator(reference_costs={"point#1": 10.0}),
            SoftConstraint(StorageBudgetConstraint(1000.0), target=900.0)])]
    bodies = [(_json_round_trip(encode_session_step(*step)),
               lambda body: decode_session_step(body, workload))
              for step in steps]
    bodies.append(({"requests": [_BASE_PAYLOADS[0]]}, decode_batch))
    return bodies


_SESSION_AND_BATCH_BODIES = _session_and_batch_bodies()

#: Wrong-typed stand-ins, one per JSON type.
_JSON_SAMPLES = {"null": None, "boolean": True, "number": 7, "string": "yes",
                 "array": ["x"], "object": {"x": 1}}
#: Keys whose value is free-form by contract (any scalar / any JSON).
_FREE_FORM = {"value", "options"}


def _json_type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _paths(node, prefix=()):
    """Every (container, key) slot of a JSON document, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _resolve(document, path):
    for key in path:
        document = document[key]
    return document


def _outcome(decode):
    """``None`` when ``decode`` accepts, else the HTTP status it maps to."""
    try:
        decode()
    except Exception as exc:  # noqa: BLE001 — every escape is classified
        return envelope_for_exception(exc)[0]
    return None


def _sweep(data, bases):
    """One drop/add/swap mutant of one base body, the body itself included:
    never a 500, and never accepted with a field's meaning changed."""
    base, decode = data.draw(st.sampled_from(bases))
    holder = [copy.deepcopy(base)]
    path = data.draw(st.sampled_from(list(_paths(holder))))
    parent, key = _resolve(holder, path[:-1]), path[-1]
    original = parent[key]
    mutation = data.draw(st.sampled_from(["drop", "add", "swap"]))
    if mutation == "add" and isinstance(original, dict):
        original["no_such_field"] = 1
    elif mutation == "drop" or original is None:
        mutation = "drop"
        del parent[key]
    else:
        mutation = "swap"
        wrong = data.draw(st.sampled_from(sorted(
            set(_JSON_SAMPLES) - {_json_type(original)})))
        parent[key] = _JSON_SAMPLES[wrong]

    # A dropped body is an empty one: the decoder sees ``null``.
    status = _outcome(lambda: decode(holder[0] if holder else None))
    assert status is None or 400 <= status < 500, (path, mutation, status)
    if status is not None:
        return
    # Accepted: then nothing was silently reinterpreted.  A swapped-in
    # null means "absent" for an optional field; statistics and
    # reference_costs are keyed by free names; anything else accepted
    # must be free-form by contract.
    if mutation == "swap" and parent[key] is not None:
        assert _FREE_FORM & set(path), (path, parent[key])
    if mutation == "add":
        assert {"options", "statistics", "reference_costs"} & set(path), \
            path


class TestMutationFuzz:
    """No mutant is a 500, and none is accepted with a field's type changed."""

    @given(data=st.data())
    @settings(max_examples=400, **_FUZZ)
    def test_mutants_are_rejected_with_a_typed_4xx(self, data):
        _sweep(data, [(payload, decode_request)
                      for payload in _BASE_PAYLOADS])

    @given(data=st.data())
    @settings(max_examples=400, **_FUZZ)
    def test_session_and_batch_mutants_are_rejected_with_a_typed_4xx(
            self, data):
        _sweep(data, _SESSION_AND_BATCH_BODIES)
