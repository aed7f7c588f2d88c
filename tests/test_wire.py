"""Tests for the request wire formats: exact round trips, versioning, errors.

The load-bearing guarantee is fingerprint-pinned round-tripping: tuning
``decode_request(encode_request(request))`` must be indistinguishable from
tuning ``request`` — same statement digests, same canonical-workload
fingerprints, same result fingerprints.
"""

from __future__ import annotations

import json

import pytest

from repro.api import CostingSpec, ScaleSpec, Tuner, TuningRequest
from repro.api.tuner import statement_digest, workload_fingerprint
from repro.catalog import tpch_schema
from repro.core.constraints import (
    ClusteredIndexConstraint,
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
from repro.server.wire import (
    WIRE_VERSION,
    SchemaCache,
    WireFormatError,
    decode_constraint,
    decode_request,
    decode_schema,
    decode_workload,
    encode_constraint,
    encode_request,
    encode_schema,
    encode_workload,
)
from repro.workload import (
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
)


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
