"""End-to-end tests for the HTTP tuning server + client SDK.

The acceptance bar: for every registered advisor, ``TuningClient.tune``
against a live server returns a ``TuningResult`` whose ``fingerprint()``
equals the in-process ``Tuner.tune`` result for the same request (cold server
vs cold Tuner — call-count diagnostics legitimately differ once caches warm),
and concurrent clients with colliding statement names against a
``namespace_statements=True`` server get deterministic,
interleaving-independent recommendations.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import Tuner, TuningRequest, TuningResult, TuningService
from repro.core.constraints import (
    IndexCountConstraint,
    StorageBudgetConstraint,
)
from repro.exceptions import WorkloadError
from repro.indexes.index import Index
from repro.reliability import FaultPlan
from repro.server import TuningClient, TuningServer, TuningServerError
from repro.workload import parse_workload


def _budget(schema, fraction=1.0):
    return StorageBudgetConstraint.from_fraction_of_data(schema, fraction)


def _request(schema, workload, **kwargs):
    kwargs.setdefault("constraints", [_budget(schema)])
    return TuningRequest(workload=workload, schema=schema, **kwargs)


#: Every registered (canonical) advisor; scale-out runs inline so the remote
#: and local runs share no process-pool state.
ADVISORS = [("cophy", {}), ("ilp", {}), ("dta", {}), ("relaxation", {}),
            ("scaleout", {"shard_workers": 1})]


class TestEndToEndParity:
    @pytest.mark.parametrize("name,options", ADVISORS)
    def test_remote_tune_fingerprint_equals_local(self, name, options,
                                                  simple_schema,
                                                  simple_workload):
        from repro.api import AdvisorSpec

        request = _request(simple_schema, simple_workload,
                           advisor=AdvisorSpec(name, options),
                           request_id=f"parity-{name}")
        local = Tuner().tune(request)
        with TuningServer() as server:
            remote = TuningClient(server.url).tune(request)
        assert remote.fingerprint() == local.fingerprint()
        assert remote.configuration == local.configuration
        assert remote.objective_estimate == local.objective_estimate

    def test_tune_batch_matches_sequential_decisions(self, simple_schema,
                                                     simple_workload):
        requests = [
            _request(simple_schema, simple_workload, advisor="cophy"),
            _request(simple_schema, simple_workload, advisor="dta"),
            _request(simple_schema, simple_workload,
                     constraints=[_budget(simple_schema, 0.25)]),
        ]
        sequential = [Tuner().tune(request) for request in requests]
        with TuningServer() as server:
            results = TuningClient(server.url).tune_many(requests)
        for expected, got in zip(sequential, results):
            assert got.configuration == expected.configuration
            assert got.objective_estimate == expected.objective_estimate

    def test_hinted_and_unhinted_predicates_on_one_column_are_served(
            self, tpch):
        """``l_quantity < 5`` with a selectivity hint next to
        ``l_quantity < 9`` without one: canonicalisation sorted the two
        predicate keys by comparing ``None`` with a number, so every tune of
        such a statement raised ``TypeError`` (HTTP 500)."""
        from repro.server.wire import encode_request
        from repro.workload import (ColumnRef, ComparisonOperator, SelectQuery,
                                    SimplePredicate, Workload,
                                    WorkloadStatement)

        quantity = ColumnRef("lineitem", "l_quantity")
        query = SelectQuery(
            tables=("lineitem",),
            projections=(ColumnRef("lineitem", "l_extendedprice"),),
            predicates=(
                SimplePredicate(quantity, ComparisonOperator.LT, 5,
                                selectivity_hint=0.2),
                SimplePredicate(quantity, ComparisonOperator.LT, 9)),
            name="mixed_hints")
        request = _request(tpch, Workload([WorkloadStatement(query, 1.0)],
                                          name="mixed-hints"))
        local = Tuner().tune(request)
        with TuningServer() as server:
            body = json.dumps(encode_request(request)).encode("utf-8")
            http = urllib.request.Request(
                f"{server.url}/v1/tune", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(http) as response:
                assert response.status == 200
                remote = TuningResult.from_payload(
                    json.loads(response.read())["result"])
        assert remote.fingerprint() == local.fingerprint()

    def test_repeated_requests_share_one_context(self, simple_schema,
                                                 simple_workload):
        request = _request(simple_schema, simple_workload)
        with TuningServer() as server:
            client = TuningClient(server.url)
            first = client.tune(request)
            second = client.tune(request)
            stats = client.stats()
        assert second.configuration == first.configuration
        # Equal schema payloads canonicalize onto ONE schema context, and the
        # repeated workload hits the canonical-workload LRU.
        assert stats["service"]["context_count"] == 1
        assert stats["cached_schemas"] == 1
        assert stats["service"]["requests_served"] == 2
        context = stats["service"]["contexts"][0]
        assert context["canonical_workloads"] == 1


class TestNamespacing:
    def _colliding_workloads(self, tpch):
        first = parse_workload(
            ["SELECT o_totalprice FROM orders WHERE o_orderdate < 700"],
            schema=tpch)
        second = parse_workload(
            ["SELECT l_extendedprice FROM lineitem "
             "WHERE l_shipdate BETWEEN 2300 AND 2400"],
            schema=tpch)
        assert [s.query.name for s in first] == [s.query.name for s in second]
        return first, second

    def test_collision_rejected_by_default_as_workload_error(self, tpch):
        first, second = self._colliding_workloads(tpch)
        with TuningServer() as server:
            client = TuningClient(server.url)
            client.tune(TuningRequest(workload=first, schema=tpch))
            with pytest.raises(WorkloadError, match="structurally different"):
                client.tune(TuningRequest(workload=second, schema=tpch))

    def test_concurrent_colliding_clients_are_interleaving_independent(
            self, tpch):
        """With namespacing on, colliding traffic shares one context and each
        client's *decision* is independent of arrival order."""
        first, second = self._colliding_workloads(tpch)
        isolated = {
            "a": Tuner().tune(TuningRequest(workload=first, schema=tpch)),
            "b": Tuner().tune(TuningRequest(workload=second, schema=tpch)),
        }
        for _ in range(2):  # two interleavings against fresh servers
            with TuningServer(namespace_statements=True) as server:
                client = TuningClient(server.url)
                results: dict[str, object] = {}
                errors: list[BaseException] = []

                def tune(key, workload):
                    try:
                        results[key] = client.tune(
                            TuningRequest(workload=workload, schema=tpch))
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=tune, args=("a", first)),
                    threading.Thread(target=tune, args=("b", second)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                stats = client.stats()
            assert not errors
            for key in ("a", "b"):
                assert results[key].configuration == \
                    isolated[key].configuration
                assert results[key].objective_estimate == \
                    isolated[key].objective_estimate
            # Both workloads were served by one shared schema context.
            assert stats["service"]["context_count"] == 1
            assert stats["service"]["namespaced_requests"] >= 1

    def test_namespaced_repeat_is_deterministic(self, tpch):
        first, second = self._colliding_workloads(tpch)
        with TuningServer(namespace_statements=True) as server:
            client = TuningClient(server.url)
            client.tune(TuningRequest(workload=first, schema=tpch))
            one = client.tune(TuningRequest(workload=second, schema=tpch))
            two = client.tune(TuningRequest(workload=second, schema=tpch))
        assert one.provenance["pipeline"]["namespaced"] is True
        assert one.configuration == two.configuration
        assert [c.statement for c in one.statement_costs] == \
            [c.statement for c in two.statement_costs]


class TestSessions:
    def test_remote_session_matches_local_service_session(self, simple_schema,
                                                          simple_workload):
        budget = _budget(simple_schema)
        extra = Index("items", ("i_shipdate",), include_columns=("i_price",))

        def steps(session):
            return [session.recommend(),
                    session.update_constraints(
                        [budget, IndexCountConstraint(limit=2)]),
                    session.add_candidates([extra]),
                    session.remove_candidates([extra])]

        local = steps(TuningService().open_session(
            _request(simple_schema, simple_workload)))
        with TuningServer() as server:
            client = TuningClient(server.url)
            with client.open_session(_request(simple_schema,
                                              simple_workload)) as session:
                remote = steps(session)
                assert session.history == tuple(remote)
                assert session.last_result is remote[-1]
            assert server.session_count == 0  # context exit closed it

        assert [result.fingerprint() for result in remote] == \
            [result.fingerprint() for result in local]
        assert [result.provenance["session"]["operation"]
                for result in remote] == ["recommend", "update_constraints",
                                          "add_candidates",
                                          "remove_candidates"]
        assert extra not in remote[-1].configuration

    def test_malformed_session_index_is_a_400_not_a_500(self, simple_schema,
                                                        simple_workload):
        """At 9bac81d an index without ``key_columns`` was a bare KeyError."""
        from repro.server.wire import WireFormatError

        with TuningServer() as server:
            client = TuningClient(server.url)
            with client.open_session(_request(simple_schema,
                                              simple_workload)) as session:
                with pytest.raises(WireFormatError, match="key_columns"):
                    client._post(
                        f"/v1/sessions/{session.session_id}/tune",
                        {"operation": "add_candidates",
                         "indexes": [{"table": "items"}]})

    def test_unknown_session_is_404(self, simple_schema, simple_workload):
        with TuningServer() as server:
            client = TuningClient(server.url)
            with pytest.raises(TuningServerError) as info:
                client._post("/v1/sessions/s999/tune",
                             {"operation": "recommend"})
            assert info.value.status == 404
            assert info.value.error_type == "UnknownSession"
            with pytest.raises(TuningServerError) as info:
                client._delete("/v1/sessions/s999")
            assert info.value.status == 404

    def test_session_constraints_follow_namespaced_renames(self, tpch):
        """A session opened over a renamed (namespaced) workload must accept
        constraint updates phrased in the client's ORIGINAL statement names."""
        from repro.workload import parse_workload
        from repro.core.constraints import QueryCostConstraint

        first = parse_workload(
            ["SELECT o_totalprice FROM orders WHERE o_orderdate < 700"],
            schema=tpch)
        second = parse_workload(
            ["SELECT l_extendedprice FROM lineitem "
             "WHERE l_shipdate BETWEEN 2300 AND 2400"],
            schema=tpch)
        target = second.statements[0].query
        with TuningServer(namespace_statements=True) as server:
            client = TuningClient(server.url)
            client.tune(TuningRequest(workload=first, schema=tpch,
                                      constraints=[_budget(tpch)]))
            with client.open_session(TuningRequest(
                    workload=second, schema=tpch,
                    constraints=[_budget(tpch)])) as session:
                session.recommend()
                # References 'stmt1' — renamed server-side to stmt1@<digest>.
                updated = session.update_constraints([
                    _budget(tpch),
                    QueryCostConstraint(target, reference_cost=1e12,
                                        factor=1.0)])
        assert updated.index_count >= 0  # applied, no ConstraintError


class TestErrorEnvelopes:
    def test_malformed_json_is_400(self, simple_schema):
        with TuningServer() as server:
            request = urllib.request.Request(
                f"{server.url}/v1/tune", data=b"{not json",
                headers={"Content-Type": "application/json"}, method="POST")
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 400
            envelope = json.loads(info.value.read())
            assert envelope["error"]["type"] == "MalformedJSON"

    def test_unknown_advisor_is_400(self, simple_schema, simple_workload):
        request = _request(simple_schema, simple_workload,
                           advisor="no-such-advisor")
        with TuningServer() as server:
            with pytest.raises(TuningServerError) as info:
                TuningClient(server.url).tune(request)
        assert info.value.status == 400
        assert "No advisor registered" in str(info.value)

    def test_wrong_wire_version_is_400(self, simple_schema, simple_workload):
        from repro.server.wire import WireFormatError, encode_request

        payload = encode_request(_request(simple_schema, simple_workload))
        payload["wire_version"] = 99
        with TuningServer() as server:
            client = TuningClient(server.url)
            with pytest.raises(WireFormatError, match="wire_version"):
                client._post("/v1/tune", payload)

    def test_unknown_endpoint_is_404(self):
        with TuningServer() as server:
            with pytest.raises(TuningServerError) as info:
                TuningClient(server.url)._get("/v1/warp")
        assert info.value.status == 404
        assert info.value.error_type == "NotFound"

    def test_malformed_statistics_are_a_wire_error_not_a_500(
            self, simple_schema, simple_workload):
        from repro.server.wire import WireFormatError, encode_request

        payload = encode_request(_request(simple_schema, simple_workload))
        table = payload["schema"]["tables"][0]
        del table["statistics"][next(iter(table["statistics"]))][
            "distinct_values"]
        with TuningServer() as server:
            client = TuningClient(server.url)
            with pytest.raises(WireFormatError, match="Malformed statistics"):
                client._post("/v1/tune", payload)

    def test_builtin_exceptions_round_trip_like_the_embedded_api(
            self, simple_schema, simple_workload):
        """`except ValueError` handlers must work identically in-process and
        remotely (sessions require the cophy advisor in both worlds)."""
        request = _request(simple_schema, simple_workload, advisor="dta")
        with pytest.raises(ValueError, match="cophy"):
            TuningService().open_session(request)
        with TuningServer() as server:
            with pytest.raises(ValueError, match="cophy"):
                TuningClient(server.url).open_session(request)

    def test_a_budgeted_session_is_a_400(self, simple_schema,
                                         simple_workload):
        from repro.api import AdvisorSpec

        request = _request(simple_schema, simple_workload,
                           advisor=AdvisorSpec("cophy",
                                               solve_tier="heuristic"))
        with TuningServer() as server:
            with pytest.raises(ValueError, match="without a deadline"):
                TuningClient(server.url).open_session(request)
            assert server.session_count == 0

    def test_negative_content_length_is_rejected_not_hung(self):
        import http.client

        with TuningServer() as server:
            connection = http.client.HTTPConnection(server.host, server.port,
                                                    timeout=10)
            try:
                connection.putrequest("POST", "/v1/tune")
                connection.putheader("Content-Length", "-1")
                connection.endheaders()
                response = connection.getresponse()
                envelope = json.loads(response.read())
            finally:
                connection.close()
        assert response.status == 400
        assert "non-negative" in envelope["error"]["message"]

    def test_connection_error_is_typed(self):
        from repro.server.protocol import TuningServerUnavailable

        # retry_policy=None: surface the first failure; an empty FaultPlan
        # masks any ambient REPRO_FAULT_PLAN (this test wants the real
        # socket error, not an injected one).
        client = TuningClient("http://127.0.0.1:9", timeout=2,
                              retry_policy=None, fault_plan=FaultPlan())
        with pytest.raises(TuningServerUnavailable) as info:
            client.health()
        assert info.value.error_type == "ServerUnavailable"
        assert info.value.status == 0
        # Still catchable as the generic server error (subclass contract).
        assert isinstance(info.value, TuningServerError)

    def test_truncated_body_is_a_400_envelope(self):
        """A client that dies mid-upload gets MalformedJSON, not a reset."""
        import socket

        with TuningServer() as server:
            with socket.create_connection((server.host, server.port),
                                          timeout=10) as conn:
                conn.sendall(
                    b"POST /v1/tune HTTP/1.1\r\n"
                    b"Host: test\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 1000\r\n\r\n"
                    b'{"wire_version": 2, "truncat')
                conn.shutdown(socket.SHUT_WR)  # body ends 972 bytes early
                response = b""
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n", 1)[0]
        envelope = json.loads(body)
        assert envelope["error"]["type"] == "MalformedJSON"

    def test_oversized_body_is_rejected_with_413(self):
        from repro.server.app import MAX_BODY_BYTES

        with TuningServer() as server:
            request = urllib.request.Request(
                f"{server.url}/v1/tune", data=b"{}",
                headers={"Content-Type": "application/json",
                         "Content-Length": str(MAX_BODY_BYTES + 1)},
                method="POST")
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 413
            envelope = json.loads(info.value.read())
            assert envelope["error"]["type"] == "PayloadTooLarge"

    def test_garbage_bytes_with_valid_length_are_400(self):
        with TuningServer() as server:
            request = urllib.request.Request(
                f"{server.url}/v1/tune", data=b"\x00\xff\xfe not json at all",
                headers={"Content-Type": "application/json"}, method="POST")
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 400
            envelope = json.loads(info.value.read())
            assert envelope["error"]["type"] == "MalformedJSON"

    def test_unencodable_handler_payload_is_a_500_envelope(self):
        """A handler returning non-JSON data still yields an envelope."""
        with TuningServer() as server:
            server.handle_health = (  # type: ignore[method-assign]
                lambda: {"bad": {1, 2}})  # sets are not JSON-encodable
            with pytest.raises(TuningServerError) as info:
                TuningClient(server.url, retry_policy=None,
                             fault_plan=FaultPlan()).health()
        assert info.value.status == 500
        assert info.value.error_type == "ResponseEncodingError"
        assert "encoding failed" in str(info.value)


class TestHealthAndStats:
    def test_health_reports_registry(self):
        with TuningServer() as server:
            health = TuningClient(server.url).health()
        assert health["status"] == "ok"
        assert "cophy" in health["advisors"]
        assert health["wire_version"] == 2

    def test_close_without_start_returns(self):
        """close() on a never-started server must not block on shutdown()."""
        import threading

        server = TuningServer()
        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=5)
        assert not closer.is_alive()

    def test_server_defaults_bound_context_growth(self):
        """A server's contexts come from decoded payloads; without a default
        cap, schemas rotating past the schema cache would orphan contexts
        forever."""
        with TuningServer() as server:
            stats = TuningClient(server.url).stats()
        assert stats["service"]["max_contexts"] == 64

    def test_health_ignores_query_strings(self):
        """Load balancers probe with query parameters; routing must not 404."""
        with TuningServer() as server:
            health = TuningClient(server.url)._get("/v1/health?probe=1")
        assert health["status"] == "ok"

    def test_stats_polling_reaps_expired_contexts(self, simple_schema,
                                                  simple_workload):
        import time

        with TuningServer(context_ttl_s=0.05) as server:
            client = TuningClient(server.url)
            client.tune(_request(simple_schema, simple_workload))
            assert client.stats()["service"]["context_count"] == 1
            time.sleep(0.1)
            # No tuning traffic: the stats poll itself must reap and report.
            service = client.stats()["service"]
        assert service["context_count"] == 0
        assert service["expired_contexts"] == 1

    def test_stats_report_context_eviction(self, simple_workload):
        from repro.catalog import tpch_schema

        with TuningServer(max_contexts=1) as server:
            client = TuningClient(server.url)
            client.tune(_request(
                tpch_schema(scale_factor=0.004),
                parse_workload(
                    ["SELECT o_totalprice FROM orders WHERE o_orderdate < 7"],
                    schema=tpch_schema(scale_factor=0.004))))
            schema2 = tpch_schema(scale_factor=0.003)
            client.tune(_request(
                schema2,
                parse_workload(
                    ["SELECT o_totalprice FROM orders WHERE o_orderdate < 7"],
                    schema=schema2)))
            stats = client.stats()
        service = stats["service"]
        assert service["context_count"] == 1
        assert service["evicted_contexts"] == 1
        assert service["max_contexts"] == 1
