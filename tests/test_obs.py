"""Tests for the observability layer (PR 8): tracing, metrics, logs.

Covers the unit surface of :mod:`repro.obs` plus the end-to-end promises:
span-tree shapes per advisor, fingerprint parity with tracing on/off,
trace-id propagation client -> server -> result, ``GET /v1/metrics``
exposition, and ``TuningService.stats()`` atomicity under concurrency.
"""

from __future__ import annotations

import io
import json
import logging
import re
import threading
import time
from urllib.request import Request, urlopen

import pytest

from repro.api import AdvisorSpec, Tuner, TuningRequest, TuningResult
from repro.api.service import TuningService
from repro.obs.log import configure as configure_logging
from repro.obs.log import log_event
from repro.obs.metrics import (
    METRICS_CONTENT_TYPE,
    MetricsRegistry,
    declare_standard_metrics,
    use_registry,
)
from repro.obs.trace import (
    STAGE_SPANS,
    Tracer,
    activate,
    current_trace_id,
    current_tracer,
    span,
    stage,
    trace_context,
)
from repro.api.registry import make_advisor
from repro.core.constraints import StorageBudgetConstraint
from repro.indexes.candidate_generation import CandidateGenerator
from repro.server.app import TuningServer, _endpoint_pattern
from repro.server.client import TuningClient
from repro.server.protocol import TRACE_HEADER
from repro.workload.generators import generate_homogeneous_workload


def _request(schema, seed=31, statements=10, **kwargs):
    workload = generate_homogeneous_workload(statements, seed=seed)
    budget = StorageBudgetConstraint.from_fraction_of_data(schema, 1.0)
    return TuningRequest(workload=workload, schema=schema,
                         constraints=[budget], **kwargs)


def _span_names(node):
    """Flatten a span payload tree into the set of span names."""
    names = {node["name"]}
    for child in node.get("children", ()):
        names |= _span_names(child)
    return names


def _find_spans(node, predicate):
    found = [node] if predicate(node) else []
    for child in node.get("children", ()):
        found.extend(_find_spans(child, predicate))
    return found


def _assert_solve_attrs_match(attrs, bip, report, rows):
    """A ``solve`` span states the shape of the program the backend saw —
    the BIP exported with the request's constraint rows — and its bound."""
    matrices = bip.model.to_matrices(rows=rows)
    blocks = [matrices[key] for key in ("A_ub", "A_eq")
              if matrices[key] is not None]
    assert attrs["rows"] == sum(block.shape[0] for block in blocks)
    assert attrs["columns"] == matrices["c"].size == bip.model.variable_count
    assert attrs["nonzeros"] == sum(block.nnz for block in blocks)
    assert attrs["dual_bound"] == report.solution.best_bound
    assert attrs["dual_bound"] <= report.solution.objective + 1e-6


# ---------------------------------------------------------------------- tracer
class TestTracer:
    def test_spans_nest_into_one_tree(self):
        tracer = Tracer("t" * 32)
        with tracer.span("tune", advisor="cophy"):
            with tracer.span("prepare"):
                pass
            with tracer.span("solve") as solve:
                solve.set(gap=0.0)
        export = tracer.export()
        assert export["trace_id"] == "t" * 32
        root = export["root"]
        assert root["name"] == "tune"
        assert root["attrs"]["advisor"] == "cophy"
        assert [child["name"] for child in root["children"]] \
            == ["prepare", "solve"]
        assert root["children"][1]["attrs"]["gap"] == 0.0
        assert root["duration_ms"] >= 0.0

    def test_adopt_grafts_a_worker_export_under_the_open_span(self):
        worker = Tracer("shared")
        with worker.span("shard[0]", in_worker=True):
            pass
        parent = Tracer("shared")
        with parent.span("tune"):
            with parent.span("solve"):
                parent.adopt(worker.export())
        root = parent.export()["root"]
        solve = root["children"][0]
        assert solve["children"][0]["name"] == "shard[0]"
        assert solve["children"][0]["attrs"]["in_worker"] is True

    def test_export_finishes_open_spans_for_partial_traces(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("tune"):
                with tracer.span("prepare"):
                    raise RuntimeError("boom")
        # Exported mid-failure (from an except handler) the spans that were
        # open at the time still carry meaningful durations.
        export = tracer.export()
        assert export["root"]["name"] == "tune"

    def test_module_span_is_noop_without_a_tracer(self):
        assert current_trace_id() is None
        with span("anything", x=1) as node:
            node.set(y=2)  # must not explode
        assert not node.is_recording

    def test_trace_context_plants_the_pending_id(self):
        with trace_context("given-id") as trace_id:
            assert trace_id == "given-id"
            assert Tracer().trace_id == "given-id"
        assert Tracer().trace_id != "given-id"

    def test_activate_exposes_the_current_trace_id(self):
        tracer = Tracer("abc")
        with activate(tracer):
            assert current_trace_id() == "abc"
        assert current_trace_id() is None


# --------------------------------------------------------------------- metrics
class TestMetricsRegistry:
    def test_counter_labels_and_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", "help", ("status",))
        counter.inc(status="ok")
        counter.inc(2.0, status="error")
        assert counter.value(status="ok") == 1.0
        assert counter.total() == 3.0
        with pytest.raises(ValueError):
            counter.inc(-1.0, status="ok")
        with pytest.raises(ValueError):
            counter.inc(wrong="label")

    def test_get_or_create_rejects_kind_and_label_collisions(self):
        registry = MetricsRegistry()
        registry.counter("thing", "help")
        with pytest.raises(ValueError):
            registry.gauge("thing", "help")
        registry.counter("labelled", "help", ("a",))
        with pytest.raises(ValueError):
            registry.counter("labelled", "help", ("b",))

    def test_histogram_buckets_are_cumulative_in_render(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        text = registry.render()
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="10"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_sum 55.5" in text
        assert "h_count 3" in text

    def test_snapshot_is_one_consistent_view(self):
        registry = declare_standard_metrics(MetricsRegistry())
        registry.counter("repro_requests_total", "", ("advisor", "tier",
                                                      "status")).inc(
            advisor="cophy", tier="exact", status="ok")
        snap = registry.snapshot()
        assert snap["repro_requests_total"] == {("cophy", "exact", "ok"): 1.0}
        # Declared-but-untouched families still appear (empty).
        assert "repro_solver_solves_total" in snap

    def test_render_is_valid_prometheus_text(self):
        registry = declare_standard_metrics(MetricsRegistry())
        registry.counter("repro_requests_total", "", ("advisor", "tier",
                                                      "status")).inc(
            advisor="cophy", tier="exact", status="ok")
        _assert_valid_exposition(registry.render())


SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$")


def _assert_valid_exposition(text: str) -> None:
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line or line.startswith("# "):
            continue
        assert SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"


# ------------------------------------------------------------------------ logs
class TestStructuredLogs:
    def test_log_event_emits_json_with_trace_id(self):
        stream = io.StringIO()
        configure_logging("INFO", stream=stream)
        try:
            with activate(Tracer("deadbeef")):
                log_event(logging.WARNING, "something_degraded", shard=3)
            record = json.loads(stream.getvalue())
            assert record["event"] == "something_degraded"
            assert record["shard"] == 3
            assert record["trace_id"] == "deadbeef"
            assert record["level"] == "WARNING"
        finally:
            configure_logging("WARNING")

    def test_below_threshold_events_are_dropped(self):
        stream = io.StringIO()
        configure_logging("ERROR", stream=stream)
        try:
            log_event(logging.WARNING, "quiet")
            assert stream.getvalue() == ""
        finally:
            configure_logging("WARNING")


# ------------------------------------------------------------------ span shape
class TestSpanTreeShapes:
    def test_monolithic_cophy_trace_shape(self, tpch):
        result = Tuner().tune(_request(tpch))
        trace = result.extras["trace"]
        assert trace["trace_id"]
        root = trace["root"]
        assert root["name"] == "tune"
        assert root["attrs"]["advisor"] == "cophy"
        names = _span_names(root)
        assert {"candidates", "prepare", "solve", "evaluate"} <= names

    @pytest.mark.parametrize("advisor", [
        AdvisorSpec("cophy", solve_tier="heuristic"),
        AdvisorSpec("scaleout", {"shard_workers": 1}, solve_tier="heuristic")])
    def test_greedy_span_reports_probes_and_candidates(self, tpch, advisor):
        request = _request(tpch, advisor=advisor)
        result = Tuner().tune(request)
        root = result.extras["trace"]["root"]
        greedy = _find_spans(root, lambda node: node["name"] == "greedy")
        assert len(greedy) == 1
        attrs = greedy[0]["attrs"]
        heuristic = result.extras["heuristic"]
        assert attrs["probes"] == heuristic["probes"] > 0
        assert attrs["candidates"] == result.diagnostics.candidate_count > 0
        assert attrs["picked"] == result.index_count
        # Spans are volatile: the fingerprint is the same without them.
        assert Tuner(tracing=False).tune(request).fingerprint() \
            == result.fingerprint()

    def test_scaleout_trace_includes_worker_shard_spans(self, tpch):
        result = Tuner().tune(_request(
            tpch, statements=12,
            advisor=AdvisorSpec("scaleout", {"shard_count": 2,
                                             "shard_workers": 2})))
        root = result.extras["trace"]["root"]
        names = _span_names(root)
        assert {"partition", "solve", "merge"} <= names
        shards = _find_spans(root,
                             lambda node: node["name"].startswith("shard["))
        assert len(shards) == 2
        # Worker-side spans were built in the worker process under the same
        # trace id and grafted back into the solve span.
        assert all(shard["attrs"].get("in_worker") for shard in shards)
        solve = _find_spans(root, lambda node: node["name"] == "solve")[0]
        assert {child["name"] for child in solve["children"]} \
            == {shard["name"] for shard in shards}

    def test_scaleout_merge_span_is_opened(self, tpch):
        # Masked fault plan: a shard that recovers inline ships nothing, so
        # the exact adopted/template_builds counts need a clean pool run.
        from repro.reliability.faults import FaultPlan

        result = Tuner(fault_plan=FaultPlan()).tune(_request(
            tpch, statements=12,
            advisor=AdvisorSpec("scaleout", {"shard_count": 2,
                                             "shard_workers": 2})))
        root = result.extras["trace"]["root"]
        merge = _find_spans(root, lambda node: node["name"] == "merge")[0]
        # Same child names as the monolithic pipeline (core/advisor.py).
        assert [child["name"] for child in merge["children"]] \
            == ["prepare", "bip_build", "solve"]
        bip_build = merge["children"][1]
        assert bip_build["attrs"]["variables"] > 0
        assert "gap" in merge["children"][2]["attrs"]
        # Every representative's entry came back from a worker, so the
        # merge enumerated no template itself.
        compress = _find_spans(root,
                               lambda node: node["name"] == "compress")[0]
        assert merge["attrs"]["adopted"] \
            == compress["attrs"]["representatives"]
        assert merge["attrs"]["template_builds"] == 0

    def test_inline_scaleout_shards_nest_without_grafting(self, tpch):
        # Inline shard retries each leave their own shard[i] span, so mask
        # any env fault plan (the CI chaos lane kills first attempts).
        from repro.reliability.faults import FaultPlan

        result = Tuner(fault_plan=FaultPlan()).tune(_request(
            tpch, statements=12,
            advisor=AdvisorSpec("scaleout", {"shard_count": 2,
                                             "shard_workers": 1})))
        root = result.extras["trace"]["root"]
        shards = _find_spans(
            root, lambda node: node["name"].startswith("shard["))
        assert len(shards) == 2
        assert not any(shard["attrs"].get("in_worker") for shard in shards)
        # Inline shards built into the shared cache: nothing to adopt, and
        # still nothing left for the merge to enumerate.
        merge = _find_spans(root, lambda node: node["name"] == "merge")[0]
        assert merge["attrs"]["adopted"] == 0
        assert merge["attrs"]["template_builds"] == 0

    def test_solve_span_states_the_exported_program(self, tpch):
        request = _request(tpch)
        result = Tuner().tune(request)
        solve = _find_spans(result.extras["trace"]["root"],
                            lambda node: node["name"] == "solve")[0]
        bip = result.extras["bip"]
        _assert_solve_attrs_match(
            solve["attrs"], bip, result.extras["solve_report"],
            [row for constraint in request.constraints
             for row in constraint.to_linear(bip)])

    def test_session_solve_span_states_the_exported_program(
            self, simple_schema, simple_workload):
        budget = StorageBudgetConstraint.from_fraction_of_data(simple_schema,
                                                               0.5)
        session = make_advisor("cophy", simple_schema).create_session(
            simple_workload, constraints=[budget])
        tracer = Tracer()
        with activate(tracer), tracer.span("recommend") as step:
            recommendation = session.recommend()
        _assert_solve_attrs_match(
            step.children[-1].attrs, session.bip,
            recommendation.extras["solve_report"], budget.to_linear(session.bip))

    def test_tracing_off_yields_no_trace(self, tpch):
        result = Tuner(tracing=False).tune(_request(tpch))
        assert "trace" not in result.extras

    def test_fingerprint_parity_with_tracing_on_and_off(self, tpch):
        traced = Tuner(tracing=True).tune(_request(tpch))
        untraced = Tuner(tracing=False).tune(_request(tpch))
        assert traced.fingerprint() == untraced.fingerprint()

    def test_trace_survives_the_json_round_trip(self, tpch):
        result = Tuner().tune(_request(tpch))
        restored = TuningResult.from_json(result.to_json())
        assert restored.extras["trace"] == result.extras["trace"]
        assert restored.fingerprint() == result.fingerprint()


# -------------------------------------------------------------------- one clock
_STAGES = {"candidate_generation", "inum", "build", "solve", "total"}
#: (advisor, solve tier) -> the advisor's ``timings`` vocabulary, and the span
#: its ``total`` is read from (None: detached — the stages are the tree).
_ADVISOR_TIMINGS = {
    ("cophy", None): (_STAGES, None),
    ("cophy", "cascade"): (_STAGES | {"heuristic"}, None),
    ("cophy", "heuristic"): (_STAGES - {"build", "solve"} | {"heuristic"},
                             None),
    ("ilp", None): (_STAGES - {"candidate_generation"}, None),
    ("scaleout", None): ({"compress", "partition", "solve", "merge", "total"},
                         None),
    ("dta", None): ({"total"}, "search"),
    ("relaxation", None): ({"total"}, "search"),
}


def _seconds(root, name):
    """Summed reading of the stage spans called ``name`` directly under
    ``root`` — live Span objects, so exactly what ``timings`` was read from."""
    return sum(child.seconds for child in root.children
               if child.name == name)


class TestOneClock:
    @pytest.mark.parametrize("advisor,tier", list(_ADVISOR_TIMINGS))
    def test_timing_keys_per_advisor_with_tracing_on_and_off(
            self, simple_schema, simple_workload, advisor, tier):
        stages, _ = _ADVISOR_TIMINGS[advisor, tier]
        request = TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[StorageBudgetConstraint.from_fraction_of_data(
                simple_schema, 1.0)],
            advisor=AdvisorSpec(advisor, solve_tier=tier))
        for tracing in (True, False):
            result = Tuner(tracing=tracing).tune(request)
            pipeline = result.provenance["pipeline"]
            facade = {"facade.total"}
            facade |= {"facade.prepare"} if pipeline["prepared"] else set()
            facade |= {"facade.evaluate"} if pipeline["evaluated"] else set()
            assert set(result.diagnostics.timings) == stages | facade

    def test_session_operations_report_the_same_four_keys(
            self, simple_schema, simple_workload):
        advisor = make_advisor("cophy", simple_schema)
        candidates = list(advisor.generate_candidates(simple_workload))
        session = advisor.create_session(
            simple_workload,
            candidates=advisor.generate_candidates(simple_workload).subset(
                candidates[:-2]))
        budget = StorageBudgetConstraint.from_fraction_of_data(
            simple_schema, 0.5)
        for step in (session.recommend(),
                     session.add_candidates(candidates[-2:]),
                     session.remove_candidates(candidates[-1:]),
                     session.update_constraints([budget])):
            assert set(step.timings) == {"inum", "build", "solve", "total"}

    @pytest.mark.parametrize("advisor,tier", list(_ADVISOR_TIMINGS))
    def test_advisor_timings_are_the_readings_of_their_spans(
            self, simple_schema, simple_workload, advisor, tier):
        from repro.lp.budget import SolveBudget

        stages, run = _ADVISOR_TIMINGS[advisor, tier]
        tracer = Tracer()
        with activate(tracer), tracer.span("test") as root:
            timings = make_advisor(advisor, simple_schema).tune(
                simple_workload,
                [StorageBudgetConstraint.from_fraction_of_data(
                    simple_schema, 1.0)],
                **({"budget": SolveBudget.from_spec(None, tier)} if tier else {})
            ).timings
        assert set(timings) == stages
        for key in stages - {"total"}:
            assert timings[key] == _seconds(root, STAGE_SPANS[key])
        if run is not None:
            assert timings["total"] == _seconds(root, run)

    def test_facade_timings_are_the_readings_of_the_root_and_its_stages(
            self, simple_schema, simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(
            simple_workload)
        tracer = Tracer()
        with activate(tracer):
            # tracing=False: the facade keeps no tree of its own, so its
            # ambient spans land on this tracer as live Span objects.
            result = Tuner(tracing=False).tune(TuningRequest(
                workload=simple_workload, schema=simple_schema,
                candidates=candidates))
        timings, root = result.diagnostics.timings, tracer.root
        assert "trace" not in result.extras
        assert root.name == STAGE_SPANS["facade.total"] == "tune"
        assert timings["facade.total"] == root.seconds
        assert timings["facade.evaluate"] == _seconds(root, "evaluate")
        # Both vocabularies call their cache preparation ``prepare``: the
        # facade's registration first, then the advisor's INUM stage.
        assert [child.seconds for child in root.children
                if child.name == "prepare"] \
            == [timings["facade.prepare"], timings["inum"]]
        assert [child.name for child in root.children] == [
            "canonicalize", "resolve", "prepare", "prepare", "bip_build",
            "solve", "evaluate", "export"]

    def test_a_repeated_stage_sums_and_a_run_reads_its_own_span(self):
        timings = {}
        tracer = Tracer()
        with activate(tracer), tracer.span("test") as root:
            with stage(timings, "total"):
                for _ in range(3):
                    with stage(timings, "solve"):
                        pass
        # The run is not a stage of the table: detached, it left no node;
        # the three stages did.
        assert "total" not in STAGE_SPANS
        assert [child.name for child in root.children] == ["solve"] * 3
        assert timings["solve"] == _seconds(root, "solve")
        assert timings["total"] >= timings["solve"]

    def test_span_without_a_tracer_is_timed_and_detached(self):
        with pytest.raises(RuntimeError):
            with span("stage", x=1) as node:
                assert current_tracer() is None
                raise RuntimeError("boom")
        assert not node.is_recording
        assert node.seconds > 0.0
        timings = {}
        with pytest.raises(RuntimeError):
            with stage(timings, "total"), stage(timings, "inum"):
                raise RuntimeError("boom")
        assert set(timings) == {"inum", "total"}

    @pytest.mark.parametrize("advisor,expected", [
        ("ilp", {"prepare", "bip_build", "solve"}),
        ("dta", {"search"}),
        ("relaxation", {"search"}),
    ])
    def test_baseline_advisor_traces_contain_their_stage_spans(
            self, simple_schema, simple_workload, advisor, expected):
        result = Tuner().tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            advisor=AdvisorSpec(advisor)))
        assert expected <= _span_names(result.extras["trace"]["root"])

    def test_session_steps_nest_their_stages_under_the_ambient_tracer(
            self, simple_schema, simple_workload):
        advisor = make_advisor("cophy", simple_schema)
        candidates = list(advisor.generate_candidates(simple_workload))
        session = advisor.create_session(
            simple_workload,
            candidates=advisor.generate_candidates(simple_workload).subset(
                candidates[:-2]))
        tracer = Tracer()
        with activate(tracer), tracer.span("session"):
            with tracer.span("recommend") as first:
                session.recommend()
            with tracer.span("add_candidates") as second:
                session.add_candidates(candidates[-2:])
        assert [child.name for child in first.children] \
            == ["prepare", "bip_build", "solve"]
        assert [child.name for child in second.children] \
            == ["bip_build", "solve"]
        assert second.children[1].attrs["warm_started"] is True

    def test_a_request_failing_mid_stage_still_reports_one_reading(
            self, tpch):
        from repro.reliability.faults import FaultPlan, FaultRule, InjectedFault

        tuner = Tuner(fault_plan=FaultPlan(
            [FaultRule(site="solver", probability=1.0)]))
        with pytest.raises(InjectedFault):
            tuner.tune(_request(tpch))
        latency = tuner.metrics.snapshot()["repro_request_seconds"][
            ("cophy",)]
        entry = tuner.trace_store.summaries(1)[0]
        assert entry["status"] == "error"
        # Histogram sample, stored duration and the partial trace's root are
        # one reading of one span.
        assert entry["duration_ms"] == round(latency["sum"] * 1000.0, 3)
        stored = tuner.trace_store.get(entry["trace_id"])["trace"]["root"]
        assert stored["name"] == "tune"
        assert stored["duration_ms"] == entry["duration_ms"]


# ------------------------------------------------------------------- metrics e2e
class TestFacadeMetrics:
    def test_one_tune_populates_the_standard_families(self, tpch):
        tuner = Tuner()
        tuner.tune(_request(tpch))
        snap = tuner.metrics.snapshot()
        assert snap["repro_requests_total"] == {("cophy", "exact", "ok"): 1.0}
        assert snap["repro_request_seconds"][("cophy",)]["count"] == 1
        assert sum(snap["repro_solver_solves_total"].values()) >= 1
        cache_events = snap["repro_cache_events_total"]
        assert any(key[0] == "tensor" for key in cache_events)

    def test_failed_requests_count_as_errors(self, tpch):
        from repro.reliability.faults import FaultPlan, FaultRule, InjectedFault

        # A fault plan that always kills the solver forces the error path.
        tuner = Tuner(fault_plan=FaultPlan(
            [FaultRule(site="solver", probability=1.0)]))
        with pytest.raises(InjectedFault):
            tuner.tune(_request(tpch))
        snap = tuner.metrics.snapshot()
        statuses = {key[2] for key in snap["repro_requests_total"]}
        assert statuses == {"error"}


# -------------------------------------------------------------- stats atomicity
class TestStatsUnderConcurrency:
    def test_stats_stay_consistent_while_tuning(self, tpch):
        service = TuningService(namespace_statements=True)
        requests = [_request(tpch, seed=40 + i, statements=6)
                    for i in range(6)]
        seen: list[dict] = []
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                stats = service.stats()
                assert stats["pending"] >= 0
                assert stats["requests_served"] >= 0
                seen.append(stats)
                time.sleep(0.005)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            results = service.tune_many(requests)
        finally:
            stop.set()
            poller.join()
            service.close()
        assert len(results) == len(requests)
        served = [stats["requests_served"] for stats in seen]
        assert served == sorted(served), "requests_served must be monotonic"
        assert service.stats()["requests_served"] == len(requests)
        assert service.stats()["pending"] == 0


# ----------------------------------------------------------------- wire + HTTP
@pytest.fixture(scope="class")
def live_server():
    server = TuningServer(port=0, namespace_statements=True).start()
    yield server
    server.stop()


class TestServerObservability:
    def test_trace_id_round_trips_client_server_result(self, live_server,
                                                       tpch):
        client = TuningClient(live_server.url)
        with trace_context("11112222333344445555666677778888") as trace_id:
            result = client.tune(_request(tpch))
        assert result.extras["trace"]["trace_id"] == trace_id
        assert result.extras["trace"]["root"]["name"] == "tune"

    def test_metrics_endpoint_serves_prometheus_text(self, live_server, tpch):
        TuningClient(live_server.url).tune(_request(tpch))
        time.sleep(0.2)  # the handler's finally may still be recording
        request = Request(live_server.url + "/v1/metrics",
                          headers={TRACE_HEADER: "scrape-1"})
        with urlopen(request) as response:
            assert response.headers["Content-Type"] == METRICS_CONTENT_TYPE
            assert response.headers[TRACE_HEADER] == "scrape-1"
            text = response.read().decode("utf-8")
        _assert_valid_exposition(text)
        assert 'repro_requests_total{advisor="cophy"' in text
        assert 'repro_http_requests_total{endpoint="/v1/tune"' in text
        assert "repro_solver_solves_total" in text
        assert 'repro_cache_events_total{cache="schema_payload"' in text

    def test_unknown_paths_collapse_to_one_endpoint_label(self, live_server):
        with pytest.raises(Exception):
            urlopen(live_server.url + "/v1/no-such-endpoint")
        time.sleep(0.2)
        snap = live_server.service.tuner.metrics.snapshot()
        assert snap["repro_http_requests_total"].get(
            ("unknown", "GET", "404"), 0.0) >= 1.0

    def test_endpoint_pattern_bounds_cardinality(self):
        assert _endpoint_pattern("POST", "/v1/tune") == "/v1/tune"
        assert _endpoint_pattern("POST", "/v1/sessions/s42/tune") \
            == "/v1/sessions/{id}/tune"
        assert _endpoint_pattern("DELETE", "/v1/sessions/s42") \
            == "/v1/sessions/{id}"
        assert _endpoint_pattern("GET", "/etc/passwd") == "unknown"
        assert _endpoint_pattern("GET", "/v1/sessions/a/b/c") == "unknown"
