"""Tests for the performance-introspection layer (PR 10).

Covers the contention/profiling primitives (:mod:`repro.obs.profile`), the
queryable :class:`~repro.obs.store.TraceStore` ring (eviction order, slow
pinning, concurrent writers), histogram snapshots + quantile estimation,
the latency-SLO block in ``TuningService.stats()``, the ``/v1/traces``
endpoints end-to-end, the ``repro.obs.report`` CLI, and the acceptance
criterion that fingerprints stay bit-identical with introspection on vs off.
"""

from __future__ import annotations

import cProfile
import json
import math
import threading
import time
import tracemalloc

import pytest

from repro.api import Tuner, TuningRequest
from repro.api.service import TuningService
from repro.core.constraints import StorageBudgetConstraint
from repro.obs import report
from repro.obs.metrics import (
    MetricsRegistry,
    histogram_quantiles,
    use_registry,
)
from repro.obs.profile import (
    InstrumentedLock,
    ProfileSampler,
    drain_pending_waits,
    note_queue_wait,
)
from repro.obs.store import TraceStore
from repro.server import app as server_app
from repro.server.app import TuningServer
from repro.server.client import TuningClient
from repro.server.protocol import TuningServerError
from repro.workload.generators import generate_homogeneous_workload


def _request(schema, seed=31, statements=10, **kwargs):
    workload = generate_homogeneous_workload(statements, seed=seed)
    budget = StorageBudgetConstraint.from_fraction_of_data(schema, 1.0)
    return TuningRequest(workload=workload, schema=schema,
                         constraints=[budget], **kwargs)


def _trace(trace_id, duration_ms=1.0):
    """A minimal-but-valid trace export for store-level tests."""
    return {"trace_id": trace_id,
            "root": {"name": "tune", "duration_ms": duration_ms,
                     "attrs": {}, "children": []}}


# ------------------------------------------------------ histogram snapshots
class TestHistogramSnapshot:
    def test_buckets_are_cumulative_and_end_with_overflow(self):
        registry = MetricsRegistry()
        metric = registry.histogram("h", "test", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            metric.observe(value)
        sample = registry.snapshot()["h"][()]
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(7.0)
        assert sample["buckets"] == [[1.0, 1], [2.0, 2], [math.inf, 3]]

    def test_quantiles_interpolate_within_bucket(self):
        sample = {"count": 10, "sum": 5.0,
                  "buckets": [[1.0, 10], [math.inf, 10]]}
        p50, p90 = histogram_quantiles(sample, (0.5, 0.9))
        assert p50 == pytest.approx(0.5)
        assert p90 == pytest.approx(0.9)

    def test_quantiles_of_empty_sample_are_none(self):
        assert histogram_quantiles({"count": 0, "buckets": []},
                                   (0.5, 0.99)) == [None, None]

    def test_overflow_rank_answers_highest_finite_bound(self):
        sample = {"count": 10, "sum": 100.0,
                  "buckets": [[1.0, 0], [math.inf, 10]]}
        assert histogram_quantiles(sample, (0.5,)) == [1.0]

    def test_exemplar_in_snapshot_but_never_in_exposition(self):
        registry = MetricsRegistry()
        metric = registry.histogram("h", "test", buckets=(1.0,))
        metric.observe(0.2, exemplar="aaaabbbbccccdddd")
        metric.observe(0.9, exemplar="slowslowslowslow")
        metric.observe(0.1, exemplar="fastfastfastfast")
        sample = registry.snapshot()["h"][()]
        # slowest-wins retention
        assert sample["exemplar"]["trace_id"] == "slowslowslowslow"
        assert sample["exemplar"]["value"] == pytest.approx(0.9)
        assert "slowslowslowslow" not in registry.render()


# --------------------------------------------------------- instrumented lock
class TestInstrumentedLock:
    def test_uncontended_acquire_records_zero_wait(self):
        registry = MetricsRegistry()
        drain_pending_waits()  # isolate from earlier tests on this thread
        with use_registry(registry):
            lock = InstrumentedLock("schema_context")
            with lock:
                pass
        sample = registry.snapshot()["repro_lock_wait_seconds"][
            ("schema_context",)]
        assert sample["count"] == 1
        assert sample["sum"] == 0.0
        assert drain_pending_waits() == {}

    def test_reentrant_by_default(self):
        lock = InstrumentedLock("reentrant")
        with lock:
            with lock:
                pass  # an RLock underneath: no deadlock

    def test_nonblocking_acquire_on_held_lock_returns_false(self):
        lock = InstrumentedLock("mutex", lock=threading.Lock())
        assert lock.acquire()
        try:
            assert lock.acquire(blocking=False) is False
        finally:
            lock.release()

    def test_contended_wait_lands_in_histogram_and_thread_local(self):
        registry = MetricsRegistry()
        lock = InstrumentedLock("inum_metrics", lock=threading.Lock())
        waits_seen = {}
        lock.acquire()

        def contender():
            with use_registry(registry):
                drain_pending_waits()
                with lock:
                    pass
                waits_seen.update(drain_pending_waits())

        thread = threading.Thread(target=contender)
        thread.start()
        time.sleep(0.05)
        lock.release()
        thread.join(timeout=5)
        sample = registry.snapshot()["repro_lock_wait_seconds"][
            ("inum_metrics",)]
        assert sample["count"] == 1
        assert sample["sum"] >= 0.02
        assert waits_seen["lock_wait_s"] >= 0.02

    def test_queue_wait_accumulates_until_drained(self):
        drain_pending_waits()
        note_queue_wait(0.25)
        note_queue_wait(0.25)
        assert drain_pending_waits() == {"queue_wait_s": 0.5}
        assert drain_pending_waits() == {}


# ------------------------------------------------------------ profile sampler
class TestProfileSampler:
    def test_first_request_always_captured(self):
        sampler = ProfileSampler(every=3)
        decisions = [sampler.should_capture() for _ in range(7)]
        assert decisions == [True, False, False, True, False, False, True]

    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            ProfileSampler(every=0)
        with pytest.raises(ValueError):
            ProfileSampler(every=1, top=0)

    def test_hotspots_table_is_sorted_and_bounded(self):
        sampler = ProfileSampler(every=1, top=3)
        profile = cProfile.Profile()
        profile.enable()
        sorted([3, 1, 2] * 100)
        json.dumps({"a": list(range(50))})
        profile.disable()
        table = sampler.hotspots(profile)
        assert table["engine"] == "cProfile"
        rows = table["top"]
        assert 0 < len(rows) <= 3
        times = [row["tottime_ms"] for row in rows]
        assert times == sorted(times, reverse=True)
        assert all({"function", "file", "calls"} <= set(row) for row in rows)


# ----------------------------------------------------------------- TraceStore
class TestTraceStore:
    def test_ring_evicts_oldest_first(self):
        store = TraceStore(capacity=3)
        for index in range(5):
            store.record(_trace(f"t{index}"))
        ids = [row["trace_id"] for row in store.summaries()]
        assert ids == ["t4", "t3", "t2"]  # newest first
        assert store.get("t0") is None
        assert store.get("t1") is None
        assert store.stats()["evicted"] == 2

    def test_slow_entries_survive_recent_ring_rotation(self):
        store = TraceStore(capacity=2, slow_threshold_ms=100.0)
        store.record(_trace("slow-1", duration_ms=500.0))
        for index in range(5):
            store.record(_trace(f"fast-{index}", duration_ms=1.0))
        entry = store.get("slow-1")
        assert entry is not None and entry["slow"] is True
        assert "slow-1" in {row["trace_id"] for row in store.summaries()}
        # fast entries rotated out normally
        assert store.get("fast-0") is None

    def test_rerecording_a_trace_id_overwrites(self):
        store = TraceStore(capacity=4)
        store.record(_trace("pinned"), advisor="first")
        store.record(_trace("pinned"), advisor="second")
        assert store.get("pinned")["advisor"] == "second"
        assert len(store) == 1

    def test_summaries_limit_and_fields(self):
        store = TraceStore(capacity=8, slow_threshold_ms=None)
        store.record(_trace("a"), advisor="cophy", status="ok",
                     request_id="r-1")
        rows = store.summaries(limit=1)
        assert len(rows) == 1
        assert set(rows[0]) == {"trace_id", "advisor", "status",
                                "duration_ms", "request_id", "slow", "seq"}
        assert "trace" not in rows[0]  # span trees only on the per-id endpoint

    def test_record_rejects_traceless_payloads(self):
        store = TraceStore(capacity=2)
        assert store.record(None) is None
        assert store.record({}) is None
        assert len(store) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)
        with pytest.raises(ValueError):
            TraceStore(capacity=1, slow_capacity=0)
        with pytest.raises(ValueError):
            TraceStore(capacity=1, slow_threshold_ms=-1.0)

    def test_concurrent_writers_stay_bounded(self):
        store = TraceStore(capacity=16, slow_threshold_ms=50.0,
                           slow_capacity=4)
        errors = []

        def writer(worker):
            try:
                for index in range(50):
                    duration = 100.0 if index % 10 == 0 else 1.0
                    store.record(_trace(f"w{worker}-{index}",
                                        duration_ms=duration))
                    store.summaries(limit=5)
                    store.get(f"w{worker}-{index}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        stats = store.stats()
        assert stats["recorded"] == 8 * 50
        assert len(store) <= store.capacity + store.slow_capacity
        assert stats["slow_retained"] <= store.slow_capacity


@pytest.fixture
def stop_memory_tracking():
    """``profile_memory=True`` starts tracemalloc process-wide (deliberately
    sticky for a server); stop it afterwards so the rest of the suite does
    not pay allocation tracing."""
    yield
    if tracemalloc.is_tracing():
        tracemalloc.stop()


# -------------------------------------------------------- Tuner integration
class TestTunerIntrospection:
    def test_introspection_artefacts_on_one_request(self, tpch,
                                                    stop_memory_tracking):
        tuner = Tuner(trace_store_size=8, slow_threshold_ms=0.0,
                      profile_every=1, profile_memory=True)
        result = tuner.tune(_request(tpch))

        trace = result.extras["trace"]
        root = trace["root"]
        assert root["attrs"]["cpu_ms"] >= 0.0
        assert root["attrs"]["mem_peak_kb"] >= 0.0

        profile = result.extras["profile"]
        assert profile["engine"] == "cProfile"
        assert profile["top"], "sampled capture must produce hotspot rows"

        entry = tuner.trace_store.get(trace["trace_id"])
        assert entry is not None
        assert entry["slow"] is True  # threshold 0.0 pins everything
        assert entry["trace"]["trace_id"] == trace["trace_id"]
        assert entry["profile"]["top"]

        snapshot = tuner.metrics.snapshot()
        lock_waits = snapshot["repro_lock_wait_seconds"]
        assert ("schema_context",) in lock_waits
        assert lock_waits[("schema_context",)]["count"] > 0
        # the request latency histogram retains the trace id as exemplar
        latency = snapshot["repro_request_seconds"][("cophy",)]
        assert latency["exemplar"]["trace_id"] == trace["trace_id"]

    def test_profile_sampling_cadence(self, tpch):
        tuner = Tuner(profile_every=2)
        first = tuner.tune(_request(tpch))
        second = tuner.tune(_request(tpch))
        assert "profile" in first.extras
        assert "profile" not in second.extras

    def test_fingerprint_identical_with_introspection_on_and_off(
            self, tpch, stop_memory_tracking):
        request = _request(tpch)
        plain = Tuner(tracing=False, trace_store_size=0).tune(request)
        instrumented = Tuner(trace_store_size=8, slow_threshold_ms=0.0,
                             profile_every=1, profile_memory=True
                             ).tune(request)
        assert "profile" in instrumented.extras
        assert "trace" in instrumented.extras
        assert plain.fingerprint() == instrumented.fingerprint()

    def test_trace_store_size_zero_disables_the_store(self, tpch):
        tuner = Tuner(trace_store_size=0)
        assert tuner.trace_store is None
        result = tuner.tune(_request(tpch))  # still tunes fine
        assert result.configuration is not None

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            Tuner(trace_store_size=-1)
        with pytest.raises(ValueError):
            Tuner(profile_every=0)


# ------------------------------------------------------- service integration
class TestServiceIntrospection:
    def test_queue_wait_histogram_and_root_attribution(self, tpch):
        service = TuningService(tuner=Tuner(trace_store_size=8))
        try:
            results = service.tune_many([_request(tpch), _request(tpch)])
        finally:
            service.close()
        assert len(results) == 2
        sample = service.tuner.metrics.snapshot()[
            "repro_queue_wait_seconds"][()]
        assert sample["count"] >= 2
        store = service.tuner.trace_store
        for result in results:
            trace = result.extras["trace"]
            # every pooled request sat in the queue (possibly ~0ms)
            assert trace["root"]["attrs"]["queue_wait_ms"] >= 0.0
            # ...and its trace landed in the store from the pool thread
            assert store.get(trace["trace_id"]) is not None

    def test_stats_exposes_latency_slo_per_advisor(self, tpch):
        service = TuningService(tuner=Tuner(trace_store_size=4))
        try:
            service.tune_many([_request(tpch)])
            stats = service.stats()
        finally:
            service.close()
        slo = stats["latency_slo"]
        assert "cophy" in slo
        row = slo["cophy"]
        assert row["count"] >= 1
        assert row["p50_ms"] is not None
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
        assert row["exemplar_trace_id"]

    def test_introspection_knobs_conflict_with_explicit_tuner(self):
        """The introspection knobs belong to the Tuner alone; one passed to
        the service is a TypeError, never silently dropped."""
        for knob in ({"trace_store_size": 4}, {"slow_threshold_ms": 10.0},
                     {"profile_every": 3}):
            with pytest.raises(TypeError, match=next(iter(knob))):
                TuningService(tuner=Tuner(), **knob)


# --------------------------------------------------------- server end-to-end
@pytest.fixture(scope="class")
def introspective_server():
    server = TuningServer(service=TuningService(
        Tuner(trace_store_size=8, slow_threshold_ms=0.0, profile_every=1),
        namespace_statements=True), port=0).start()
    yield server
    server.stop()


class TestServerTraceEndpoints:
    def test_listing_then_fetching_a_stored_trace(self, introspective_server,
                                                  tpch):
        client = TuningClient(introspective_server.url)
        result = client.tune(_request(tpch))
        trace_id = result.extras["trace"]["trace_id"]

        listing = client.traces()
        assert listing["enabled"] is True
        assert listing["count"] >= 1
        assert listing["capacity"] == 8
        rows = listing["traces"]
        assert trace_id in {row["trace_id"] for row in rows}
        assert all("trace" not in row for row in rows)

        entry = client.trace(trace_id)
        assert entry["trace"]["root"]["name"] == "tune"
        assert entry["slow"] is True
        assert entry["profile"]["top"]

    def test_listing_honours_limit_param(self, introspective_server, tpch):
        client = TuningClient(introspective_server.url)
        client.tune(_request(tpch))
        client.tune(_request(tpch))
        assert len(client.traces(limit=1)["traces"]) == 1

    def test_unknown_and_evicted_ids_answer_404(self, introspective_server,
                                                tpch):
        client = TuningClient(introspective_server.url)
        with pytest.raises(TuningServerError) as excinfo:
            client.trace("0000000000000000ffffffffffffffff")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "UnknownTrace"

        # Force an eviction through the live store and check the evicted id
        # is indistinguishable from a never-recorded one.
        client.tune(_request(tpch))
        store = introspective_server.service.tuner.trace_store
        evicted_id = store.summaries()[-1]["trace_id"]
        for index in range(store.capacity + store.slow_capacity):
            store.record(_trace(f"filler-{index}", duration_ms=999.0))
        with pytest.raises(TuningServerError) as excinfo:
            client.trace(evicted_id)
        assert excinfo.value.status == 404


# ------------------------------------------------------------- report CLI
class TestReportCLI:
    def _entry(self):
        return {
            "trace_id": "feedfacefeedfacefeedfacefeedface",
            "advisor": "cophy", "status": "ok", "duration_ms": 100.0,
            "slow": True,
            "trace": {
                "trace_id": "feedfacefeedfacefeedfacefeedface",
                "root": {
                    "name": "tune", "duration_ms": 100.0,
                    "attrs": {"cpu_ms": 42.5, "queue_wait_ms": 1.25},
                    "children": [
                        {"name": "solve", "duration_ms": 75.0,
                         "attrs": {"cpu_ms": 40.0}, "children": []},
                    ],
                },
            },
            "profile": {"engine": "cProfile", "sort": "tottime",
                        "top": [{"function": "solve", "file": "solver.py:10",
                                 "calls": 3, "tottime_ms": 40.0,
                                 "cumtime_ms": 75.0}]},
        }

    def test_render_entry_shows_tree_shares_and_resources(self):
        text = report.render_entry(self._entry())
        assert "trace feedfacefeedfacefeedfacefeedface" in text
        assert "SLOW" in text
        assert "cpu_ms=42.5" in text and "queue_wait_ms=1.25" in text
        assert " 75.0%" in text  # the child's share of the root
        assert "hotspots (cProfile" in text
        assert "solver.py:10" in text

    def test_load_entry_accepts_all_three_shapes(self):
        export = self._entry()["trace"]
        assert report.load_entry(export)["trace"] is export
        assert report.load_entry(self._entry())["advisor"] == "cophy"
        wrapped = {"result": {"trace": export, "advisor": "cophy"}}
        assert report.load_entry(wrapped)["trace_id"] == export["trace_id"]
        with pytest.raises(ValueError):
            report.load_entry({"nope": 1})

    def test_main_renders_a_file(self, tmp_path, capsys):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(self._entry()), encoding="utf-8")
        assert report.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "tune" in out and "solve" in out

    def test_main_rejects_unrecognised_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}', encoding="utf-8")
        assert report.main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err


def test_server_cli_help_lists_introspection_flags(capsys):
    with pytest.raises(SystemExit):
        server_app.main(["--help"])
    out = capsys.readouterr().out
    assert "--trace-store-size" in out
    assert "--slow-threshold-ms" in out
    assert "--profile-every" in out
