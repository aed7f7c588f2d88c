"""Contracts on the running code: the shared INUM cache's lock, the pickle
boundary, the fault sites and the observability rings.

Each test drives the paths a contract governs and checks it where it
matters — on the call, across a process with another hash seed, at the
moment a fault fires, on the ring after an overflow:

* every call on a schema context's INUM cache, and on the tensors and
  matrices it hands out, runs with that context's lock held by the
  calling thread;
* every type that crosses the process pool keys dict lookups in a child
  interpreter under another ``PYTHONHASHSEED``, against keys the child
  builds itself;
* every member of ``FAULT_SITES`` fires on some driven path, before any of
  the work it guards, and no check names a site outside it;
* every recorder in ``repro.obs`` stays at its capacity bound.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.api.service
import repro.api.tuner
import repro.obs
import repro.scale.executor
from repro.api import (AdvisorSpec, CostingSpec, Tuner, TuningRequest,
                       TuningService)
from repro.api.tuner import SchemaContext
from repro.core.constraints import IndexCountConstraint, StorageBudgetConstraint
from repro.exceptions import ReproError
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.inum.gamma_matrix import QueryGammaMatrix
from repro.inum.template_plan import TemplatePlan
from repro.inum.workload_tensor import QueryTensorView, WorkloadGammaTensor
from repro.obs.store import TraceStore
from repro.optimizer.access_paths import AccessPathSelector
from repro.optimizer.whatif import WhatIfOptimizer
from repro.reliability.faults import (FAULT_SITES, FaultPlan, FaultRule,
                                      InjectedFault, armed)
from repro.scale.executor import ShardExecutor, _solve_shard_job
from repro.scale.partition import Shard
from repro.server import TuningClient, TuningServer
from repro.server.app import _TuningRequestHandler
from tests.conftest import build_simple_schema, build_simple_workload

SRC = Path(__file__).resolve().parent.parent / "src"


def _request(schema, workload, spec=None, **fields):
    budget = StorageBudgetConstraint.from_fraction_of_data(schema, 1.0)
    return TuningRequest(workload=workload, schema=schema,
                         constraints=[budget], advisor=spec, **fields)


# ------------------------------------------------------------- context lock
_CACHE_TYPES = (InumCache, WorkloadGammaTensor, QueryGammaMatrix,
                QueryTensorView)


class _LockAudit:
    """Wraps every public method of the cache types.  A call on a schema
    context's cache, or on a tensor, matrix or view that cache (or one of
    its handed-out objects) returned, must find that context's lock held by
    the calling thread.  Caches no context owns — a worker's — are skipped.
    """

    def __init__(self, monkeypatch):
        self.owners: dict[int, tuple[object, SchemaContext]] = {}
        self.reached: set[str] = set()
        self.unlocked: list[str] = []
        init = SchemaContext.__init__

        def owned_init(context, *args, **kwargs):
            init(context, *args, **kwargs)
            self.owners[id(context.inum)] = (context.inum, context)

        monkeypatch.setattr(SchemaContext, "__init__", owned_init)
        for cls in _CACHE_TYPES:
            for name, method in list(vars(cls).items()):
                if inspect.isfunction(method) and not name.startswith("_"):
                    monkeypatch.setattr(cls, name,
                                        self._audited(cls, name, method))

    def _audited(self, cls, name, method):
        @functools.wraps(method)
        def audited(obj, *args, **kwargs):
            owner = self.owners.get(id(obj))
            context = owner[1] if owner and owner[0] is obj else None
            if context is not None:
                self.reached.add(f"{cls.__name__}.{name}")
                if not context.lock._lock._is_owned():
                    self.unlocked.append(f"{cls.__name__}.{name} on "
                                         f"{threading.current_thread().name}")
            result = method(obj, *args, **kwargs)
            if context is not None and isinstance(result, _CACHE_TYPES):
                self.owners[id(result)] = (result, context)
            return result
        return audited


def test_every_cache_call_holds_its_context_lock(monkeypatch, simple_schema,
                                                 simple_workload):
    audit = _LockAudit(monkeypatch)
    request = functools.partial(_request, simple_schema, simple_workload)
    specs = [AdvisorSpec(name) for name in ("cophy", "ilp", "dta",
                                            "relaxation")]
    specs += [AdvisorSpec("scaleout", {"shard_workers": 1}),
              AdvisorSpec("cophy", solve_tier="cascade"),
              AdvisorSpec("cophy", solve_tier="heuristic")]
    extra = Index("items", ("i_shipdate",), include_columns=("i_price",))

    with TuningService(max_workers=2) as service, \
            TuningServer(service) as server:
        def session():
            steps = service.open_session(request())
            budget = request().constraints[0]
            return [steps.recommend(),
                    steps.update_constraints(
                        [budget, IndexCountConstraint(limit=2)]),
                    steps.add_candidates([extra]),
                    steps.remove_candidates([extra])]

        jobs = [functools.partial(service.tune, request(spec))
                for spec in specs]
        jobs += [session,
                 functools.partial(service.tune_many,
                                   [request(spec) for spec in specs[:3]]),
                 functools.partial(TuningClient(server.url).tune, request())]
        with ThreadPoolExecutor(4) as threads:
            for future in [threads.submit(job) for job in jobs]:
                future.result()

    assert audit.unlocked == []
    reached = {name.split(".", 1)[1] for name in audit.reached
               if name.startswith("InumCache.")}
    assert {"prepare", "build", "build_workload", "adopt_built",
            "workload_tensor", "workload_memo", "gamma_matrix",
            "statement_costs", "workload_cost"} <= reached, reached
    assert any(name.startswith(("WorkloadGammaTensor.", "QueryTensorView."))
               for name in audit.reached)


def _unlocked_context(monkeypatch):
    audit = _LockAudit(monkeypatch)
    context = SchemaContext(build_simple_schema(), CostingSpec())
    workload = build_simple_workload()
    return (audit, context, workload,
            context.candidate_generator.generate(workload))


def test_lock_audit_flags_an_unlocked_cache_call(monkeypatch):
    audit, context, workload, candidates = _unlocked_context(monkeypatch)
    context.inum.prepare(workload, candidates)
    assert audit.unlocked[0] == "InumCache.prepare on MainThread"


def test_lock_audit_accepts_locked_and_process_local_calls(monkeypatch):
    audit, context, workload, candidates = _unlocked_context(monkeypatch)
    with context.lock:
        context.inum.prepare(workload, candidates)
    InumCache(context.optimizer).prepare(workload, candidates)
    assert "InumCache.prepare" in audit.reached
    assert audit.unlocked == []


def test_lock_audit_flags_an_unlocked_workload_memo(monkeypatch):
    # The memo hands one BIP to every request of a workload, and the tensor
    # beside it is shared the same way: both stay behind the context lock.
    audit, context, workload, candidates = _unlocked_context(monkeypatch)
    with context.lock:
        context.inum.prepare(workload, candidates)
        tensor = context.inum.workload_tensor(workload)
    context.inum.workload_memo(workload, "tag", dict)
    tensor.has_columns(candidates)
    assert audit.unlocked == ["InumCache.workload_memo on MainThread",
                              "WorkloadGammaTensor.has_columns on MainThread"]


# ------------------------------------------------------------ pickle boundary
#: Run in a child interpreter under another hash seed: every shipped key
#: map is probed with keys the child builds itself.
_CHILD = r"""
import json, pickle, sys
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.template_plan import TemplatePlan
from repro.scale.executor import _solve_shard_job

bundle = pickle.load(sys.stdin.buffer)
index_of = lambda items: {item: n for n, item in enumerate(items)}
fresh = lambda i: Index(i.table, i.key_columns, i.include_columns, i.clustered)
templates = lambda ts: [TemplatePlan(t.query_name, t.order_requirements,
                                     t.internal_cost) for t in ts]
result = bundle["result"]
json.dump({
    "Index": [bundle["index_map"].get(fresh(i), -1)
              for i in bundle["indexes"]],
    "Configuration": [bundle["configuration_map"].get(
        Configuration(map(fresh, c)), -1) for c in bundle["configurations"]],
    "TemplatePlan": [bundle["template_map"].get(t, -1)
                     for t in templates(bundle["templates"])],
    "QueryGammaMatrix": [bundle["matrix"].column_of(fresh(i))
                         for i in bundle["indexes"]],
    "ShardResult": [
        [index_of(result.indexes).get(fresh(i), -1) for i in result.indexes],
        [[matrix.column_of(fresh(i)) for i in matrix.registered_indexes]
         + [index_of(shipped).get(t, -1) for t in templates(shipped)]
         for _, shipped, matrix in result.built]],
    "shard job": [i.name for i in _solve_shard_job(bundle["job"]).indexes],
}, sys.stdout)
"""


def test_pool_types_key_lookups_under_another_hash_seed(tpch):
    from repro.workload.generators import generate_homogeneous_workload

    workload = generate_homogeneous_workload(6, seed=4, update_fraction=0.3)
    candidates = CandidateGenerator(tpch).generate(workload)
    inum = InumCache(WhatIfOptimizer(tpch))
    inum.prepare(workload, candidates)
    query = max((s.query for s in workload), key=lambda q: len(q.tables))
    matrix = inum.gamma_matrix(query)
    indexes = [index for index in candidates if index.table in query.tables]
    configurations = [Configuration(indexes[:size]) for size in (0, 1, 3)]
    shard = Shard(position=0, workload=workload, candidates=tuple(candidates),
                  statement_positions=tuple(range(len(workload))),
                  budget_bytes=None)
    job = ShardExecutor(gap_tolerance=0.0)._shard_job(
        shard, tpch, InumCache(WhatIfOptimizer(tpch)), inum.enumeration_caps,
        None, FaultPlan(), 1)
    result = _solve_shard_job(job)
    assert result.built
    index_of = lambda items: {item: n for n, item in enumerate(items)}
    bundle = {
        "indexes": indexes, "index_map": index_of(indexes),
        "configurations": configurations,
        "configuration_map": index_of(configurations),
        "templates": matrix.templates,
        "template_map": index_of(matrix.templates),
        "matrix": matrix, "job": job, "result": result,
    }
    seed = os.environ.get("PYTHONHASHSEED", "")
    seed = str(int(seed) + 1) if seed.isdigit() else "1"
    child = subprocess.run(
        [sys.executable, "-c", _CHILD], input=pickle.dumps(bundle),
        capture_output=True, check=True, cwd=SRC.parent,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed})
    positions = lambda items: list(range(len(items)))
    assert json.loads(child.stdout) == {
        "Index": positions(indexes),
        "Configuration": positions(configurations),
        "TemplatePlan": positions(matrix.templates),
        "QueryGammaMatrix": [matrix.column_of(i) for i in indexes],
        "ShardResult": [
            positions(result.indexes),
            [list(range(1, len(built.registered_indexes) + 1))
             + positions(shipped) for _, shipped, built in result.built]],
        "shard job": [index.name for index in result.indexes],
    }


def test_hash_caching_keys_ship_no_hash_and_rebuild_it():
    index = Index("orders", ("o_date",), include_columns=("o_total",))
    for key in (index, Configuration([index]),
                TemplatePlan("q1", {"orders": None}, 1.0)):
        assert "_hash" in vars(key)
        state = key.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert "_hash" not in state, type(key).__name__
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key and hash(clone) == hash(key)


# --------------------------------------------------------------- fault sites
#: The function holding each site's check: the work it guards is the rest
#: of that function.
_GUARDED = {
    "solver": [(repro.api.tuner, "tune_in_context"),
               (repro.api.service, "tune_in_context")],
    "shard_solve": [(repro.scale.executor, "_solve_shard_inline")],
    "matrix_build": [(repro.scale.executor, "_build_matrices_job")],
    "http_request": [(TuningClient, "_call")],
}


class _FaultAudit:
    """Counts guarded work — plans optimized, shells enumerated and scans
    costed in this thread, requests received by any server — and, when a
    site fires, the work done since its thread entered the function that
    holds the site's check."""

    _WORK = [(WhatIfOptimizer, "optimize_atomic"),
             (InumCache, "_enumerate_templates"),
             (AccessPathSelector, "scan_cost")]

    def __init__(self, monkeypatch):
        self._local = threading.local()
        self._requests = 0
        self.fired: list[tuple[str, tuple[int, ...] | None]] = []
        for slot, (cls, name) in enumerate(self._WORK):
            monkeypatch.setattr(cls, name,
                                self._counted(slot, getattr(cls, name)))
        dispatch = _TuningRequestHandler._dispatch

        def received(handler, method):
            self._requests += 1
            return dispatch(handler, method)

        monkeypatch.setattr(_TuningRequestHandler, "_dispatch", received)
        for site, owners in _GUARDED.items():
            entered = self._entered(site, getattr(*owners[0]))
            for owner, name in owners:
                monkeypatch.setattr(owner, name, entered)
        check = FaultPlan.check

        def audited_check(plan, site, *args, **kwargs):
            try:
                check(plan, site, *args, **kwargs)
            except InjectedFault:
                # None when the check fired outside its site's function.
                start = self._entries().get(site)
                self.fired.append((site, start and tuple(
                    now - then for now, then in zip(self._snapshot(), start))))
                raise

        monkeypatch.setattr(FaultPlan, "check", audited_check)

    def _counts(self) -> list[int]:
        if not hasattr(self._local, "counts"):
            self._local.counts = [0] * len(self._WORK)
        return self._local.counts

    def _entries(self) -> dict:
        if not hasattr(self._local, "entries"):
            self._local.entries = {}
        return self._local.entries

    def _snapshot(self) -> tuple[int, ...]:
        return (*self._counts(), self._requests)

    def _counted(self, slot, function):
        @functools.wraps(function)
        def counted(*args, **kwargs):
            self._counts()[slot] += 1
            return function(*args, **kwargs)
        return counted

    def _entered(self, site, function):
        @functools.wraps(function)
        def entered(*args, **kwargs):
            entries = self._entries()
            outer = entries.get(site)
            entries[site] = self._snapshot()
            try:
                return function(*args, **kwargs)
            finally:
                entries[site] = outer
        return entered


@pytest.fixture(scope="module")
def fault_sweep():
    """Arms a ``raise`` rule per fault site over five driven paths; yields
    the audit's fired sites and every site any check named."""
    schema, workload = build_simple_schema(), build_simple_workload()
    request = functools.partial(_request, schema, workload)
    candidates = CandidateGenerator(schema).generate(workload)
    drives = [
        lambda: Tuner().tune(request(AdvisorSpec("cophy"),
                                     candidates=candidates)),
        lambda: Tuner().tune(request(AdvisorSpec("scaleout",
                                                 {"shard_workers": 1}))),
        lambda: Tuner().tune(request(AdvisorSpec("scaleout",
                                                 {"shard_workers": 2}))),
        lambda: Tuner().tune(request(costing=CostingSpec(build_processes=2))),
    ]
    checked: set[str] = set()
    with pytest.MonkeyPatch.context() as monkeypatch:
        audit = _FaultAudit(monkeypatch)
        # Shard solves and matrix builds run their worker functions in one
        # thread of this process, where the audit can see them.
        monkeypatch.setattr(repro.scale.executor, "ProcessPoolExecutor",
                            lambda max_workers=None: ThreadPoolExecutor(1))
        with TuningServer() as server:
            drives.append(lambda: TuningClient(server.url).tune(request()))
            for site in FAULT_SITES:
                plan = FaultPlan([FaultRule(site, "raise")])
                with armed(plan):
                    for drive in drives:
                        with contextlib.suppress(ReproError):
                            drive()
                checked |= set(plan.counters()["checks"])
    return audit.fired, checked


def test_every_fault_site_fires_before_the_work_it_guards(fault_sweep):
    fired, _ = fault_sweep
    assert {site for site, _ in fired} == set(FAULT_SITES)
    assert [(site, work) for site, work in fired
            if work != (0, 0, 0, 0)] == []


def test_every_fault_check_names_a_known_site(fault_sweep):
    _, checked = fault_sweep
    assert checked == set(FAULT_SITES)


# -------------------------------------------------------------- bounded rings
#: How to build each ``repro.obs`` recorder small and record into it.
_RECORDERS = {
    TraceStore: (
        lambda: TraceStore(capacity=4, slow_threshold_ms=0.0, slow_capacity=2),
        lambda store, n: store.record({"trace_id": f"t{n}",
                                       "root": {"duration_ms": 1.0}})),
}


def _capacities(recorder) -> list[int]:
    return [value for name, value in vars(recorder).items()
            if "capacity" in name]


def test_every_obs_recorder_declares_a_capacity():
    found = set()
    for module in pkgutil.iter_modules(repro.obs.__path__, "repro.obs."):
        for _, cls in inspect.getmembers(importlib.import_module(module.name),
                                         inspect.isclass):
            if cls.__module__ == module.name and hasattr(cls, "record"):
                found.add(cls)
    assert found == set(_RECORDERS)
    for make, _ in _RECORDERS.values():
        bounds = _capacities(make())
        assert bounds and all(bound >= 1 for bound in bounds)


def test_obs_recorders_stay_at_their_capacity():
    for make, record in _RECORDERS.values():
        recorder = make()
        bounds = _capacities(recorder)
        for n in range(10 * max(bounds)):
            record(recorder, n)
        rings = [len(value) for value in vars(recorder).values()
                 if isinstance(value, (dict, list, set, deque))]
        assert sorted(rings) == sorted(bounds)


def test_obs_recorder_rings_keep_the_newest_entries():
    store = TraceStore(capacity=4, slow_threshold_ms=30.0, slow_capacity=2)
    # Traces t0..t10 are slow: the slow ring keeps its newest two of them.
    for n in range(40):
        store.record({"trace_id": f"t{n}", "root": {"duration_ms": 40 - n}})
    kept = [row["trace_id"] for row in store.summaries()]
    assert kept == ["t39", "t38", "t37", "t36", "t10", "t9"]
    assert store.stats()["evicted"] == 36
    assert store.get("t35") is None


def test_tuner_trace_store_stays_at_capacity_across_requests():
    request = functools.partial(
        _request, build_simple_schema(), build_simple_workload(),
        AdvisorSpec("cophy", solve_tier="heuristic"))
    tuner = Tuner(trace_store_size=2)
    for _ in range(6):
        tuner.tune(request())
    stats = tuner.trace_store.stats()
    assert (stats["recorded"], stats["size"], stats["evicted"]) == (6, 2, 4)
