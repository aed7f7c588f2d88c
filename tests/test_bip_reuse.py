"""One BIP per workload: requests that change only their constraints solve on
the schema context's Theorem-1 BIP instead of rebuilding it.

The contract pinned here, on one TPC-H workload through one ``Tuner``:

* the reused BIP is *left as found* by every kind of request — each hard
  constraint kind, a soft constraint, a budgeted cascade, the relaxation and
  an infeasible constraint set;
* every answer's fingerprint equals a fresh ``Tuner``'s that holds the same
  templates but builds its own BIP, and a repeat is a memo hit;
* anything but the exact ordered candidate tuple misses and rebuilds;
* interactive sessions and ``build_bip`` keep private BIPs.
"""

from __future__ import annotations

import pytest

from repro.api import AdvisorSpec, Tuner, TuningRequest, TuningService, make_advisor
from repro.core.constraints import (
    ClusteredIndexConstraint,
    ComparisonSense,
    IndexCountConstraint,
    IndexWidthConstraint,
    QueryCostConstraint,
    QuerySpeedupGenerator,
    StorageBudgetConstraint,
    UpdateCostConstraint,
)
from repro.exceptions import InfeasibleProblemError
from repro.indexes.candidate_generation import CandidateGenerator
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.generators import generate_homogeneous_workload
from repro.workload.query import StatementKind
from tests.conftest import assert_left_as_found, model_state


@pytest.fixture(scope="module")
def workload():
    workload = generate_homogeneous_workload(8, seed=3, update_fraction=0.25)
    assert any(s.query.kind is StatementKind.UPDATE for s in workload)
    return workload


@pytest.fixture(scope="module")
def hard(tpch, workload):
    """One instance of every hard constraint kind, each satisfiable alone."""
    inum = InumCache(WhatIfOptimizer(tpch))
    selects = [s.query for s in workload
               if s.query.kind is StatementKind.SELECT]
    unindexed = {query.name: inum.statement_cost(query, Configuration(()))
                 for query in selects}
    return {
        "storage_budget": StorageBudgetConstraint.from_fraction_of_data(
            tpch, 0.5),
        "index_count": IndexCountConstraint(limit=3),
        "index_count_at_least": IndexCountConstraint(
            limit=1, sense=ComparisonSense.AT_LEAST),
        "index_width": IndexWidthConstraint(max_columns=2),
        "clustered_index": ClusteredIndexConstraint(),
        "query_cost": QueryCostConstraint(
            query=selects[0], reference_cost=unindexed[selects[0].name],
            factor=0.9),
        "speedup_generator": QuerySpeedupGenerator(unindexed, factor=1.0),
        "update_cost": UpdateCostConstraint(limit=1e6),
    }


def _request(tpch, workload, *constraints, **kwargs) -> TuningRequest:
    return TuningRequest(workload=workload, schema=tpch,
                         constraints=list(constraints), **kwargs)


def _infeasible():
    return (StorageBudgetConstraint(0.0),
            IndexCountConstraint(limit=1, sense=ComparisonSense.AT_LEAST))


def _primed(tpch, workload) -> Tuner:
    """A new Tuner whose context already holds the workload's templates and
    tensor but no BIP, so its call counts are those of a warm context: a
    fingerprint counts the template builds a request made."""
    tuner = Tuner()
    context = tuner.context_for(tpch)
    canonical = context.canonical_workload(workload)
    with context.lock:
        context.inum.prepare(
            canonical, context.candidate_generator.generate(canonical))
    return tuner


def _fresh(request: TuningRequest) -> str:
    """The fingerprint of ``request`` on a primed Tuner that builds its BIP."""
    tuner = _primed(request.schema, request.workload)
    fingerprint = tuner.tune(request).fingerprint()
    assert _bip_events(tuner) == (0.0, 1.0)
    return fingerprint


def _bip_events(tuner: Tuner) -> tuple[float, float]:
    """``(hits, misses)`` of the per-workload BIP so far."""
    events = tuner.metrics.snapshot().get("repro_cache_events_total", {})
    return events.get(("bip", "hit"), 0.0), events.get(("bip", "miss"), 0.0)


class TestLeftAsFound:
    def test_every_request_kind_leaves_the_reused_bip_as_found(
            self, tpch, workload, hard):
        tuner = Tuner()
        bip = tuner.tune(_request(tpch, workload)).extras["bip"]
        before = model_state(bip)
        requests = {name: _request(tpch, workload, constraint)
                    for name, constraint in hard.items()}
        requests["soft"] = _request(
            tpch, workload, hard["storage_budget"].soft(target=0.0))
        requests["cascade"] = _request(
            tpch, workload, hard["storage_budget"],
            advisor=AdvisorSpec("cophy", time_budget_ms=600_000,
                                solve_tier="cascade"))
        requests["relaxation"] = _request(
            tpch, workload, hard["storage_budget"],
            advisor=AdvisorSpec("cophy", options={"apply_relaxation": True}))
        results = {}
        for name, request in requests.items():
            results[name] = tuner.tune(request)
            assert results[name].extras["bip"] is bip, name
            assert_left_as_found(bip, before)
        assert "pareto_points" in results["soft"].extras
        assert results["cascade"].diagnostics.solve_tier == "cascade"
        assert "heuristic" in results["cascade"].extras
        hits, _ = _bip_events(tuner)
        with pytest.raises(InfeasibleProblemError):
            tuner.tune(_request(tpch, workload, *_infeasible()))
        assert _bip_events(tuner)[0] == hits + 1
        assert_left_as_found(bip, before)


class TestSameAnswers:
    def test_constraint_changes_answer_like_a_fresh_tuner(
            self, tpch, workload, hard):
        a = _request(tpch, workload, hard["storage_budget"])
        b = _request(tpch, workload, hard["index_count"],
                     hard["clustered_index"])
        c = _request(tpch, workload, hard["speedup_generator"],
                     hard["index_width"])
        infeasible = _request(tpch, workload, *_infeasible())
        tuner = _primed(tpch, workload)
        first = tuner.tune(a)
        assert first.fingerprint() == _fresh(a)
        assert _bip_events(tuner) == (0.0, 1.0)
        assert tuner.tune(b).fingerprint() == _fresh(b)
        for target in (tuner, _primed(tpch, workload)):
            with pytest.raises(InfeasibleProblemError):
                target.tune(infeasible)
        hits, misses = _bip_events(tuner)
        again = tuner.tune(a)
        assert _bip_events(tuner) == (hits + 1, misses)
        assert again.extras["bip"] is first.extras["bip"]
        assert again.fingerprint() == first.fingerprint()
        assert tuner.tune(c).fingerprint() == _fresh(c)
        assert _bip_events(tuner) == (4.0, 1.0)


class TestMisses:
    def test_reordered_renamed_or_added_candidates_rebuild(
            self, tpch, workload, hard):
        candidates = list(CandidateGenerator(tpch).generate(workload))
        dba = Index("lineitem", ("l_shipmode", "l_comment"))
        assert dba not in candidates
        # Equal to the generated indexes, but named otherwise: names name
        # the recommendation, so they are part of the tag.
        renamed = [Index(index.table, index.key_columns,
                         index.include_columns, index.clustered,
                         name=f"dba_{position}")
                   for position, index in enumerate(candidates)]
        assert renamed == candidates
        requests = [
            _request(tpch, workload, hard["storage_budget"],
                     candidates=tuple(candidates)),
            _request(tpch, workload, hard["storage_budget"],
                     candidates=tuple(renamed)),
            _request(tpch, workload, hard["storage_budget"],
                     candidates=tuple(reversed(candidates))),
            _request(tpch, workload, hard["storage_budget"],
                     candidates=tuple(reversed(candidates)),
                     dba_indexes=(dba,)),
        ]
        tuner = _primed(tpch, workload)
        bips = []
        for position, request in enumerate(requests, start=1):
            result = tuner.tune(request)
            assert _bip_events(tuner) == (0.0, float(position))
            assert result.fingerprint() == _fresh(request)
            bips.append(result.extras["bip"])
        assert len({id(bip) for bip in bips}) == len(requests)
        # An equal set in another order is another column order.
        first, reordered = (list(bips[position].z_columns)
                            for position in (0, 2))
        assert first == candidates and reordered == candidates[::-1]
        assert dba in bips[3].z_columns


class TestSessionsStayPrivate:
    @staticmethod
    def _session(service, request, candidates, hard):
        """A session's recommend / add / remove / update steps."""
        session = service.open_session(request)
        steps = [session.recommend(),
                 session.add_candidates(candidates[-3:]),
                 session.remove_candidates(candidates[:2]),
                 session.update_constraints([hard["index_count"]])]
        return session, steps

    def test_sessions_and_build_bip_never_touch_the_memo(
            self, tpch, workload, hard):
        candidates = list(CandidateGenerator(tpch).generate(workload))
        request = _request(tpch, workload, hard["storage_budget"],
                           candidates=tuple(candidates[:-3]))
        tuner = Tuner()
        service = TuningService(tuner)
        first = service.tune(request)
        session, steps = self._session(service, request, candidates, hard)
        last = service.tune(request)
        assert _bip_events(tuner) == (1.0, 1.0)
        memo = first.extras["bip"]
        assert last.extras["bip"] is memo

        context = service.context_for(tpch)
        advisor = make_advisor("cophy", tpch,
                               shared_optimizer=context.optimizer,
                               shared_inum=context.inum)
        with context.lock:
            built = advisor.build_bip(context.canonical_workload(workload),
                                      advisor.generate_candidates(workload))
        assert session.inner.bip is not memo and built is not memo
        assert _bip_events(tuner) == (1.0, 1.0)

        assert first.fingerprint() == last.fingerprint() == _fresh(request)
        _, fresh_steps = self._session(TuningService(Tuner()), request,
                                       candidates, hard)
        assert ([step.fingerprint() for step in steps]
                == [step.fingerprint() for step in fresh_steps])
