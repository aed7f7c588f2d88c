"""Figure 5 — CoPhy vs. ILP execution time as the candidate set grows.

Paper values (seconds, W_hom_1000), broken into INUM / build / solve:

    |S| = 500:    ILP 1560   CoPhy 301
    |S| = 1000:   ILP 1753   CoPhy 331
    |S| = 1933:   ILP 2419   CoPhy 479
    |S| = 10000:  ILP 8162   CoPhy 730

Reproduced shape: ILP's total time is dominated by the build phase (pruning
and costing candidate atomic configurations) and grows much faster with |S|
than CoPhy's; CoPhy is clearly faster from SALL on.  At S500 the
reproduction's ILP ties CoPhy (both take about 0.1 s, against the paper's
1,560 s and 301 s): the sets are small enough that ILP's pruning keeps
little more than CoPhy's program.  No clock margin is asserted there;
instead ILP's program is asserted larger than CoPhy's, the deterministic
work behind the paper's gap.  The candidate-set sizes are scaled to the
reduced workload: fractions of the full CGen output plus a padded set with
random extra indexes.
"""

from __future__ import annotations

import random

from benchmarks.conftest import SEED, WORKLOAD_SIZES, make_schema, print_report, storage_budget
from repro.api import make_advisor
from repro.bench.reporting import format_table
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.index import Index
from repro.workload.generators import generate_homogeneous_workload

_PAPER_SECONDS = {"S500": (1560, 301), "S1000": (1753, 331),
                  "SALL": (2419, 479), "SL": (8162, 730)}


def _padded_candidates(schema, base: CandidateSet, extra: int, seed: int) -> list[Index]:
    """SALL plus `extra` random single/two-column indexes (the paper's S_L)."""
    rng = random.Random(seed)
    indexes = list(base)
    tables = [t for t in schema if len(t.columns) >= 2]
    while len(indexes) < len(base) + extra:
        table = rng.choice(tables)
        columns = rng.sample([c.name for c in table.columns],
                             k=rng.randint(1, min(2, len(table.columns))))
        candidate = Index(table.name, tuple(columns))
        if candidate not in indexes:
            indexes.append(candidate)
    return indexes


def _run_fig5():
    schema = make_schema(0.0)
    budget = storage_budget(schema, 1.0)
    workload = generate_homogeneous_workload(WORKLOAD_SIZES[1000], seed=SEED)

    probe = make_advisor("cophy", schema)
    full = probe.generate_candidates(workload)
    all_indexes = list(full)
    candidate_sets = {
        "S500": CandidateSet(schema, all_indexes[: max(10, len(all_indexes) // 4)]),
        "S1000": CandidateSet(schema, all_indexes[: max(20, len(all_indexes) // 2)]),
        "SALL": CandidateSet(schema, all_indexes),
        "SL": CandidateSet(schema, _padded_candidates(schema, full,
                                                      len(all_indexes), SEED)),
    }

    rows = []
    totals: dict[str, dict[str, float]] = {"cophy": {}, "ilp": {}}
    builds: dict[str, dict[str, float]] = {"cophy": {}, "ilp": {}}
    #: BIP size per advisor and set: ``(variables, constraints)``.
    sizes: dict[str, dict[str, tuple[int, int]]] = {"cophy": {}, "ilp": {}}
    for label, candidates in candidate_sets.items():
        cophy = make_advisor("cophy", schema).tune(workload, [budget],
                                          candidates=candidates)
        ilp = make_advisor("ilp", schema).tune(workload, [budget], candidates=candidates)
        sizes["cophy"][label] = tuple(
            int(cophy.extras["bip_statistics"][key])
            for key in ("variables", "constraints"))
        sizes["ilp"][label] = (ilp.extras["variables"],
                               ilp.extras["constraints"])
        for name, recommendation in (("cophy", cophy), ("ilp", ilp)):
            totals[name][label] = recommendation.total_seconds
            builds[name][label] = recommendation.timings.get("build", 0.0)
            paper_ilp, paper_cophy = _PAPER_SECONDS[label]
            rows.append({
                "candidate set": label,
                "|S|": len(candidates),
                "advisor": name,
                "paper seconds": paper_ilp if name == "ilp" else paper_cophy,
                "measured s": round(recommendation.total_seconds, 2),
                "inum s": round(recommendation.timings.get("inum", 0.0), 2),
                "build s": round(recommendation.timings.get("build", 0.0), 2),
                "solve s": round(recommendation.timings.get("solve", 0.0), 2),
                "variables": sizes[name][label][0],
                "constraints": sizes[name][label][1],
            })
    return rows, totals, builds, sizes


def test_fig5_ilp_vs_candidate_set_size(benchmark):
    rows, totals, builds, sizes = benchmark.pedantic(_run_fig5, rounds=1,
                                                     iterations=1)
    print_report("Figure 5: CoPhy vs ILP across candidate-set sizes",
                 format_table(rows))

    # At S500 the two totals are a tie of about 0.1 s each, which load
    # decides either way; the work is not a tie: ILP's program holds one
    # variable per kept atomic configuration, and more rows than CoPhy's.
    cophy_variables, cophy_rows = sizes["cophy"]["S500"]
    ilp_variables, ilp_rows = sizes["ilp"]["S500"]
    assert ilp_variables > cophy_variables
    assert ilp_rows > 1.5 * cophy_rows
    for label in ("S1000", "SALL", "SL"):
        # CoPhy is never slower than ILP (a generous tie margin for timing
        # noise: the INUM phase the two advisors share dominates the
        # smaller sets).
        assert totals["cophy"][label] <= totals["ilp"][label] * 1.5
    for label in ("SALL", "SL"):
        # At realistic candidate-set sizes CoPhy is strictly, clearly faster.
        assert totals["cophy"][label] < 0.8 * totals["ilp"][label]
    # ILP's time is dominated by the build (pruning) phase at the largest size.
    assert builds["ilp"]["SL"] > 0.5 * totals["ilp"]["SL"]
    # The gap widens as the candidate set grows.
    assert (totals["ilp"]["SL"] / totals["cophy"]["SL"]
            >= 0.8 * totals["ilp"]["S500"] / totals["cophy"]["S500"])
