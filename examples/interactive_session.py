"""Interactive tuning (section 4.2 / Figure 6(b) of the paper).

A DBA explores the design space incrementally: open a session on the tuning
service, get an initial recommendation, add hand-picked candidate indexes and
re-tune, then tighten the constraints and re-tune again.  Re-tuning reuses
INUM's cache and extends the existing BIP with a delta instead of rebuilding
it, so it is much cheaper than the initial run — and because the session
lives on the service, it shares the schema's cache with every other request
the service is fielding.

Run with:  python examples/interactive_session.py
"""

from __future__ import annotations

from repro import (
    Index,
    IndexCountConstraint,
    StorageBudgetConstraint,
    TuningRequest,
    TuningService,
)
from repro.catalog import tpch_schema
from repro.workload import generate_homogeneous_workload


def describe(step: str, result) -> None:
    timings = result.diagnostics.timings
    print(f"{step:<28} indexes={result.index_count:<3} "
          f"objective={result.objective_estimate:12.1f}  "
          f"total={timings['total']:6.3f}s "
          f"(inum={timings.get('inum', 0.0):.3f}s, "
          f"build={timings.get('build', 0.0):.3f}s, "
          f"solve={timings.get('solve', 0.0):.3f}s)")


def main() -> None:
    schema = tpch_schema(scale_factor=0.01)
    workload = generate_homogeneous_workload(40, seed=3)
    budget = StorageBudgetConstraint.from_fraction_of_data(schema, 1.0)

    service = TuningService()
    session = service.open_session(TuningRequest(
        workload=workload, schema=schema, constraints=[budget],
        request_id="interactive-demo"))

    # Step 1: the initial recommendation (full INUM + BIP build + solve).
    initial = session.recommend()
    describe("initial recommendation", initial)

    # Step 2: the DBA suspects covering indexes on lineitem would help and
    # adds a few hand-crafted candidates (the paper's S_DBA).
    dba_candidates = [
        Index("lineitem", ("l_shipdate",),
              include_columns=("l_extendedprice", "l_discount", "l_quantity")),
        Index("lineitem", ("l_partkey", "l_shipdate")),
        Index("orders", ("o_orderdate",), include_columns=("o_shippriority",)),
    ]
    revised = session.add_candidates(dba_candidates)
    describe("after adding 3 candidates", revised)
    newly_used = [index for index in dba_candidates
                  if index in revised.configuration]
    print(f"  -> {len(newly_used)} of the DBA's candidates made it into X*")

    # Step 3: the DBA decides the design is too large and caps it at 10 indexes.
    capped = session.update_constraints([budget, IndexCountConstraint(limit=10)])
    describe("after capping at 10 indexes", capped)

    print("\nSession history:")
    for position, entry in enumerate(session.history, start=1):
        operation = entry.provenance["session"]["operation"]
        print(f"  run {position} ({operation}): {entry.index_count} indexes, "
              f"objective {entry.objective_estimate:.1f}, "
              f"{entry.diagnostics.timings['total']:.3f}s")


if __name__ == "__main__":
    main()
