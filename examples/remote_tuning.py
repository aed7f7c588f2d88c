"""Remote tuning: the same request served in-process and over HTTP.

Starts a ``TuningServer`` in-process (an ephemeral port, statement
auto-namespacing on), describes a tuning problem once, and serves it both
through an embedded ``TuningService`` and through ``TuningClient`` over the
wire — then asserts the two results carry *identical fingerprints*, which is
the end-to-end guarantee of the wire formats: encode → HTTP → decode → tune
is bit-for-bit the in-process pipeline.  A repeat of the request names
its schema by digest instead of re-sending it (its body is under a tenth of
the first) and still matches.  The batch endpoint and the four steps of a
remote interactive session are held to the same parity.  Also prints the
``/v1/stats`` counters (schema-context LRU, namespacing).

Run with:  python examples/remote_tuning.py
"""

from __future__ import annotations

import json

from repro import StorageBudgetConstraint, TuningRequest
from repro.api import Tuner, TuningService
from repro.catalog import tpch_schema
from repro.core.constraints import IndexCountConstraint
from repro.indexes.index import Index
from repro.server import TuningClient, TuningServer
from repro.workload import generate_homogeneous_workload


class MeasuredClient(TuningClient):
    """A ``TuningClient`` that notes the size of every body it POSTs."""

    def __init__(self, base_url: str):
        super().__init__(base_url)
        self.body_bytes: list[int] = []

    def _post(self, path, payload, **options):
        self.body_bytes.append(len(json.dumps(payload)))
        return super()._post(path, payload, **options)


def main() -> None:
    # 1. One declarative tuning problem, built exactly like quickstart.py.
    schema = tpch_schema(scale_factor=0.01)
    workload = generate_homogeneous_workload(6, seed=11)
    request = TuningRequest(
        workload=workload,
        schema=schema,
        constraints=[StorageBudgetConstraint.from_fraction_of_data(
            schema, fraction=1.0)],
        request_id="remote-tuning",
    )

    # 2. The in-process answer (the ground truth for parity): a service
    #    like the one the server fronts, so both sides see the same traffic.
    local_service = TuningService(namespace_statements=True)
    local = local_service.tune(request)

    # 3. The same request over the wire: an ephemeral in-process server and
    #    the stdlib-urllib client SDK.  ``TuningClient.tune`` accepts the
    #    same TuningRequest and returns the same TuningResult type.
    served = TuningService(Tuner(max_contexts=8), namespace_statements=True)
    with TuningServer(service=served) as server:
        client = MeasuredClient(server.url)
        health = client.health()
        print(f"Server up at {server.url}: advisors = "
              f"{', '.join(health['advisors'])}")

        remote = client.tune(request)
        assert remote.fingerprint() == local.fingerprint(), \
            "remote and local results must be bit-identical"
        print(f"Fingerprint parity: local == remote == "
              f"{remote.fingerprint()[:16]}… "
              f"({remote.index_count} indexes, objective "
              f"{remote.objective_estimate:.1f})")

        #    The schema has crossed the wire once; a repeat names it by the
        #    digest of that payload, and the server resolves it to the same
        #    schema context.
        again = client.tune(request)
        first_bytes, again_bytes = client.body_bytes[0], client.body_bytes[-1]
        assert again_bytes < 0.1 * first_bytes, \
            "a repeated request must name its schema by digest"
        local_again = local_service.tune(request)
        assert again.fingerprint() == local_again.fingerprint(), \
            "a request sent by digest must tune like the local repeat"
        print(f"Repeat by schema digest: {again_bytes:,} B instead of "
              f"{first_bytes:,} B, fingerprint still equal to the local one")

        # 4. Batched serving: the server fans tune_batch out on its thread
        #    pool (different advisors, one shared schema context).
        batch_requests = [
            TuningRequest(workload=workload, schema=schema,
                          constraints=request.constraints, advisor="cophy"),
            TuningRequest(workload=workload, schema=schema,
                          constraints=request.constraints, advisor="dta"),
        ]
        batch = client.tune_many(batch_requests)
        assert [result.fingerprint() for result in batch] == \
            [result.fingerprint()
             for result in local_service.tune_many(batch_requests)], \
            "remote and local batches must be bit-identical"
        for result in batch:
            print(f"  batch: {result.advisor_name:<22} "
                  f"{result.index_count} indexes, "
                  f"objective {result.objective_estimate:.1f}")

        # 5. A remote interactive session: delta-BIP re-tuning held
        #    server-side, driven through the SDK.  Every step fingerprints
        #    like the same step of an in-process service session.
        extra = Index("lineitem", ("l_shipdate",),
                      include_columns=("l_extendedprice",))

        def steps(session):
            return [session.recommend(),
                    session.update_constraints(
                        [*request.constraints, IndexCountConstraint(limit=3)]),
                    session.add_candidates([extra]),
                    session.remove_candidates([extra])]

        local_steps = steps(local_service.open_session(request))
        with client.open_session(request) as session:
            remote_steps = steps(session)
        assert [step.fingerprint() for step in remote_steps] == \
            [step.fingerprint() for step in local_steps], \
            "remote and local session steps must be bit-identical"
        initial, capped, grown, shrunk = remote_steps
        print(f"Session: {initial.index_count} indexes -> "
              f"{capped.index_count} under an index-count cap of 3 -> "
              f"{grown.index_count} with {extra.name} offered -> "
              f"{shrunk.index_count} once it is withdrawn "
              f"(4 of 4 step fingerprints equal the local session's)")

        # 6. Service counters: schema-context sharing, LRU eviction budget,
        #    auto-namespacing.
        stats = client.stats()
        service = stats["service"]
        print(f"Stats: {service['context_count']} schema context(s) "
              f"(cap {service['max_contexts']}), "
              f"{service['requests_served']} requests served, "
              f"{service['namespaced_requests']} namespaced, "
              f"{stats['cached_schemas']} cached schema payload(s)")

    local_service.close()
    print("Server closed; remote tuning round trip verified.")


if __name__ == "__main__":
    main()
