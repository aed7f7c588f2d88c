"""Tests for TuningResult: determinism, JSON round-trips, fingerprints."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    AdvisorSpec,
    Tuner,
    TuningRequest,
    TuningResult,
)
from repro.api.result import StatementCost, TuningDiagnostics
from repro.core.constraints import StorageBudgetConstraint
from repro.core.solver import SolverBackend
from repro.indexes.configuration import Configuration
from repro.workload.generators import generate_homogeneous_workload


def _seeded_request(schema, seed=31, statements=10, **kwargs):
    """A fully seeded request — two builds must tune identically."""
    workload = generate_homogeneous_workload(statements, seed=seed)
    budget = StorageBudgetConstraint.from_fraction_of_data(schema, 1.0)
    return TuningRequest(workload=workload, schema=schema,
                         constraints=[budget], **kwargs)


class TestDeterminism:
    @pytest.mark.parametrize("advisor", ["cophy", "dta", "tool-a"])
    def test_same_seed_same_payload(self, tpch, advisor):
        """Same seed ⇒ identical result payload (wall-clock excluded)."""
        first = Tuner().tune(_seeded_request(tpch, advisor=advisor))
        second = Tuner().tune(_seeded_request(tpch, advisor=advisor))
        assert first.fingerprint() == second.fingerprint()
        assert first.configuration == second.configuration
        assert first.statement_costs == second.statement_costs
        assert first.objective_estimate == second.objective_estimate

    def test_different_seed_changes_the_fingerprint(self, tpch):
        first = Tuner().tune(_seeded_request(tpch, seed=31))
        other = Tuner().tune(_seeded_request(tpch, seed=32))
        assert first.fingerprint() != other.fingerprint()

    def test_fingerprint_ignores_wall_clock_fields(self, tpch):
        result = Tuner().tune(_seeded_request(tpch))
        before = result.fingerprint()
        result.diagnostics.timings["facade.total"] = 123.456
        assert result.fingerprint() == before


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, simple_schema,
                                             simple_workload):
        budget = StorageBudgetConstraint.from_fraction_of_data(simple_schema, 1.0)
        result = Tuner().tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[budget], request_id="round-trip"))
        restored = TuningResult.from_json(result.to_json())
        assert restored.configuration == result.configuration
        assert restored.advisor_name == result.advisor_name
        assert restored.objective_estimate == result.objective_estimate
        assert restored.statement_costs == result.statement_costs
        assert restored.provenance == result.provenance
        assert restored.diagnostics.gap == result.diagnostics.gap
        assert restored.diagnostics.whatif_calls == result.diagnostics.whatif_calls
        assert restored.diagnostics.timings == result.diagnostics.timings
        assert restored.fingerprint() == result.fingerprint()
        # Live extras never survive serialization — except the exported
        # span tree, which rides the payload so remote callers see the
        # server-side trace (PR 8).
        assert set(restored.extras) <= {"trace"}
        assert restored.extras.get("trace") == result.extras.get("trace")

    def test_round_trip_preserves_the_gap_trace(self, simple_schema,
                                                simple_workload):
        """Diagnostics of a branch-and-bound run include the gap trace."""
        budget = StorageBudgetConstraint.from_fraction_of_data(simple_schema, 1.0)
        result = Tuner().tune(TuningRequest(
            workload=simple_workload, schema=simple_schema,
            constraints=[budget],
            advisor=AdvisorSpec(
                "cophy", {"backend": SolverBackend.BRANCH_AND_BOUND})))
        assert result.diagnostics.gap_trace  # B&B always traces progress
        assert result.diagnostics.nodes_explored > 0
        restored = TuningResult.from_json(result.to_json())
        assert restored.diagnostics.gap_trace == result.diagnostics.gap_trace
        assert restored.diagnostics.nodes_explored \
            == result.diagnostics.nodes_explored

    def test_payload_is_plain_json(self, simple_schema, simple_workload):
        result = Tuner().tune(TuningRequest(workload=simple_workload,
                                            schema=simple_schema))
        payload = json.loads(result.to_json(indent=2))
        assert payload["advisor"] == "cophy"
        assert {index["table"] for index in payload["configuration"]["indexes"]} \
            <= {"orders", "items"}
        assert payload["provenance"]["api_version"] == 1

    def test_payload_carries_version_and_rejects_unknown_versions(
            self, simple_schema, simple_workload):
        from repro.api.result import RESULT_PAYLOAD_VERSION

        result = Tuner().tune(TuningRequest(workload=simple_workload,
                                            schema=simple_schema))
        payload = result.to_payload()
        assert payload["version"] == RESULT_PAYLOAD_VERSION
        # A payload without the field is a pre-PR 5 (structurally v1) one.
        legacy = dict(payload)
        del legacy["version"]
        restored = TuningResult.from_payload(legacy)
        assert restored.configuration == result.configuration
        # Anything else must fail loudly instead of silently partial-loading.
        for alien in (RESULT_PAYLOAD_VERSION + 1, "2", None):
            with pytest.raises(ValueError, match="version"):
                TuningResult.from_payload({**payload, "version": alien})

    @pytest.mark.parametrize("missing", ["configuration", "diagnostics"])
    def test_truncated_payload_fails_like_an_unknown_version(
            self, missing, simple_schema, simple_workload):
        """A server response cut short must not crash the client untyped."""
        payload = Tuner().tune(TuningRequest(
            workload=simple_workload, schema=simple_schema)).to_payload()
        del payload[missing]
        with pytest.raises(ValueError, match=missing):
            TuningResult.from_payload(payload)

    def test_statement_cost_accessor(self):
        result = TuningResult(
            configuration=Configuration(),
            advisor_name="x", objective_estimate=1.0,
            statement_costs=(StatementCost("q1", 2.0, 10.0),),
            diagnostics=TuningDiagnostics(), provenance={})
        assert result.statement_cost("q1") == 10.0
        with pytest.raises(KeyError):
            result.statement_cost("q2")

    def test_diagnostics_payload_defaults(self):
        diagnostics = TuningDiagnostics.from_payload({})
        assert diagnostics.gap == 0.0
        assert diagnostics.gap_trace == ()
        assert diagnostics.timings == {}
