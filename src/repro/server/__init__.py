"""The network tuning subsystem: wire formats, HTTP server, client SDK.

The paper's index-tuning-as-a-service vision over the unified API (PR 4):

* :mod:`repro.server.wire` — the versioned request format as one table of
  payload records (schemas, workloads, constraints, specs, and the
  ``tune_batch`` and session-step bodies) that a single encoder and decoder
  walk; :func:`encode_request` / :func:`decode_request` round-trip a
  :class:`~repro.api.specs.TuningRequest` bit-identically;
* :mod:`repro.server.app` — :class:`TuningServer`, a zero-dependency
  ``http.server``-based HTTP front-end over a shared
  :class:`~repro.api.service.TuningService` (``POST /v1/tune``,
  ``POST /v1/tune_batch``, session endpoints, ``GET /v1/health`` /
  ``GET /v1/stats``) with a structured error envelope;
* :mod:`repro.server.client` — :class:`TuningClient`, a stdlib-``urllib``
  SDK mirroring ``Tuner.tune`` / ``TuningService.tune_many`` /
  ``open_session`` so the same calling code runs in-process or remote.
"""

from repro.server.client import RemoteTuningSession, TuningClient
from repro.server.app import TuningServer
from repro.server.protocol import TuningClientTimeout, TuningServerError
from repro.server.wire import (
    WIRE_VERSION,
    SchemaCache,
    WireFormatError,
    decode_request,
    decode_schema,
    decode_workload,
    encode_request,
    encode_schema,
    encode_workload,
)

__all__ = [
    "RemoteTuningSession",
    "SchemaCache",
    "TuningClient",
    "TuningClientTimeout",
    "TuningServer",
    "TuningServerError",
    "WIRE_VERSION",
    "WireFormatError",
    "decode_request",
    "decode_schema",
    "decode_workload",
    "encode_request",
    "encode_schema",
    "encode_workload",
]
