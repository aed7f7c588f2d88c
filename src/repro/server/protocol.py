"""HTTP protocol glue shared by the tuning server and the client SDK.

One structured **error envelope** travels in both directions::

    {"error": {"type": "WorkloadError", "message": "...", "status": 422}}

The server maps exceptions onto it (:func:`envelope_for_exception`) and the
client maps it back onto the exception the embedded API would have raised
(:func:`raise_remote_error`), so error handling code is the same in-process
and over the wire.  Status mapping:

* ``400`` — the request itself is broken: malformed JSON, a payload the wire
  table rejects (``WireFormatError``), unknown advisor name, ``ValueError``;
* ``422`` — the request parsed but describes an unservable tuning problem:
  :class:`WorkloadError` (e.g. statement-name collisions), catalog and
  constraint errors, infeasible problems;
* ``404`` — unknown endpoint, session, or stored trace (evicted trace ids
  answer 404 exactly like never-recorded ones);
* ``429`` — admission control rejected the request
  (:class:`~repro.exceptions.ServerOverloaded`); the response carries a
  ``Retry-After`` header and the envelope a ``retry_after_s`` hint;
* ``500`` — everything else (a server-side bug, never the client's fault).
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

from repro import exceptions as _exceptions
from repro.exceptions import (
    CatalogError,
    ConstraintError,
    IndexDefinitionError,
    InfeasibleProblemError,
    ReproError,
    ServerOverloaded,
    WorkloadError,
)
from repro.server.wire import WireFormatError

__all__ = ["API_PREFIX", "TRACE_HEADER", "TuningClientTimeout",
           "TuningServerError", "TuningServerUnavailable", "error_envelope",
           "envelope_for_exception", "raise_remote_error",
           "response_headers_for"]

#: URL prefix of every endpoint; bumping it is a wire-format break.
API_PREFIX = "/v1"

#: Request/response header carrying the trace id: the client sends it, the
#: server plants it as the pending trace id for the pipeline (so the whole
#: request traces under the client's id) and echoes it back on the response.
TRACE_HEADER = "X-Repro-Trace-Id"


class TuningServerError(ReproError):
    """A server-reported error with no embedded-API equivalent.

    Raised by the client SDK for transport failures, unknown endpoints /
    sessions, and any envelope whose ``type`` does not name a
    :mod:`repro.exceptions` class.  ``status`` is the HTTP status code
    (``0`` for transport failures that never reached the server).
    """

    def __init__(self, message: str, *, status: int = 500,
                 error_type: str = "InternalError"):
        super().__init__(message)
        self.status = int(status)
        self.error_type = error_type


class TuningServerUnavailable(TuningServerError):
    """The tuning server could not be reached at all (connection refused,
    DNS failure, dropped connection before any response).

    ``status`` is 0 — no HTTP exchange happened.  Transient by definition,
    so the client's retry policy treats it as retryable.
    """

    def __init__(self, message: str):
        super().__init__(message, status=0, error_type="ServerUnavailable")


class TuningClientTimeout(TuningServerError):
    """The client-side socket timeout fired before the server answered.

    Distinct from a server-applied anytime budget: the server may well have
    finished the solve and produced a (partial or complete) result that the
    client never received.  ``timeout_seconds`` is the deadline that fired.
    """

    def __init__(self, message: str, *, timeout_seconds: float | None = None):
        super().__init__(message, status=0, error_type="ClientTimeout")
        self.timeout_seconds = timeout_seconds


def error_envelope(error_type: str, message: str, status: int
                   ) -> dict[str, Any]:
    return {"error": {"type": error_type, "message": message,
                      "status": int(status)}}


def envelope_for_exception(exc: BaseException) -> tuple[int, dict[str, Any]]:
    """Map one exception onto ``(status, envelope)`` for the HTTP response."""
    if isinstance(exc, TuningServerError):
        return exc.status, error_envelope(exc.error_type, str(exc), exc.status)
    if isinstance(exc, ServerOverloaded):
        status, envelope = 429, error_envelope("ServerOverloaded", str(exc),
                                               429)
        if exc.retry_after_s is not None:
            envelope["error"]["retry_after_s"] = exc.retry_after_s
        return status, envelope
    if isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError)):
        # UnicodeDecodeError: a body that is not even valid UTF-8 is as
        # malformed as one that is not valid JSON.
        return 400, error_envelope("MalformedJSON", str(exc), 400)
    if isinstance(exc, KeyError):
        # The registry reports unknown advisors as a KeyError whose message
        # starts with a fixed prefix; any other KeyError reaching this point
        # escaped the wire layer's validation and is a server-side bug.
        message = exc.args[0] if exc.args else str(exc)
        if isinstance(message, str) and message.startswith(
                "No advisor registered"):
            return 400, error_envelope("UnknownAdvisor", message, 400)
        return 500, error_envelope("KeyError", str(message), 500)
    if isinstance(exc, (ValueError, TypeError)):  # WireFormatError included
        return 400, error_envelope(type(exc).__name__, str(exc), 400)
    if isinstance(exc, (WorkloadError, CatalogError, ConstraintError,
                        IndexDefinitionError, InfeasibleProblemError)):
        return 422, error_envelope(type(exc).__name__, str(exc), 422)
    return 500, error_envelope(type(exc).__name__, str(exc), 500)


def response_headers_for(exc: BaseException) -> dict[str, str]:
    """Extra HTTP response headers implied by an exception.

    A :class:`~repro.exceptions.ServerOverloaded` rejection carries its
    backoff hint as a standard ``Retry-After`` (integer delta-seconds,
    rounded up so the client never comes back early).
    """
    retry_after = getattr(exc, "retry_after_s", None)
    if retry_after is None:
        return {}
    return {"Retry-After": str(max(1, math.ceil(float(retry_after))))}


#: Builtin exception types the embedded API raises for bad requests; the
#: client resurrects them so ``except ValueError`` handlers work remotely.
_BUILTIN_ERROR_TYPES = {"ValueError": ValueError, "TypeError": TypeError}


def raise_remote_error(status: int, payload: Mapping[str, Any] | None,
                       headers: Mapping[str, str] | None = None) -> None:
    """Re-raise a server error envelope as the matching local exception.

    Envelope types naming a :mod:`repro.exceptions` class — or one of the
    builtin types the embedded API raises for invalid requests
    (``ValueError``, ``TypeError``) — are raised as that class, so remote
    error handling matches the in-process API; everything else becomes
    :class:`TuningServerError`.  ``headers`` lets ``Retry-After`` survive
    the round trip when the envelope carries no ``retry_after_s``.
    """
    envelope = (payload or {}).get("error", {})
    error_type = str(envelope.get("type", "InternalError"))
    message = str(envelope.get("message", f"HTTP {status}"))
    if error_type == "ServerOverloaded":
        retry_after = envelope.get("retry_after_s")
        if retry_after is None and headers is not None:
            header = headers.get("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
        raise ServerOverloaded(
            message, retry_after_s=(None if retry_after is None
                                    else float(retry_after)))
    exception_class = getattr(_exceptions, error_type, None)
    if (isinstance(exception_class, type)
            and issubclass(exception_class, ReproError)
            and exception_class is not ReproError):
        raise exception_class(message)
    if error_type == "WireFormatError":
        raise WireFormatError(message)
    if error_type in _BUILTIN_ERROR_TYPES:
        raise _BUILTIN_ERROR_TYPES[error_type](message)
    raise TuningServerError(message, status=status, error_type=error_type)
