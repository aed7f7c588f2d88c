"""The HTTP front-end: ``TuningServer`` over a shared ``TuningService``.

Built entirely on the stdlib (``http.server.ThreadingHTTPServer`` — one
thread per connection, which composes with the service's per-context
locking), so the tuning server adds zero dependencies.

Endpoints (all JSON, all under :data:`~repro.server.protocol.API_PREFIX`):

======  ==========================  ===========================================
Method  Path                        Semantics
======  ==========================  ===========================================
POST    ``/v1/tune``                One encoded request -> one result payload.
POST    ``/v1/tune_batch``          ``{"requests": [...]}`` served via
                                    ``TuningService.tune_many`` (concurrent;
                                    all-or-nothing on error).
POST    ``/v1/sessions``            Open an interactive session; returns
                                    ``{"session_id": ...}``.
POST    ``/v1/sessions/{id}/tune``  One session step, its body derived
                                    from the codec table: ``{"operation":
                                    <TuningSession method>}`` plus that
                                    method's ``indexes`` / ``constraints``.
DELETE  ``/v1/sessions/{id}``       Close a session.
GET     ``/v1/health``              Liveness + advisor registry.
GET     ``/v1/stats``               Service counters: contexts, cache sizes,
                                    LRU/TTL evictions, namespacing.
GET     ``/v1/metrics``             The tuner's metrics registry in Prometheus
                                    text exposition format (the one non-JSON
                                    endpoint).
GET     ``/v1/traces``              Newest-first summaries of the bounded
                                    trace store (``?limit=N`` truncates).
GET     ``/v1/traces/{id}``         One stored trace: full span tree plus the
                                    sampled hotspot table when captured; 404
                                    once evicted.
======  ==========================  ===========================================

Observability (PR 8): a client-supplied ``X-Repro-Trace-Id`` header becomes
the pending trace id for the dispatched pipeline — the returned result's
``trace`` payload carries the same id, and the header is echoed on every
response.  Each dispatch records ``repro_http_requests_total`` /
``repro_http_request_seconds`` under a bounded-cardinality route pattern
(``/v1/sessions/{id}/tune``, never raw paths), and error paths that used to
be silent (client disconnects, 5xx envelopes) log structured warnings with
the trace id attached.

Every POST body decodes through the codec table of :mod:`repro.server.wire`,
so an unknown key, a wrong type or a non-object body is a
``WireFormatError`` (400).  Errors travel as the structured envelope of
:mod:`repro.server.protocol`.
Equal client schema payloads are canonicalized through a
:class:`~repro.server.wire.SchemaCache` so repeated traffic shares one
``SchemaContext`` (optimizer, templates, tensors) — which is exactly why the
service-level eviction (``max_contexts`` / ``context_ttl_s``) and statement
auto-namespacing exist.  A request that names its schema by
``schema_digest`` (wire version 3) resolves through the same cache; a digest
it does not hold answers 404 ``UnknownSchemaDigest``.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import logging
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.api.registry import available_advisors
from repro.api.service import TuningService, TuningSession
from repro.api.specs import TuningRequest
from repro.obs.log import configure as configure_logging
from repro.obs.log import log_event
from repro.obs.metrics import (
    HTTP_REQUEST_SECONDS, HTTP_REQUESTS, METRICS_CONTENT_TYPE, use_registry)
from repro.obs.trace import trace_context
from repro.server.protocol import (
    API_PREFIX,
    TRACE_HEADER,
    TuningServerError,
    envelope_for_exception,
    error_envelope,
    response_headers_for,
)
from repro.server.wire import (
    WIRE_VERSION,
    SchemaCache,
    WireFormatError,
    decode_batch,
    decode_request,
    decode_session_step,
)

__all__ = ["TuningServer", "install_signal_handlers", "main"]


class TuningServer:
    """A threaded HTTP server over one shared :class:`TuningService`.

    Args:
        service: An existing service to front; a fresh one (with the given
            ``namespace_statements`` / eviction knobs) is created when
            omitted.
        host, port: Bind address.  ``port=0`` picks a free port — read it
            back from :attr:`port` (the pattern tests and in-process examples
            use).
        namespace_statements / max_contexts / context_ttl_s: Forwarded to the
            created :class:`TuningService`; with ``service`` supplied, a
            non-default value is a ``ValueError`` (configure that service
            instead).  ``max_contexts`` *defaults to 64* here — unlike the
            embedded service — because a server's schema contexts are born
            from decoded payloads: once the schema cache rotates an entry
            out, the orphaned context would be unreachable yet retained
            forever without a cap.
        max_schemas: LRU cap of the schema canonicalization cache.
        session_ttl_s: Idle TTL for interactive sessions.  A client that
            opens a session and vanishes would otherwise pin its workload,
            candidate set and delta-BIP state for the process lifetime;
            sessions idle for longer than the TTL are reaped on the next
            session/stat touch (like schema contexts) and report 404 from
            then on.
        default_time_budget_ms: Anytime budget applied to requests that do
            not set one themselves (``None`` leaves them unbudgeted).
        max_time_budget_ms: Upper clamp on client-requested budgets, so one
            request cannot reserve a worker thread for an arbitrary wall
            time.
        max_pending / retry_after_s: Admission control, forwarded to the
            created :class:`TuningService` (same rule): at most
            ``max_pending`` tuning requests in flight, beyond which the
            server answers 429 with a ``Retry-After`` header of
            ``retry_after_s``.
        drain_timeout_s: Upper bound :meth:`stop` waits for in-flight
            requests to finish before closing (graceful shutdown).
        trace_store_size / slow_threshold_ms / profile_every: Performance
            introspection, forwarded to the created :class:`TuningService`
            (same rule): the ``/v1/traces`` ring capacity (0 disables it),
            the slow-request pinning threshold, and the sampled-``cProfile``
            cadence.
    """

    def __init__(self, service: TuningService | None = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 namespace_statements: bool = False,
                 max_contexts: int | None = 64,
                 context_ttl_s: float | None = None,
                 max_schemas: int | None = 32,
                 session_ttl_s: float | None = None,
                 default_time_budget_ms: float | None = None,
                 max_time_budget_ms: float | None = None,
                 max_pending: int | None = None,
                 retry_after_s: float = 1.0,
                 drain_timeout_s: float = 10.0,
                 trace_store_size: int = 128,
                 slow_threshold_ms: float | None = None,
                 profile_every: int | None = None):
        if session_ttl_s is not None and session_ttl_s <= 0:
            raise ValueError("session_ttl_s must be positive (or None)")
        if default_time_budget_ms is not None and default_time_budget_ms <= 0:
            raise ValueError("default_time_budget_ms must be positive (or None)")
        if max_time_budget_ms is not None and max_time_budget_ms <= 0:
            raise ValueError("max_time_budget_ms must be positive (or None)")
        if drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be non-negative")
        forwarded = {"namespace_statements": namespace_statements,
                     "max_contexts": max_contexts,
                     "context_ttl_s": context_ttl_s,
                     "max_pending": max_pending,
                     "retry_after_s": retry_after_s,
                     "trace_store_size": trace_store_size,
                     "slow_threshold_ms": slow_threshold_ms,
                     "profile_every": profile_every}
        if service is None:
            service = TuningService(**forwarded)
        else:
            defaults = inspect.signature(TuningServer).parameters
            overridden = [name for name, value in forwarded.items()
                          if value != defaults[name].default]
            if overridden:
                raise ValueError(
                    f"{'/'.join(overridden)} configure the service the "
                    "server creates; when supplying a service, set them on "
                    "it directly")
        self.service = service
        self.schema_cache = SchemaCache(max_schemas=max_schemas)
        self.session_ttl_s = session_ttl_s
        self.default_time_budget_ms = default_time_budget_ms
        self.max_time_budget_ms = max_time_budget_ms
        self.drain_timeout_s = drain_timeout_s
        #: session id -> (session, decoded request, last-used monotonic time).
        self._sessions: dict[str, list] = {}
        self._sessions_lock = threading.Lock()
        self._session_ids = itertools.count(1)
        self._httpd = _TuningHTTPServer((host, port), _TuningRequestHandler,
                                        owner=self)
        self._thread: threading.Thread | None = None
        self._serving = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        #: Serializes stop(): signal handlers and the main thread may race it.
        self._stop_lock = threading.Lock()

    # ---------------------------------------------------------------- accessors
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def session_count(self) -> int:
        with self._sessions_lock:
            self._reap_sessions()
            return len(self._sessions)

    def _reap_sessions(self) -> None:
        """Drop sessions idle past the TTL (caller holds the sessions lock)."""
        if self.session_ttl_s is None:
            return
        now = time.monotonic()
        expired = [session_id
                   for session_id, (_, _, last_used) in self._sessions.items()
                   if now - last_used > self.session_ttl_s]
        for session_id in expired:
            del self._sessions[session_id]
        if expired:
            self.service.note_sessions_reaped(len(expired))

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> "TuningServer":
        """Serve on a daemon thread (in-process servers: tests, examples)."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(target=self._httpd.serve_forever,
                                            name="tuning-server", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self._serving = True
        self._httpd.serve_forever()

    # In-flight request accounting for graceful shutdown; bumped by the
    # request handler around every dispatch.
    def _request_started(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def _request_finished(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight_requests(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def stop(self, drain_timeout_s: float | None = None) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, then close.

        New connections stop being accepted immediately; requests already
        being served get up to ``drain_timeout_s`` (the constructor value
        when ``None``) to finish before the listening socket and the
        service's thread pool are torn down — no mid-solve connection
        resets on deploy.  Idempotent, and safe to call from a signal
        handler's helper thread while ``serve_forever`` runs elsewhere.
        """
        timeout = (self.drain_timeout_s if drain_timeout_s is None
                   else drain_timeout_s)
        with self._stop_lock:
            if self._serving:
                # shutdown() waits on an event only serve_forever() sets;
                # calling it on a never-started server would block forever.
                self._httpd.shutdown()
                self._serving = False
            deadline = time.monotonic() + max(0.0, timeout)
            while self.inflight_requests > 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            self._httpd.server_close()
            if self._thread is not None:
                self._thread.join(timeout=10)
                self._thread = None
            self.service.close()

    def close(self) -> None:
        """Stop serving and shut the service's thread pool down (idempotent)."""
        self.stop()

    def __enter__(self) -> "TuningServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- endpoints
    def handle_health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "wire_version": WIRE_VERSION,
            "advisors": list(available_advisors()),
            "sessions_open": self.session_count,
        }

    def handle_metrics(self) -> str:
        """The ``/v1/metrics`` body: Prometheus text over the tuner registry."""
        return self.service.tuner.metrics.render()

    def handle_stats(self) -> dict[str, Any]:
        # session_count reaps first, so a stats-polling monitor doubles as
        # the session reaper on an otherwise idle server.
        return {
            "wire_version": WIRE_VERSION,
            "service": self.service.stats(),
            "cached_schemas": len(self.schema_cache),
            "sessions_open": self.session_count,
            "session_ttl_s": self.session_ttl_s,
            "default_time_budget_ms": self.default_time_budget_ms,
            "max_time_budget_ms": self.max_time_budget_ms,
        }

    def handle_traces(self, limit: int | None = None) -> dict[str, Any]:
        """The ``/v1/traces`` listing: newest-first store summaries."""
        store = self.service.tuner.trace_store
        if store is None:
            return {"enabled": False, "traces": [], "count": 0,
                    "capacity": 0, "slow_threshold_ms": None}
        return {
            "enabled": True,
            "traces": store.summaries(limit),
            "count": len(store),
            "capacity": store.capacity,
            "slow_threshold_ms": store.slow_threshold_ms,
        }

    def handle_trace(self, trace_id: str) -> dict[str, Any]:
        """One stored trace by id; 404 once evicted (or never recorded)."""
        store = self.service.tuner.trace_store
        entry = store.get(trace_id) if store is not None else None
        if entry is None:
            raise TuningServerError(
                f"Unknown trace {trace_id!r} (evicted or never recorded)",
                status=404, error_type="UnknownTrace")
        return entry

    def _budgeted(self, request: TuningRequest) -> TuningRequest:
        """Apply the server's anytime-budget policy to one decoded request.

        The default budget only fills in for requests that carry none; the
        clamp overrides client budgets above the server's ceiling.  Both
        rewrite the advisor spec, so the applied budget lands in the result's
        provenance exactly as if the client had asked for it.
        """
        spec = request.resolved_advisor()
        budget_ms = spec.time_budget_ms
        if budget_ms is None:
            budget_ms = self.default_time_budget_ms
        if self.max_time_budget_ms is not None and budget_ms is not None:
            budget_ms = min(budget_ms, self.max_time_budget_ms)
        if budget_ms == spec.time_budget_ms:
            return request
        return replace(request,
                       advisor=replace(spec, time_budget_ms=budget_ms))

    def handle_tune(self, body: Any) -> dict[str, Any]:
        request = self._budgeted(
            decode_request(body, schema_cache=self.schema_cache))
        result = self.service.tune(request)
        return {"result": result.to_payload()}

    def handle_tune_batch(self, body: Any) -> dict[str, Any]:
        requests = [self._budgeted(request) for request in
                    decode_batch(body, schema_cache=self.schema_cache)]
        results = self.service.tune_many(requests)
        return {"results": [result.to_payload() for result in results]}

    def handle_open_session(self, body: Any) -> dict[str, Any]:
        request = decode_request(body, schema_cache=self.schema_cache)
        session = self.service.open_session(request)
        with self._sessions_lock:
            self._reap_sessions()
            session_id = f"s{next(self._session_ids)}"
            self._sessions[session_id] = [session, request, time.monotonic()]
        return {"session_id": session_id}

    def handle_session_tune(self, session_id: str, body: Any
                            ) -> dict[str, Any]:
        session, request = self._session(session_id)
        operation, arguments = decode_session_step(body, request.workload)
        result = getattr(session, operation)(*arguments)
        return {"result": result.to_payload()}

    def handle_close_session(self, session_id: str) -> dict[str, Any]:
        with self._sessions_lock:
            self._reap_sessions()
            closed = self._sessions.pop(session_id, None)
        if closed is None:
            # Matches the documented contract: 404 = unknown session (the
            # client SDK guards against double-DELETE itself).  A TTL-reaped
            # session is indistinguishable from an unknown one on purpose.
            raise TuningServerError(f"Unknown session {session_id!r}",
                                    status=404, error_type="UnknownSession")
        return {"closed": True, "session_id": session_id}

    def _session(self, session_id: str) -> tuple[TuningSession, TuningRequest]:
        with self._sessions_lock:
            self._reap_sessions()
            entry = self._sessions.get(session_id)
            if entry is not None:
                entry[2] = time.monotonic()
                session, request, _ = entry
        if entry is None:
            raise TuningServerError(f"Unknown session {session_id!r}",
                                    status=404, error_type="UnknownSession")
        return session, request


class _TuningHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: Restart accept() on transient socket errors instead of dying.
    allow_reuse_address = True

    def __init__(self, address, handler_class, owner: TuningServer):
        self.owner = owner
        super().__init__(address, handler_class)


#: Upper bound on request bodies; large TPC-H-sized requests are ~1 MB, so
#: this is generous while keeping a hostile Content-Length from buffering
#: arbitrary amounts of memory.
MAX_BODY_BYTES = 64 * 1024 * 1024


def _endpoint_pattern(method: str, path: str) -> str:
    """Collapse a raw request path onto its route pattern for metric labels.

    Session ids would make ``repro_http_requests_total`` unbounded, so they
    are folded into ``{id}``; anything unroutable is ``unknown`` (one label
    value no matter what paths a scanner probes).
    """
    fixed = {f"{API_PREFIX}/health", f"{API_PREFIX}/stats",
             f"{API_PREFIX}/metrics", f"{API_PREFIX}/tune",
             f"{API_PREFIX}/tune_batch", f"{API_PREFIX}/sessions",
             f"{API_PREFIX}/traces"}
    if path in fixed:
        return path
    sessions_root = f"{API_PREFIX}/sessions/"
    if path.startswith(sessions_root):
        rest = path[len(sessions_root):].split("/")
        if len(rest) == 1:
            return f"{API_PREFIX}/sessions/{{id}}"
        if len(rest) == 2 and rest[1] == "tune":
            return f"{API_PREFIX}/sessions/{{id}}/tune"
    traces_root = f"{API_PREFIX}/traces/"
    if path.startswith(traces_root) and "/" not in path[len(traces_root):]:
        return f"{API_PREFIX}/traces/{{id}}"
    return "unknown"


class _TuningRequestHandler(BaseHTTPRequestHandler):
    #: Advertised through the Server header.
    server_version = "repro-tuning-server/1"
    protocol_version = "HTTP/1.1"
    #: Socket timeout: a client that stalls mid-body cannot pin a worker
    #: thread forever (solves run server-side *after* the body is read).
    timeout = 120

    # ------------------------------------------------------------------- verbs
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # ---------------------------------------------------------------- plumbing
    def _dispatch(self, method: str) -> None:
        owner = self.server.owner  # type: ignore[attr-defined]
        owner._request_started()
        started = time.perf_counter()
        # Ignore any query string (health probes commonly append one).
        path = self.path.split("?", 1)[0].rstrip("/")
        endpoint = _endpoint_pattern(method, path)
        self._status_sent = 500
        self._trace_id = None
        header = (self.headers.get(TRACE_HEADER) or "").strip()
        try:
            # The client's trace id (or a fresh one) becomes the pending id:
            # the pipeline's Tracer picks it up, so the whole request traces
            # under one id end to end, echoed back on the response.  The
            # tuner's registry is made ambient for the same stretch so
            # metrics recorded before the facade activates it itself (wire
            # decoding, schema-cache hits) land on /v1/metrics too.
            with trace_context(header or None) as trace_id, \
                    use_registry(owner.service.tuner.metrics):
                self._trace_id = trace_id
                try:
                    if method == "GET" and path == f"{API_PREFIX}/metrics":
                        self._write_text(200, owner.handle_metrics(),
                                         METRICS_CONTENT_TYPE)
                        return
                    payload = self._route(method, path)
                except Exception as exc:  # noqa: BLE001 — errors → envelopes
                    self._write_error(exc, endpoint=endpoint)
                else:
                    try:
                        self._write_json(200, payload)
                    except (TypeError, ValueError) as exc:
                        # The handler's payload failed to encode — a
                        # server-side bug, but the client still deserves a
                        # well-formed envelope instead of a bare connection
                        # reset.  (_write_json encodes before sending any
                        # bytes, so the socket is still clean here.)
                        self._write_error(
                            TuningServerError(
                                f"Response encoding failed: {exc}",
                                status=500,
                                error_type="ResponseEncodingError"),
                            endpoint=endpoint)
                    except OSError:
                        log_event(logging.WARNING, "client_disconnected",
                                  endpoint=endpoint, method=method,
                                  trace_id=self._trace_id,
                                  phase="response")
        finally:
            owner._request_finished()
            registry = owner.service.tuner.metrics
            registry.family(HTTP_REQUESTS).inc(
                endpoint=endpoint, method=method,
                # HTTP status codes are a closed set.
                status=str(self._status_sent))  # reprolint: disable=metric-label-cardinality
            registry.family(HTTP_REQUEST_SECONDS).observe(
                time.perf_counter() - started, endpoint=endpoint)

    def _write_error(self, exc: BaseException, *,
                     endpoint: str = "unknown") -> None:
        status, envelope = envelope_for_exception(exc)
        if status >= 500:
            log_event(logging.ERROR, "http_error", endpoint=endpoint,
                      status=status, error=repr(exc),
                      trace_id=getattr(self, "_trace_id", None))
        try:
            self._write_json(status, envelope,
                             headers=response_headers_for(exc))
        except (TypeError, ValueError):
            # Envelope encoding itself failed (it never should: envelopes
            # are built from str/int only) — last-resort minimal envelope.
            self._write_json(500, error_envelope(
                type(exc).__name__, "error envelope encoding failed", 500))
        except OSError:
            log_event(logging.WARNING, "client_disconnected",
                      endpoint=endpoint, status=status,
                      trace_id=getattr(self, "_trace_id", None),
                      phase="error_response")

    def _route(self, method: str, path: str) -> dict[str, Any]:
        owner = self.server.owner  # type: ignore[attr-defined]
        if method == "GET" and path == f"{API_PREFIX}/health":
            return owner.handle_health()
        if method == "GET" and path == f"{API_PREFIX}/stats":
            return owner.handle_stats()
        if method == "GET" and path == f"{API_PREFIX}/traces":
            return owner.handle_traces(self._limit_param())
        traces_root = f"{API_PREFIX}/traces/"
        if (method == "GET" and path.startswith(traces_root)
                and "/" not in path[len(traces_root):]):
            return owner.handle_trace(path[len(traces_root):])
        if method == "POST" and path == f"{API_PREFIX}/tune":
            return owner.handle_tune(self._read_json())
        if method == "POST" and path == f"{API_PREFIX}/tune_batch":
            return owner.handle_tune_batch(self._read_json())
        sessions_root = f"{API_PREFIX}/sessions"
        if method == "POST" and path == sessions_root:
            return owner.handle_open_session(self._read_json())
        if path.startswith(sessions_root + "/"):
            rest = path[len(sessions_root) + 1:].split("/")
            if method == "POST" and len(rest) == 2 and rest[1] == "tune":
                return owner.handle_session_tune(rest[0], self._read_json())
            if method == "DELETE" and len(rest) == 1:
                return owner.handle_close_session(rest[0])
        raise TuningServerError(f"No such endpoint: {method} {self.path}",
                                status=404, error_type="NotFound")

    def _limit_param(self) -> int | None:
        """The ``?limit=N`` query parameter of the current request."""
        from urllib.parse import parse_qs, urlparse

        values = parse_qs(urlparse(self.path).query).get("limit")
        if not values:
            return None
        try:
            return int(values[0])
        except ValueError:
            raise WireFormatError("limit must be an integer") from None

    def _read_json(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise WireFormatError("Content-Length must be an integer") \
                from None
        if length < 0:
            # rfile.read(-1) would block until the client closes the socket.
            raise WireFormatError("Content-Length must be non-negative")
        if length > MAX_BODY_BYTES:
            raise TuningServerError(
                f"Request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit", status=413,
                error_type="PayloadTooLarge")
        body = self.rfile.read(length) if length else b""
        if not body:
            raise WireFormatError("Request body must be a JSON document")
        return json.loads(body)

    def _write_json(self, status: int, payload: dict[str, Any],
                    headers: dict[str, str] | None = None) -> None:
        # Encode BEFORE any byte hits the socket: an encoding failure must
        # leave the response unstarted so an error envelope can still be
        # written in its place.
        body = json.dumps(payload).encode("utf-8")
        self._write_body(status, body, "application/json", headers)

    def _write_text(self, status: int, text: str, content_type: str) -> None:
        self._write_body(status, text.encode("utf-8"), content_type, None)

    def _write_body(self, status: int, body: bytes, content_type: str,
                    headers: dict[str, str] | None) -> None:
        self._status_sent = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            self.send_header(TRACE_HEADER, trace_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # One request per connection: an error response may leave an unread
        # request body on the socket, which a kept-alive connection would
        # misparse as the next request line.
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr lines (the service keeps the counters)."""


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.server --port 8080``."""
    parser = argparse.ArgumentParser(description="repro tuning server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--namespace-statements", action="store_true",
                        help="auto-namespace colliding statement names "
                             "instead of rejecting them (WorkloadError)")
    parser.add_argument("--max-contexts", type=int, default=64,
                        help="LRU cap on live schema contexts")
    parser.add_argument("--context-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="idle TTL for schema contexts")
    parser.add_argument("--session-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="idle TTL for interactive sessions; abandoned "
                             "sessions are reaped on the next session/stats "
                             "touch")
    parser.add_argument("--default-time-budget", type=float, default=None,
                        metavar="MS",
                        help="anytime budget (milliseconds) applied to "
                             "requests that set none")
    parser.add_argument("--max-time-budget", type=float, default=None,
                        metavar="MS",
                        help="upper clamp on client-requested anytime "
                             "budgets (milliseconds)")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="admission-control bound on in-flight tuning "
                             "requests; beyond it the server answers 429 "
                             "with a Retry-After header")
    parser.add_argument("--retry-after", type=float, default=1.0,
                        metavar="SECONDS",
                        help="Retry-After hint attached to 429 rejections")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="maximum wait for in-flight requests to finish "
                             "on graceful shutdown (SIGTERM/SIGINT)")
    parser.add_argument("--log-level", default=None,
                        metavar="LEVEL",
                        help="structured-log threshold (DEBUG/INFO/WARNING/"
                             "ERROR); defaults to $REPRO_LOG_LEVEL or "
                             "WARNING")
    parser.add_argument("--trace-store-size", type=int, default=128,
                        help="completed traces retained for GET /v1/traces "
                             "(ring buffer; 0 disables the store)")
    parser.add_argument("--slow-threshold-ms", type=float, default=None,
                        metavar="MS",
                        help="requests at least this slow are pinned in the "
                             "trace store's slow ring so outliers survive "
                             "rotation")
    parser.add_argument("--profile-every", type=int, default=None,
                        metavar="N",
                        help="capture a sampled cProfile hotspot table on "
                             "every Nth request (rides the result and the "
                             "stored trace; off by default)")
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    server = TuningServer(host=args.host, port=args.port,
                          namespace_statements=args.namespace_statements,
                          max_contexts=args.max_contexts,
                          context_ttl_s=args.context_ttl,
                          session_ttl_s=args.session_ttl,
                          default_time_budget_ms=args.default_time_budget,
                          max_time_budget_ms=args.max_time_budget,
                          max_pending=args.max_pending,
                          retry_after_s=args.retry_after,
                          drain_timeout_s=args.drain_timeout,
                          trace_store_size=args.trace_store_size,
                          slow_threshold_ms=args.slow_threshold_ms,
                          profile_every=args.profile_every)
    install_signal_handlers(server)
    print(f"Serving index tuning on {server.url} "
          f"(advisors: {', '.join(available_advisors())})")
    server.serve_forever()
    # serve_forever returns once the signal handler's helper thread called
    # shutdown(); this second stop() is idempotent and blocks until the
    # helper finishes draining, so the process exits only when clean.
    server.stop()


def install_signal_handlers(server: TuningServer) -> None:
    """Route SIGTERM/SIGINT to a graceful :meth:`TuningServer.stop`.

    ``shutdown()`` must never run on the thread executing
    ``serve_forever`` (it would deadlock waiting for the serve loop it is
    blocking), and a Python signal handler runs exactly there — so the
    handler only spawns a helper thread and returns.
    """
    import signal

    def _graceful(signum, frame):  # pragma: no cover - signal delivery
        threading.Thread(target=server.stop, name="tuning-server-stop",
                         daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    main()
