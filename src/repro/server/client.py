"""``TuningClient`` — the stdlib-``urllib`` SDK over the tuning server.

The client mirrors the embedded API surface one-for-one, so calling code is
agnostic about where the advisor runs::

    tuner  = Tuner();                 result = tuner.tune(request)
    client = TuningClient(server_url); result = client.tune(request)

``tune`` / ``tune_many`` / ``open_session`` accept the same
:class:`~repro.api.specs.TuningRequest` objects, return the same
:class:`~repro.api.result.TuningResult`, and raise the same exceptions
(:class:`~repro.exceptions.WorkloadError` on statement-name collisions, …)
reconstructed from the server's error envelope; only transport-level
failures surface as :class:`~repro.server.protocol.TuningServerError`.
"""

from __future__ import annotations

import json
import logging
import socket
import urllib.error
import urllib.request
from typing import Any, Iterable, Sequence

from repro.api.result import TuningResult
from repro.api.specs import TuningRequest
from repro.exceptions import ServerOverloaded
from repro.lp.budget import SolveBudget
from repro.obs.log import log_event
from repro.obs.metrics import active_registry
from repro.obs.trace import current_trace_id, new_trace_id, pending_trace_id
from repro.reliability.faults import FaultPlan, InjectedFault, armed_plan
from repro.reliability.retry import RetryPolicy
from repro.server.protocol import (
    API_PREFIX,
    TRACE_HEADER,
    TuningClientTimeout,
    TuningServerError,
    TuningServerUnavailable,
    raise_remote_error,
)
from repro.server.wire import (
    encode_batch,
    encode_request,
    encode_session_step,
)

__all__ = ["DEFAULT_RETRY_POLICY", "TuningClient", "RemoteTuningSession"]

#: The client's default backoff schedule for idempotent calls.
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.2,
                                   cap_delay_s=5.0)


class TuningClient:
    """A remote :class:`~repro.api.tuner.Tuner` / ``TuningService`` facade.

    Args:
        base_url: The server root, e.g. ``"http://127.0.0.1:8080"`` (any
            trailing slash is ignored).
        timeout: Per-request socket timeout in seconds.  Tuning solves can
            legitimately take a while; the default is generous.  Requests
            that carry an anytime budget (``AdvisorSpec.time_budget_ms``)
            derive a tighter per-call timeout from it instead — the budget
            plus ``budget_slack_s`` of transport/serialisation headroom.
        budget_slack_s: Headroom added on top of a request's own time budget
            when deriving its socket timeout.
        retry_policy: Backoff schedule for *idempotent* calls (``tune``,
            ``tune_batch``, GETs) on connect failures, 5xx answers and 429
            overload rejections (whose ``Retry-After`` floors the delay).
            Session steps are never retried — a lost response leaves the
            step's server-side fate unknown.  ``None`` disables retries.
            Budgeted requests never retry past their own derived deadline.
        fault_plan: Explicit fault-injection plan for the ``http_request``
            site; ``None`` defers to the process-wide armed plan.
    """

    def __init__(self, base_url: str, timeout: float = 300.0,
                 budget_slack_s: float = 30.0,
                 retry_policy: RetryPolicy | None = DEFAULT_RETRY_POLICY,
                 fault_plan: FaultPlan | None = None):
        if budget_slack_s < 0:
            raise ValueError("budget_slack_s must be non-negative")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.budget_slack_s = budget_slack_s
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------ tuning
    def tune(self, request: TuningRequest) -> TuningResult:
        """Serve one declarative request remotely (mirrors ``Tuner.tune``)."""
        payload = self._post(f"{API_PREFIX}/tune", encode_request(request),
                             timeout=self._derived_timeout([request]),
                             idempotent=True)
        return TuningResult.from_payload(payload["result"])

    def tune_many(self, requests: Iterable[TuningRequest]
                  ) -> list[TuningResult]:
        """Serve a batch concurrently on the server; results in order."""
        requests = list(requests)
        payload = self._post(
            f"{API_PREFIX}/tune_batch", encode_batch(requests),
            timeout=self._derived_timeout(requests), idempotent=True)
        return [TuningResult.from_payload(entry)
                for entry in payload["results"]]

    def _derived_timeout(self, requests: Sequence[TuningRequest]
                         ) -> float | None:
        """The socket timeout implied by the requests' anytime budgets.

        Only kicks in when *every* request carries a budget — one unbudgeted
        request makes the batch unbounded, so the configured default applies.
        Budgets are summed (the server may serialise same-schema requests on
        the context lock) and padded with the configured slack.
        """
        budgets = [request.resolved_advisor().time_budget_ms
                   for request in requests]
        if not budgets or any(budget is None for budget in budgets):
            return None
        return sum(budgets) / 1000.0 + self.budget_slack_s

    # ---------------------------------------------------------------- sessions
    def open_session(self, request: TuningRequest) -> "RemoteTuningSession":
        """Open a server-held interactive session (delta-BIP re-tuning)."""
        payload = self._post(f"{API_PREFIX}/sessions", encode_request(request))
        return RemoteTuningSession(self, payload["session_id"], request)

    # ------------------------------------------------------------- diagnostics
    def health(self) -> dict[str, Any]:
        return self._get(f"{API_PREFIX}/health")

    def stats(self) -> dict[str, Any]:
        return self._get(f"{API_PREFIX}/stats")

    def traces(self, limit: int | None = None) -> dict[str, Any]:
        """Newest-first summaries of the server's bounded trace store."""
        path = f"{API_PREFIX}/traces"
        if limit is not None:
            path = f"{path}?limit={int(limit)}"
        return self._get(path)

    def trace(self, trace_id: str) -> dict[str, Any]:
        """One stored trace (full span tree + hotspot table when sampled).

        Raises the server's 404 envelope
        (``TuningServerError``/``UnknownTrace``) once the id has rotated out
        of the store.
        """
        return self._get(f"{API_PREFIX}/traces/{trace_id}")

    # ---------------------------------------------------------------- plumbing
    def _get(self, path: str) -> dict[str, Any]:
        return self._call("GET", path, None, idempotent=True)

    def _post(self, path: str, payload: Any, timeout: float | None = None,
              idempotent: bool = False) -> dict[str, Any]:
        return self._call("POST", path, payload, timeout=timeout,
                          idempotent=idempotent)

    def _delete(self, path: str) -> dict[str, Any]:
        return self._call("DELETE", path, None)

    @staticmethod
    def _retryable(exc: BaseException) -> bool:
        """Whether a failed call is safe *and* worthwhile to repeat.

        Connect failures (the request never reached a handler), injected
        transport faults, overload rejections and 5xx answers are transient;
        a client-side timeout is not — the server may still be working on
        the original request, and re-sending doubles its load exactly when
        it is slowest.
        """
        if isinstance(exc, (TuningServerUnavailable, InjectedFault,
                            ServerOverloaded)):
            return True
        if isinstance(exc, TuningClientTimeout):
            return False
        if isinstance(exc, TuningServerError):
            return 500 <= exc.status < 600
        return False

    def _call(self, method: str, path: str, payload: Any,
              timeout: float | None = None,
              idempotent: bool = False) -> dict[str, Any]:
        data = (None if payload is None
                else json.dumps(payload).encode("utf-8"))
        effective_timeout = self.timeout if timeout is None else timeout
        fault_plan = self.fault_plan if self.fault_plan is not None \
            else armed_plan()
        # One trace id per logical call, shared by every retry attempt: the
        # caller's active/pending id when there is one (so remote spans join
        # the caller's trace), a fresh one otherwise.
        trace_id = current_trace_id() or pending_trace_id() or new_trace_id()

        def attempt_call(attempt: int) -> dict[str, Any]:
            if fault_plan is not None:
                fault_plan.check("http_request", key=path, attempt=attempt)
            return self._request_once(method, path, data, effective_timeout,
                                      trace_id)

        if not idempotent or self.retry_policy is None:
            return attempt_call(1)
        # A request derived from an anytime budget must not retry past the
        # deadline that budget implies; unbudgeted calls retry freely.
        budget = None
        if timeout is not None:
            budget = SolveBudget(time_budget_ms=timeout * 1000.0).start()

        def on_retry(attempt: int, exc: BaseException, delay: float) -> None:
            active_registry().counter(
                "repro_retries_total",
                "Retries taken by the reliability layer, by site",
                ("site",)).inc(site="http_client")
            log_event(logging.WARNING, "http_retry", method=method,
                      path=path, attempt=attempt, error=repr(exc),
                      delay_s=round(delay, 3), trace_id=trace_id)

        return self.retry_policy.call(attempt_call, budget=budget,
                                      retryable=self._retryable,
                                      on_retry=on_retry)

    def _request_once(self, method: str, path: str, data: bytes | None,
                      effective_timeout: float,
                      trace_id: str | None = None) -> dict[str, Any]:
        headers = {"Content-Type": "application/json"}
        if trace_id:
            headers[TRACE_HEADER] = trace_id
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method, headers=headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=effective_timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                envelope = json.loads(exc.read())
            except (ValueError, OSError):
                envelope = None
            raise_remote_error(exc.code, envelope, headers=exc.headers)
            raise  # unreachable — raise_remote_error always raises
        except urllib.error.URLError as exc:
            # Connect-phase timeouts arrive wrapped in URLError; read-phase
            # timeouts (below) come through as bare socket.timeout.
            if isinstance(exc.reason, socket.timeout):
                raise TuningClientTimeout(
                    f"Tuning server at {self.base_url} did not answer "
                    f"{method} {path} within {effective_timeout} s",
                    timeout_seconds=effective_timeout) from exc
            raise TuningServerUnavailable(
                f"Cannot reach tuning server at {self.base_url}: "
                f"{exc.reason}") from exc
        except socket.timeout as exc:
            raise TuningClientTimeout(
                f"Tuning server at {self.base_url} did not answer "
                f"{method} {path} within {effective_timeout} s",
                timeout_seconds=effective_timeout) from exc


class RemoteTuningSession:
    """The client half of a server-held interactive tuning session.

    Mirrors :class:`~repro.api.service.TuningSession`: every call returns a
    :class:`TuningResult`, and the locally-kept :attr:`history` /
    :attr:`last_result` match what the server's session recorded.
    """

    def __init__(self, client: TuningClient, session_id: str,
                 request: TuningRequest):
        self._client = client
        self.session_id = session_id
        self.request = request
        self._history: list[TuningResult] = []
        self._closed = False

    # ---------------------------------------------------------------- accessors
    @property
    def history(self) -> tuple[TuningResult, ...]:
        return tuple(self._history)

    @property
    def last_result(self) -> TuningResult | None:
        return self._history[-1] if self._history else None

    # ------------------------------------------------------------------ tuning
    def recommend(self) -> TuningResult:
        return self._step("recommend")

    def add_candidates(self, new_indexes: Sequence) -> TuningResult:
        return self._step("add_candidates", new_indexes)

    def remove_candidates(self, removed_indexes: Sequence) -> TuningResult:
        return self._step("remove_candidates", removed_indexes)

    def update_constraints(self, constraints: Sequence) -> TuningResult:
        return self._step("update_constraints", constraints)

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> bool:
        """Release the server-side session (idempotent)."""
        if self._closed:
            return False
        payload = self._client._delete(
            f"{API_PREFIX}/sessions/{self.session_id}")
        self._closed = True
        return bool(payload.get("closed"))

    def __enter__(self) -> "RemoteTuningSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- internals
    def _step(self, operation: str, *arguments: Any) -> TuningResult:
        if self._closed:
            raise TuningServerError(
                f"Session {self.session_id!r} is closed", status=404,
                error_type="UnknownSession")
        payload = self._client._post(
            f"{API_PREFIX}/sessions/{self.session_id}/tune",
            encode_session_step(operation, *arguments))
        result = TuningResult.from_payload(payload["result"])
        self._history.append(result)
        return result
