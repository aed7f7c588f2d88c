"""Structured JSON logging for the tuning stack.

One logger tree rooted at ``repro`` emits JSON lines to stderr::

    {"ts": "2026-08-08T12:00:00.123+00:00", "level": "WARNING",
     "logger": "repro.scale", "event": "shard_degraded",
     "trace_id": "4f…", "shard": 2}

* :func:`log_event` is the one emission API: an event name plus arbitrary
  JSON-serializable fields; the ambient trace id
  (:func:`repro.obs.trace.current_trace_id`) is attached automatically, so
  every warning a degradation path emits correlates with the request trace.
* :func:`configure` installs the stderr handler and sets the level —
  explicitly (the server's ``--log-level`` flag / ``log_level=`` knobs) or
  from the ``REPRO_LOG_LEVEL`` environment variable; the default is
  ``WARNING``, so routine traffic stays silent and only degradations and
  failures surface.  Configuration is lazy and idempotent: the first
  emission configures from the environment when nothing did before.
"""

from __future__ import annotations

import datetime
import json
import logging
import os
import sys
from typing import Any

__all__ = ["configure", "log_event", "logger"]

#: Environment knob for the root level (name or number; default WARNING).
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

#: The root of the package's logger tree.
logger = logging.getLogger("repro")

_configured = False


class JsonFormatter(logging.Formatter):
    """Render one record as a single JSON line.

    Structured fields travel in ``record.repro_fields`` (set by
    :func:`log_event`); plain stdlib ``logger.warning(...)`` calls through
    the same tree still come out as valid JSON with their formatted message
    under ``"message"``.
    """

    def format(self, record: logging.LogRecord) -> str:
        entry: dict[str, Any] = {
            "ts": datetime.datetime.fromtimestamp(
                record.created, tz=datetime.timezone.utc).isoformat(
                timespec="milliseconds"),
            "level": record.levelname,
            "logger": record.name,
        }
        fields = getattr(record, "repro_fields", None)
        if fields:
            entry.update(fields)
        else:
            entry["message"] = record.getMessage()
        if record.exc_info and record.exc_info[0] is not None:
            entry.setdefault("error", repr(record.exc_info[1]))
        try:
            return json.dumps(entry, default=repr)
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return json.dumps({"level": record.levelname,
                               "logger": record.name,
                               "message": record.getMessage()})


def _level_from(value: Any) -> int:
    if value is None:
        return logging.WARNING
    if isinstance(value, int):
        return value
    text = str(value).strip().upper()
    if text.isdigit():
        return int(text)
    level = logging.getLevelName(text)
    return level if isinstance(level, int) else logging.WARNING


def configure(level: Any = None, stream: Any = None) -> logging.Logger:
    """Install the JSON stderr handler and set the level (idempotent).

    ``level`` accepts a name (``"debug"``), a number, or ``None`` — which
    reads :data:`LOG_LEVEL_ENV` and falls back to ``WARNING``.  Calling
    again only adjusts the level (and the stream when given), never stacks
    a second handler.
    """
    global _configured
    if level is None:
        level = os.environ.get(LOG_LEVEL_ENV)
    resolved = _level_from(level)
    handler = next((h for h in logger.handlers
                    if getattr(h, "_repro_json", False)), None)
    if handler is None:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(JsonFormatter())
        handler._repro_json = True  # type: ignore[attr-defined]
        logger.addHandler(handler)
        logger.propagate = False
    elif stream is not None:
        handler.setStream(stream)
    logger.setLevel(resolved)
    _configured = True
    return logger


def log_event(level: int, event: str, *, logger_name: str = "repro",
              **fields: Any) -> None:
    """Emit one structured event with automatic trace-id correlation.

    ``fields`` must be JSON-representable (anything else is ``repr``-ed).
    A ``trace_id`` field is filled in from the ambient tracer unless the
    caller supplied one explicitly.
    """
    if not _configured:
        configure()
    target = (logger if logger_name == "repro"
              else logging.getLogger(logger_name))
    if not target.isEnabledFor(level):
        return
    if "trace_id" not in fields:
        from repro.obs.trace import current_trace_id

        trace_id = current_trace_id()
        if trace_id is not None:
            fields["trace_id"] = trace_id
    target.log(level, event, extra={"repro_fields":
                                    {"event": event, **fields}})
