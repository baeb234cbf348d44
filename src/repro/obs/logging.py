"""Structured access/event logging for the service frontend.

:class:`AccessLogger` is off by default (a benchmark
harness hammering the server should not pay for I/O per request),
enabled with ``repro serve --access-log`` (human-readable lines) or
``repro serve --log-json`` (one JSON object per line, machine-
ingestible, which also unlocks lifecycle *events* — serve start/stop,
recovery, snapshot).

One access line per request::

    2026-08-08T12:00:00Z 127.0.0.1 "POST /v1/apps" 200 1.2ms req-ab12…

or as JSON::

    {"ts": ..., "kind": "access", "method": "POST", "path": "/v1/apps",
     "status": 200, "duration_ms": 1.2, "request_id": "req-ab12…", ...}

Writes take a lock around a single ``write`` + ``flush`` so concurrent
handler threads never interleave partial lines.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from datetime import datetime, timezone
from typing import Any, IO, Optional

__all__ = ["AccessLogger", "NULL_ACCESS_LOG"]


def _utc_stamp(ts: float) -> str:
    return (
        datetime.fromtimestamp(ts, tz=timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3]
        + "Z"
    )


class AccessLogger:
    """Line-oriented access/event log with human and JSON formats.

    Parameters
    ----------
    stream:
        Target file object (default: ``sys.stderr``, so access lines
        never mix with command output on stdout).
    json_lines:
        Emit one JSON object per line instead of human-readable text.
    enabled:
        A disabled logger's methods are no-ops after one cheap check —
        the default state, so the instrumented frontend costs nothing
        unless the operator opts in.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        *,
        json_lines: bool = False,
        enabled: bool = True,
    ) -> None:
        self.enabled = bool(enabled)
        self.json_lines = bool(json_lines)
        self._stream = stream
        self._lock = threading.Lock()

    @property
    def stream(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stderr

    def _emit(self, line: str) -> None:
        with self._lock:
            try:
                self.stream.write(line + "\n")
                self.stream.flush()
            except (ValueError, OSError):  # closed stream on shutdown
                pass

    # ------------------------------------------------------------------
    def access(
        self,
        *,
        method: str,
        path: str,
        status: int,
        duration: float,
        request_id: Optional[str] = None,
        client: str = "",
        frontend: str = "",
        tenant: Optional[str] = None,
        route: Optional[str] = None,
    ) -> None:
        """One completed HTTP exchange.

        ``route`` is the route *template* (``/v1/apps/{app}``), not the
        concrete path — the same key traces and per-route histograms
        use, so one grep joins all three.
        """
        if not self.enabled:
            return
        now = time.time()
        if self.json_lines:
            record: dict[str, Any] = {
                "ts": round(now, 6),
                "kind": "access",
                "frontend": frontend,
                "client": client,
                "method": method,
                "path": path,
                "status": int(status),
                "duration_ms": round(duration * 1000.0, 3),
            }
            if route:
                record["route"] = route
            if request_id:
                record["request_id"] = request_id
            if tenant:
                record["tenant"] = tenant
            self._emit(json.dumps(record, separators=(",", ":")))
        else:
            rid = f" {request_id}" if request_id else ""
            extra = ""
            if route:
                extra += f" route={route}"
            if tenant:
                extra += f" tenant={tenant}"
            self._emit(
                f"{_utc_stamp(now)} {client or '-'} "
                f'"{method} {path}" {int(status)} '
                f"{duration * 1000.0:.1f}ms{rid}{extra}"
            )

    def event(self, kind: str, **fields: Any) -> None:
        """A lifecycle event (serve_start, recovery, snapshot, ...)."""
        if not self.enabled:
            return
        now = time.time()
        if self.json_lines:
            record = {"ts": round(now, 6), "kind": kind}
            record.update(fields)
            self._emit(json.dumps(record, separators=(",", ":")))
        else:
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            self._emit(f"{_utc_stamp(now)} [{kind}] {detail}".rstrip())


#: Shared disabled logger — the frontend's default.
NULL_ACCESS_LOG = AccessLogger(enabled=False)
