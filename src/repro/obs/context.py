"""Request tracing context: one ``request_id`` from socket to WAL.

The HTTP frontend mints (or accepts) a request id per request, binds a
:class:`RequestContext` for the duration of handling, and echoes the id
back as ``X-Request-ID``.  Everything downstream — gateway handlers,
journal appends, error bodies, access-log lines — reads the ambient
context instead of threading the id through every signature.

The carrier is a :mod:`contextvars` variable, which follows the
request across ``await`` points on the frontend's event loop.  One
hop does NOT propagate it automatically and must capture it
explicitly: ``loop.run_in_executor`` starts the callable in an *empty*
context — the frontend wraps it with
``contextvars.copy_context().run(...)`` at submit time.
"""

from __future__ import annotations

import contextvars
import secrets
import time
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "RequestContext",
    "bind_request",
    "clear_request",
    "current_request",
    "current_request_id",
    "new_request_id",
]

#: Header the frontend reads (client-supplied id) and always writes.
REQUEST_ID_HEADER = "X-Request-ID"

#: Request ids the server will accept from clients must stay modest:
#: they land in log lines and journal records verbatim.
_MAX_CLIENT_ID_LEN = 128


def new_request_id() -> str:
    """A fresh server-minted request id (``req-`` + 16 hex chars)."""
    return f"req-{secrets.token_hex(8)}"


def sanitize_client_id(raw: Optional[str]) -> Optional[str]:
    """A client-supplied ``X-Request-ID``, or None if unusable.

    Printable ASCII only, bounded length — the id is echoed into logs,
    error bodies, and durable journal records.
    """
    if not raw:
        return None
    raw = raw.strip()
    if not raw or len(raw) > _MAX_CLIENT_ID_LEN:
        return None
    if not (raw.isascii() and raw.isprintable()):
        return None
    return raw


@dataclass
class RequestContext:
    """Everything tracing carries alongside one in-flight request."""

    request_id: str = field(default_factory=new_request_id)
    #: Monotonic start, for duration math in access logs.
    started: float = field(default_factory=time.perf_counter)
    #: Which frontend accepted the request ("asyncio" | "cli" | ...),
    #: for log lines.
    frontend: str = ""
    #: The span accumulator (:class:`repro.obs.tracing.TraceState`)
    #: when head sampling kept this request; None when dropped —
    #: every ``span()`` call site then costs one attribute read.
    trace: Optional[Any] = None
    #: Authenticated tenant name, filled in by the gateway once the
    #: token resolves; access logs and traces read it on the way out.
    tenant: str = ""

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


_current: contextvars.ContextVar[Optional[RequestContext]] = (
    contextvars.ContextVar("repro_request_context", default=None)
)


def bind_request(
    context: Optional[RequestContext] = None,
    *,
    request_id: Optional[str] = None,
    frontend: str = "",
) -> RequestContext:
    """Install ``context`` (or a fresh one) as the ambient request.

    Returns the bound context.  Callers that need strict scoping keep
    the returned token discipline out of the hot path by calling
    :func:`clear_request` in a ``finally``.
    """
    if context is None:
        context = RequestContext(
            request_id=request_id or new_request_id(), frontend=frontend
        )
    _current.set(context)
    return context


def clear_request() -> None:
    """Drop the ambient request context."""
    _current.set(None)


def current_request() -> Optional[RequestContext]:
    """The ambient :class:`RequestContext`, or None outside a request."""
    return _current.get()


def current_request_id() -> Optional[str]:
    """Shorthand for the ambient request id (None outside a request)."""
    context = _current.get()
    return context.request_id if context is not None else None
