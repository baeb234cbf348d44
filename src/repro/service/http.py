"""The HTTP frontend: the typed API over REST-ish JSON routes.

One transport sits over
:class:`~repro.service.gateway.ServiceGateway`: an event-loop server
(``asyncio.start_server`` plus a small HTTP/1.1 codec, keep-alive
preserved).  A request leaves the loop only when it can block:
read-path requests run inline (the gateway serves them lock-free from
immutable snapshots), and so does an infer whose every row is in the
prediction cache; everything else — mutations, polls of live job
handles, long-polls, infers with a miss — makes one hop to a worker
thread, so the loop never parks on the scheduler lock or behind the
model.

One route table (:func:`route_request`) maps each exchange onto one
typed request; the server dispatches it and writes the response's wire
form.  Errors — including anything unexpected — come back as a JSON
``{"error": {code, message, details}}`` body with the matching HTTP
status; a raw traceback never crosses the socket.

Routes (all under ``/v1``)::

    GET    /v1/info                           server metadata
    POST   /v1/apps                           register an app
    GET    /v1/apps                           list this tenant's apps
    GET    /v1/apps/{app}                     app status
    DELETE /v1/apps/{app}                     close (retire the tenant)
    POST   /v1/apps/{app}/examples            feed example pairs
    GET    /v1/apps/{app}/examples            refine view
    POST   /v1/apps/{app}/examples/{id}       toggle an example
    POST   /v1/apps/{app}/infer               predict
    POST   /v1/jobs                           submit async training
    GET    /v1/jobs[?app=NAME]                list job handles
    GET    /v1/jobs/{job_id}[?wait=SECONDS]   poll one handle
                                              (``wait`` long-polls)
    GET    /v1/events[?kinds=a,b&since=T]     event-log slice
    GET    /v1/events?stream=1                live Server-Sent Events

Authentication is ``Authorization: Bearer <token>``.  Request bodies
are framed by ``Content-Length`` only; a request carrying
``Transfer-Encoding`` is refused with 400.  The request line and
headers are read as one block up to the blank line (one read, at most
64 KiB, else the connection closes); lines end in CRLF, and a block
with a bare-LF line end is refused with 400.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import hmac
import json
import math
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.obs import (
    NULL_ACCESS_LOG,
    NULL_TRACER,
    AccessLogger,
    RequestContext,
    add_span,
    bind_request,
    clear_request,
    new_request_id,
)
from repro.obs.context import REQUEST_ID_HEADER, sanitize_client_id
from repro.service.api import (
    API_VERSION,
    ApiError,
    ApiErrorCode,
    AppStatusRequest,
    CloseAppRequest,
    EventsRequest,
    FeedRequest,
    InferRequest,
    JobStatusRequest,
    ListAppsRequest,
    ListJobsRequest,
    RefineRequest,
    RegisterAppRequest,
    Request,
    ServerInfoRequest,
    SetExampleEnabledRequest,
    SubmitTrainingRequest,
    to_wire,
)
from repro.service.gateway import ServiceGateway
from repro.service.stream import sse_frame

_PREFIX = f"/{API_VERSION}"

#: Reason phrase per status code, for the response status line.
_HTTP_REASONS = {status.value: status.phrase for status in HTTPStatus}

#: Header-count cap for the codec: a single connection must not grow
#: the header dict without bound.
_MAX_HEADERS = 100

#: Body-size cap for the codec: a declared Content-Length is
#: attacker-controlled and buffered before auth, so it must be
#: bounded.  64 MiB comfortably covers the largest legitimate feed
#: batch (the default example-store quota is 16 MiB per tenant).
_MAX_BODY_BYTES = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# The transport-neutral router
# ----------------------------------------------------------------------
#: Operator endpoints served by the frontend itself, before
#: routing and before auth (a scrape agent holds no tenant token):
#: Prometheus text and the JSON equivalent.  Both read the registry
#: lock-free (families snapshot their children per read).
METRICS_PATH = "/metrics"
METRICS_JSON_PATH = f"{_PREFIX}/metrics"

#: Kept traces from the tracer's ring buffer, slowest first.  Filters:
#: ``?tenant=`` / ``?route=`` / ``?min_ms=`` / ``?limit=``.  Gated by
#: the same ``--metrics-token`` as the metrics endpoints (traces leak
#: tenant names and request shapes).
TRACES_PATH = f"{_PREFIX}/traces"


class _Target(NamedTuple):
    """A request target parsed once: the frontend derives the route,
    the metric label and the operator-plane match from these parts."""

    raw: str
    path: str
    parts: List[str]
    query: str


def _parse_target(target: Union[str, _Target]) -> _Target:
    if isinstance(target, _Target):
        return target
    url = urlparse(target)
    return _Target(
        target, url.path, [p for p in url.path.split("/") if p], url.query
    )


def route_template(method: str, path: Union[str, _Target]) -> str:
    """Collapse a request target onto its route template.

    Metric labels must be bounded: labelling by raw path would mint
    one time series per app name, job id, and typo'd URL.  Unknown
    paths all collapse into ``(unmatched)``.
    """
    target = _parse_target(path)
    parts = target.parts
    if target.path == METRICS_PATH:
        return METRICS_PATH
    if not parts or parts[0] != API_VERSION:
        return "(unmatched)"
    rest = parts[1:]
    if rest == ["metrics"]:
        return METRICS_JSON_PATH
    if rest == ["traces"]:
        return TRACES_PATH
    if rest in (["info"], ["apps"], ["jobs"], ["events"]):
        return f"{_PREFIX}/{rest[0]}"
    if len(rest) == 2 and rest[0] == "apps":
        return f"{_PREFIX}/apps/{{app}}"
    if len(rest) == 2 and rest[0] == "jobs":
        return f"{_PREFIX}/jobs/{{job}}"
    if len(rest) == 3 and rest[0] == "apps" and rest[2] in (
        "examples", "infer"
    ):
        return f"{_PREFIX}/apps/{{app}}/{rest[2]}"
    if len(rest) == 4 and rest[0] == "apps" and rest[2] == "examples":
        return f"{_PREFIX}/apps/{{app}}/examples/{{id}}"
    return "(unmatched)"


def _register_http_metrics(gateway: ServiceGateway):
    """The per-route request metric families."""
    registry = gateway.metrics
    return (
        registry.counter(
            "http_requests_total",
            "HTTP requests completed, by route and status.",
            ["frontend", "method", "route", "status"],
        ),
        registry.histogram(
            "http_request_seconds",
            "Wall-clock request latency at the HTTP frontend.",
            ["frontend", "route"],
        ),
        registry.counter(
            "http_errors_total",
            "HTTP requests that answered with an ApiError, by code.",
            ["frontend", "route", "code"],
        ),
        registry.histogram(
            "http_worker_wait_seconds",
            "Time a request that left the event loop waited for its "
            "worker thread to start it.",
        ),
    )


def metrics_endpoint(
    gateway: ServiceGateway,
    path: Union[str, _Target],
    *,
    auth_header: str = "",
    metrics_token: Optional[str] = None,
) -> Optional[Tuple[int, bytes, str]]:
    """Serve the operator plane if ``path`` is one of its endpoints:
    ``GET /metrics``, ``GET /v1/metrics``, ``GET /v1/traces``.

    Returns ``(status, body, content_type)`` or ``None`` when the path
    is not an operator endpoint.  Exposition is read-only over
    snapshot copies, so the frontend serves it inline on the lock-free
    path.

    By default scrapes are unauthenticated (a scrape agent holds no
    tenant token), which exposes tenant names and per-tenant traffic
    patterns to any network peer.  ``metrics_token`` opts into gating:
    when set, scrapes must present ``Authorization: Bearer <token>``
    or they answer 401 (``--metrics-token`` on ``repro serve``).  The
    token gates traces too — a trace body names tenants and routes.
    """
    target = _parse_target(path)
    bare = target.path
    if bare not in (METRICS_PATH, METRICS_JSON_PATH, TRACES_PATH):
        return None
    if metrics_token is not None and not hmac.compare_digest(
        bearer_token(auth_header), metrics_token
    ):
        error = ApiError(
            ApiErrorCode.UNAUTHORIZED,
            "metrics scrapes on this server require "
            "'Authorization: Bearer <metrics token>' "
            "(started with --metrics-token)",
        )
        body = json.dumps(
            {"api_version": API_VERSION, "error": error.to_dict()}
        ).encode("utf-8")
        return error.http_status, body, "application/json"
    if bare == TRACES_PATH:
        query = parse_qs(target.query)
        try:
            min_ms = float(query.get("min_ms", ["0"])[0] or 0.0)
            limit = int(query.get("limit", ["50"])[0] or 50)
        except ValueError:
            error = ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                "traces filters min_ms/limit must be numeric",
            )
            body = json.dumps(
                {"api_version": API_VERSION, "error": error.to_dict()}
            ).encode("utf-8")
            return error.http_status, body, "application/json"
        tracer = getattr(gateway, "tracer", NULL_TRACER)
        traces = tracer.snapshot(
            tenant=query.get("tenant", [None])[0],
            route=query.get("route", [None])[0],
            min_ms=min_ms,
            limit=limit,
        )
        body = json.dumps(
            {"api_version": API_VERSION, "traces": traces}
        ).encode("utf-8")
        return 200, body, "application/json"
    # SLO gauges are derived values; refresh them so the scrape reads
    # the attainment/burn of this instant, not of the last request.
    slo = getattr(gateway, "slo", None)
    if slo is not None:
        slo.export()
    if bare == METRICS_PATH:
        body = gateway.metrics.render_prometheus().encode("utf-8")
        return 200, body, "text/plain; version=0.0.4; charset=utf-8"
    body = json.dumps(
        {"api_version": API_VERSION, "metrics": gateway.metrics.to_dict()}
    ).encode("utf-8")
    return 200, body, "application/json"


def error_headers(exc: ApiError) -> Optional[Dict[str, str]]:
    """Transport headers an error carries: a rate-limited request
    (429, ``retry_after`` detail from the infer plane's token bucket)
    gets a standard ``Retry-After`` header so generic HTTP clients
    back off without parsing the JSON body."""
    retry_after = exc.details.get("retry_after")
    if retry_after is None:
        return None
    # Retry-After is delta-seconds; ceil so "0.2s" doesn't round to an
    # immediate (still-limited) retry.
    return {"Retry-After": str(max(1, math.ceil(float(retry_after))))}


def bearer_token(header: str) -> str:
    """Extract the token from an ``Authorization: Bearer …`` value."""
    if header.startswith("Bearer "):
        return header[len("Bearer "):].strip()
    return ""


def decode_body(raw: bytes) -> Dict[str, Any]:
    """Parse a request body; empty bytes mean an empty JSON object."""
    if not raw:
        return {}
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise ApiError(
            ApiErrorCode.INVALID_ARGUMENT,
            "request body is not valid JSON",
        ) from None
    if not isinstance(data, dict):
        raise ApiError(
            ApiErrorCode.INVALID_ARGUMENT,
            "request body must be a JSON object",
        )
    return data


def route_request(
    method: str,
    path: Union[str, _Target],
    body: Dict[str, Any],
    token: str,
) -> Request:
    """Map one parsed HTTP exchange onto a typed gateway request.

    ``path`` is the raw request target (query string included), or
    the frontend's already-parsed form of it; ``body`` the decoded
    JSON object (mutated: ``api_version`` is popped).  Raises
    :class:`ApiError` for unknown routes and malformed parameters —
    never anything untyped.
    """
    target = _parse_target(path)
    parts = target.parts
    query = parse_qs(target.query)
    path = target.raw
    if not parts or parts[0] != API_VERSION:
        raise ApiError(
            ApiErrorCode.NOT_FOUND,
            f"unknown path {path!r}; routes live under "
            f"{_PREFIX}/ (see the API reference in the README)",
        )
    version = body.pop("api_version", API_VERSION)
    common = dict(auth_token=token, api_version=version)
    try:
        return _build_request(method, parts[1:], body, query, common, path)
    except ApiError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ApiError(
            ApiErrorCode.INVALID_ARGUMENT,
            f"malformed request for {method} {path!r}: {exc}",
        ) from None


def _build_request(method, rest, body, query, common, path) -> Request:
    if rest == ["info"] and method == "GET":
        return ServerInfoRequest(**common)
    if rest == ["apps"]:
        if method == "POST":
            return RegisterAppRequest(
                app=body["app"], program=body["program"], **common
            )
        if method == "GET":
            return ListAppsRequest(**common)
    if len(rest) == 2 and rest[0] == "apps" and method == "GET":
        return AppStatusRequest(app=rest[1], **common)
    if len(rest) == 2 and rest[0] == "apps" and method == "DELETE":
        return CloseAppRequest(app=rest[1], **common)
    if len(rest) == 3 and rest[0] == "apps" and rest[2] == "examples":
        if method == "POST":
            return FeedRequest(
                app=rest[1],
                inputs=tuple(body.get("inputs", ())),
                outputs=tuple(body.get("outputs", ())),
                **common,
            )
        if method == "GET":
            return RefineRequest(app=rest[1], **common)
    if (
        len(rest) == 4
        and rest[0] == "apps"
        and rest[2] == "examples"
        and method == "POST"
    ):
        enabled = body["enabled"]
        if not isinstance(enabled, bool):
            # bool("false") is True — reject instead of guessing.
            raise ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                f"'enabled' must be a JSON boolean, got "
                f"{enabled!r}",
            )
        return SetExampleEnabledRequest(
            app=rest[1],
            example_id=int(rest[3]),
            enabled=enabled,
            **common,
        )
    if (
        len(rest) == 3
        and rest[0] == "apps"
        and rest[2] == "infer"
        and method == "POST"
    ):
        # Single-row ({"x": [...]}, the v1 shape) and batch
        # ({"rows": [[...], ...]}) share one route; the gateway
        # validates that exactly one is present.
        return InferRequest(
            app=rest[1],
            x=tuple(body.get("x", ())),
            rows=tuple(tuple(row) for row in body.get("rows", ())),
            **common,
        )
    if rest == ["jobs"]:
        if method == "POST":
            return SubmitTrainingRequest(
                app=body["app"],
                steps=int(body.get("steps", 1)),
                **common,
            )
        if method == "GET":
            app = query.get("app", [None])[0]
            return ListJobsRequest(app=app, **common)
    if len(rest) == 2 and rest[0] == "jobs" and method == "GET":
        # ``wait`` long-polls: the gateway holds the request until the
        # handle leaves PENDING/RUNNING or the wait expires.
        wait = float(query.get("wait", ["0"])[0] or 0.0)
        return JobStatusRequest(job_id=rest[1], wait=wait, **common)
    if rest == ["events"] and method == "GET":
        kinds = query.get("kinds", [None])[0]
        stream = query.get("stream", ["0"])[0]
        return EventsRequest(
            kinds=tuple(kinds.split(",")) if kinds else None,
            since=float(query.get("since", ["0"])[0]),
            stream=stream.lower() in ("1", "true", "yes"),
            **common,
        )
    raise ApiError(
        ApiErrorCode.NOT_FOUND,
        f"no route for {method} {path!r}; see the API "
        "reference table in the README",
    )


# ----------------------------------------------------------------------
# The server (event loop + HTTP/1.1 codec)
# ----------------------------------------------------------------------
class AsyncServiceHTTPServer:
    """The event-loop HTTP frontend.

    One OS thread runs the asyncio loop; every connection is a
    coroutine speaking a minimal HTTP/1.1 with keep-alive.  Requests
    are dispatched so the loop itself never blocks, and so nothing
    that cannot block pays a thread hop (a loop -> worker -> loop
    round trip is two thread wake-ups and two GIL hand-offs — about
    0.5 ms on a 2-core host, more than most handlers):

    * **reads** (``gateway.is_read``) run inline — the gateway serves
      them lock-free from immutable snapshots; a poll or ``wait`` on
      a terminal job handle is one of them;
    * **infers** start inline (``gateway.handle(request,
      may_block=False)``): validation, admission and the cache probe
      are pure CPU, and a full hit is answered right there.  A request
      with a miss comes back as the blocking remainder, which runs on
      the worker pool with the probe's products — it may park behind
      a running predict;
    * **mutations and polls of live job handles** run
      ``gateway.handle`` on this server's worker pool (they take the
      gateway lock, which orders writes; a connection sends its next
      request only after this one's response, so there is no other
      order to keep), and a **long-poll** on its own pool (it parks on
      a handle's done event).

    Every hop is timed: a ``queue.wait`` span in the request's trace
    and one ``http_worker_wait_seconds`` observation, from the submit
    on the loop to the first instruction on the worker.

    The public surface is the ``socketserver`` one the CLI and tests
    drive: :meth:`serve_forever`, :meth:`shutdown`,
    :meth:`server_close`, ``port``, ``url``.  The listening socket is
    bound in the constructor, so ``port`` is valid before the loop
    starts.
    """

    def __init__(
        self,
        address,
        gateway: ServiceGateway,
        *,
        access_log: Optional[AccessLogger] = None,
        metrics_token: Optional[str] = None,
        reuse_port: bool = False,
    ) -> None:
        self.gateway = gateway
        self.access_log = access_log or NULL_ACCESS_LOG
        self.metrics_token = metrics_token
        self.tracer = getattr(gateway, "tracer", NULL_TRACER)
        #: Optional per-response header hook: a gateway (the replica
        #: facade) exposing ``extra_response_headers()`` gets its
        #: headers (e.g. ``X-Replica-Lag``) attached to every reply.
        self.extra_headers = getattr(
            gateway, "extra_response_headers", None
        )
        (
            self.m_requests,
            self.m_latency,
            self.m_errors,
            self.m_worker_wait,
        ) = _register_http_metrics(gateway)
        self._socket = socket.create_server(
            address, reuse_port=reuse_port
        )
        #: Remembered at bind time: the loop closes the socket on its
        #: way out, and ``url`` is still read after that (shutdown
        #: logging).
        self._host, self._port = self._socket.getsockname()[:2]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[int] = None
        self._aio_server: Optional[asyncio.base_events.Server] = None
        self._shutdown_future: Optional[asyncio.Future] = None
        self._conn_tasks: set = set()
        self._started = threading.Event()
        self._stopped = threading.Event()
        #: Interrupts gateway long-polls on shutdown (see
        #: ServiceGateway.add_wait_abort).
        self._closing = threading.Event()
        gateway.add_wait_abort(self._closing)
        #: Worker pools for requests that can block.  Private (not the
        #: loop's default executor) so shutdown never joins a thread
        #: that is still parked in a wait — and split in two so
        #: long-polls parked for up to MAX_WAIT_SECONDS cannot starve
        #: mutations, live-job polls and infers of workers.
        self._pool = ThreadPoolExecutor(
            max_workers=16, thread_name_prefix="easeml-aio"
        )
        self._wait_pool = ThreadPoolExecutor(
            max_workers=16, thread_name_prefix="easeml-aio-wait"
        )

    # -- the socketserver-style surface --------------------------------
    @property
    def port(self) -> int:
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}"

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        try:
            asyncio.run(self._serve())
        finally:
            self._started.set()  # unblock a waiting serve_background
            self._stopped.set()

    def wait_started(self, timeout: float = 10.0) -> None:
        """Block until the loop is accepting connections."""
        if not self._started.wait(timeout):
            raise RuntimeError(
                "the HTTP frontend did not start within "
                f"{timeout}s; is another serve_forever running?"
            )
        if self._stopped.is_set() and not self._closing.is_set():
            raise RuntimeError(
                "the HTTP frontend exited before accepting "
                "connections (see the server thread's traceback)"
            )

    def shutdown(self) -> None:
        """Stop serving: wakes long-polls, closes connections, returns
        once the loop has exited (mirrors ``socketserver`` semantics).

        Called on the loop's own thread (a signal handler of the
        process whose main thread is in :meth:`serve_forever`) it only
        asks: the loop cannot exit while its thread waits for it to.
        """
        self._closing.set()
        loop = self._loop
        if loop is not None and not loop.is_closed():
            def _resolve() -> None:
                if (
                    self._shutdown_future is not None
                    and not self._shutdown_future.done()
                ):
                    self._shutdown_future.set_result(None)

            try:
                loop.call_soon_threadsafe(_resolve)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if (
            self._started.is_set()
            and threading.get_ident() != self._loop_thread
        ):
            self._stopped.wait(timeout=30.0)

    def server_close(self) -> None:
        self._closing.set()
        self.gateway.remove_wait_abort(self._closing)
        self._pool.shutdown(wait=False)
        self._wait_pool.shutdown(wait=False)
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - already closed
            pass

    # -- the loop ------------------------------------------------------
    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        self._shutdown_future = self._loop.create_future()
        self._aio_server = await asyncio.start_server(
            self._serve_connection, sock=self._socket
        )
        self._started.set()
        if self._closing.is_set():
            # shutdown() ran before the loop existed: honour it now
            # (socketserver's shutdown-before-serve_forever exits too).
            self._shutdown_future.set_result(None)
        try:
            await self._shutdown_future
        finally:
            self._aio_server.close()
            await self._aio_server.wait_closed()
            # In-flight handlers: cancel and collect.  Long-polls have
            # already been woken via the abort event, so tasks pinned
            # on executor futures resolve quickly.
            pending = [t for t in list(self._conn_tasks) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=10.0)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except (
            # EOF before a whole header block (a clean keep-alive close
            # when nothing was sent), a block past the 64 KiB limit,
            # a reset, shutdown: just close.
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _connection_loop(self, reader, writer) -> None:
        while not self._closing.is_set():
            # Request line and headers in one read, up to the blank
            # line (the reader's 64 KiB limit bounds it).
            block = await reader.readuntil(b"\r\n\r\n")
            # The request clock starts when the header block lands —
            # not when the connection went idle on keep-alive.
            decode_started = time.perf_counter()
            if block.count(b"\n") != block.count(b"\r\n"):
                await self._refuse(
                    writer, "header lines must end in CRLF, not a bare LF"
                )
                return
            lines = block.decode("latin-1").split("\r\n")
            try:
                method, raw_target, version = lines[0].strip().split(" ", 2)
                target = _parse_target(raw_target)
            except ValueError:
                return  # not HTTP; drop the connection
            # The block ends in CRLF CRLF: the last two pieces are empty.
            if len(lines) - 3 > _MAX_HEADERS:
                await self._refuse(
                    writer, f"got more than {_MAX_HEADERS} headers"
                )
                return
            headers: Dict[str, str] = {}
            for line in lines[1:-2]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            if "transfer-encoding" in headers:
                # Chunk bytes read as Content-Length framing would be
                # parsed as the next request line.
                await self._refuse(
                    writer,
                    "Transfer-Encoding is not supported; send "
                    "Content-Length",
                )
                return
            try:
                length = int(headers.get("content-length") or 0)
                if length < 0:
                    raise ValueError("negative Content-Length")
                if length > _MAX_BODY_BYTES:
                    raise ValueError("oversized Content-Length")
            except ValueError:
                await self._refuse(
                    writer,
                    f"malformed Content-Length header (bodies are "
                    f"capped at {_MAX_BODY_BYTES} bytes)",
                )
                return
            raw = await reader.readexactly(length) if length else b""
            decode_end = time.perf_counter()
            connection = headers.get("connection", "").lower()
            keep_alive = (
                connection != "close"
                and not (version == "HTTP/1.0" and connection != "keep-alive")
            )
            context = bind_request(
                RequestContext(
                    request_id=sanitize_client_id(
                        headers.get(REQUEST_ID_HEADER.lower())
                    )
                    or new_request_id(),
                    started=decode_started,
                    frontend="asyncio",
                )
            )
            self.tracer.start(context)
            add_span("frontend.decode", decode_started, decode_end)
            route = route_template(method, target)
            status, closing = 500, True  # until proven otherwise
            try:
                served = (
                    metrics_endpoint(
                        self.gateway,
                        target,
                        auth_header=headers.get("authorization", ""),
                        metrics_token=self.metrics_token,
                    )
                    if method == "GET"
                    else None
                )
                if _wants_stream(method, target):
                    # SSE subscription: the response never ends, so it
                    # bypasses the framed write below entirely and the
                    # connection dies with the stream.
                    status = await self._stream_events(
                        writer, headers, context
                    )
                    closing = True
                else:
                    if served is not None:
                        status, body_bytes, content_type = served
                        fatal = False
                        error_hdrs = None
                    else:
                        (
                            status,
                            payload,
                            fatal,
                            error_hdrs,
                        ) = await self._respond(
                            method, target, route, headers, raw, context
                        )
                        body_bytes = json.dumps(payload).encode("utf-8")
                        content_type = "application/json"
                    closing = fatal or not keep_alive
                    extra = (
                        dict(self.extra_headers())
                        if self.extra_headers is not None
                        else {}
                    )
                    if error_hdrs:
                        extra.update(error_hdrs)
                    await self._write_response(
                        writer,
                        status,
                        body_bytes,
                        closing=closing,
                        content_type=content_type,
                        request_id=context.request_id,
                        extra_headers=extra or None,
                    )
            finally:
                duration = context.elapsed()
                self.m_requests.labels(
                    "asyncio", method, route, status
                ).inc()
                self.m_latency.labels("asyncio", route).observe(duration)
                self.tracer.finish(
                    context,
                    route=route,
                    status=status,
                    tenant=context.tenant,
                    frontend="asyncio",
                )
                peer = writer.get_extra_info("peername")
                self.access_log.access(
                    method=method,
                    path=raw_target,
                    status=status,
                    duration=duration,
                    request_id=context.request_id,
                    client=peer[0] if peer else "",
                    frontend="asyncio",
                    tenant=context.tenant or None,
                    route=route,
                )
                clear_request()
            if closing:
                return

    async def _refuse(self, writer, message: str) -> None:
        """Malformed or abusive framing: answer 400 like every other
        bad input, then close (the body can't be — or must not be —
        buffered, so the connection cannot be reused)."""
        error = ApiError(ApiErrorCode.INVALID_ARGUMENT, message)
        await self._write_response(
            writer,
            error.http_status,
            {"api_version": API_VERSION, "error": error.to_dict()},
            closing=True,
        )

    @staticmethod
    async def _write_response(
        writer,
        status,
        payload,
        *,
        closing,
        content_type: str = "application/json",
        request_id: Optional[str] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8")
        )
        reason = _HTTP_REASONS.get(status, "Unknown")
        rid_header = (
            f"{REQUEST_ID_HEADER}: {request_id}\r\n" if request_id else ""
        )
        more = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{rid_header}"
                f"{more}"
                f"Connection: {'close' if closing else 'keep-alive'}"
                "\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

    async def _respond(
        self,
        method: str,
        target: _Target,
        route: str,
        headers: Dict[str, str],
        raw: bytes,
        context: RequestContext,
    ) -> Tuple[int, Dict[str, Any], bool, Optional[Dict[str, str]]]:
        """One exchange -> (status, JSON payload, close-connection,
        extra response headers)."""
        try:
            body = decode_body(raw)
            token = bearer_token(headers.get("authorization", ""))
            request = route_request(method, target, body, token)
            response = await self._dispatch(request)
            return 200, to_wire(response), False, None
        except ApiError as exc:
            exc.request_id = exc.request_id or context.request_id
            self.m_errors.labels("asyncio", route, exc.code.value).inc()
            return (
                exc.http_status,
                {"api_version": API_VERSION, "error": exc.to_dict()},
                False,
                error_headers(exc),
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - transport boundary
            error = ApiError(
                ApiErrorCode.INTERNAL,
                f"unexpected {type(exc).__name__} in the HTTP frontend",
                error_type=type(exc).__name__,
            )
            error.request_id = context.request_id
            self.m_errors.labels("asyncio", route, error.code.value).inc()
            # The connection state is unknown; close after replying.
            return (
                error.http_status,
                {"api_version": API_VERSION, "error": error.to_dict()},
                True,
                None,
            )

    async def _dispatch(self, request: Request):
        gateway = self.gateway
        if gateway.is_read(request):
            # Lock-free snapshot read: safe (and fast) inline.
            return gateway.handle(request)
        if isinstance(request, InferRequest):
            # Validation, admission and the cache probe are pure CPU,
            # so they run here; a full hit is the answer.  Only what
            # can park behind a running predict — a miss — pays the
            # hop, and ``work`` carries what the probe already did.
            work = gateway.handle(request, may_block=False)
            if not callable(work):
                return work
        else:
            # A mutation, or a poll of a live handle (it advances the
            # shared cluster): both serialise on the gateway lock.
            work = functools.partial(gateway.handle, request)
        # A long-poll parks for seconds; it gets its own pool so parked
        # waiters cannot starve everything else of workers.
        pool = (
            self._wait_pool
            if isinstance(request, JobStatusRequest)
            and float(request.wait or 0.0) > 0
            else self._pool
        )
        # run_in_executor starts the callable in an EMPTY context;
        # snapshot this coroutine's context so the worker thread sees
        # the same request id (it lands in journal records).
        snapshot = contextvars.copy_context()
        return await asyncio.get_running_loop().run_in_executor(
            pool, snapshot.run, self._on_worker, work, time.perf_counter()
        )

    def _on_worker(self, work, enqueued: float):
        """The far side of the hop: account the wait, run ``work``."""
        started = time.perf_counter()
        add_span("queue.wait", enqueued, started)
        self.m_worker_wait.observe(started - enqueued)
        return work()

    # -- server-sent events (GET /v1/events?stream=1) ------------------
    async def _stream_events(
        self, writer, headers: Dict[str, str], context: RequestContext
    ) -> int:
        """Serve one SSE subscription until the peer or server closes.

        Frames are ``id:``/``event:``/``data:`` per event (see
        :func:`repro.service.stream.sse_frame`), with a comment-line
        keep-alive every second of silence so dead peers are detected
        and proxies keep the connection warm.
        """
        gateway = self.gateway
        token = bearer_token(headers.get("authorization", ""))
        broker = getattr(gateway, "events_broker", None)
        try:
            if broker is None:
                raise ApiError(
                    ApiErrorCode.UNSUPPORTED,
                    "this server does not publish an event stream "
                    "(replicas serve snapshot reads only; subscribe "
                    "on the writer)",
                )
            tenant = gateway.authenticate_token(token)
        except ApiError as exc:
            exc.request_id = exc.request_id or context.request_id
            await self._write_response(
                writer,
                exc.http_status,
                {"api_version": API_VERSION, "error": exc.to_dict()},
                closing=True,
                request_id=context.request_id,
            )
            self.m_errors.labels(
                "asyncio", f"{_PREFIX}/events", exc.code.value
            ).inc()
            return exc.http_status
        context.tenant = tenant
        subscription = broker.subscribe(tenant)
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                f"{REQUEST_ID_HEADER}: {context.request_id}\r\n"
                "Connection: close\r\n"
                "\r\n"
                ": stream open\n\n"
            ).encode("latin-1")
        )
        loop = asyncio.get_running_loop()
        try:
            await writer.drain()
            while not self._closing.is_set():
                # The 1s tick doubles as the shutdown check and the
                # keep-alive beat; the blocking get runs on a worker
                # thread so the loop stays free.
                event = await loop.run_in_executor(
                    self._wait_pool, subscription.get, 1.0
                )
                if self._closing.is_set():
                    break
                if event is None:
                    writer.write(b": keep-alive\n\n")
                else:
                    writer.write(sse_frame(event))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # peer hung up: normal end of a stream
        except RuntimeError:
            # Executor already shut down: the server is closing; the
            # connection is torn down right after this returns.
            pass
        finally:
            subscription.close()
        return 200


def _wants_stream(method: str, target: _Target) -> bool:
    """Is this exchange asking for the SSE event stream?"""
    if method != "GET" or target.path != f"{_PREFIX}/events":
        return False
    raw = parse_qs(target.query).get("stream", ["0"])[0]
    return raw.lower() in ("1", "true", "yes")


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def supports_reuse_port() -> bool:
    """Can this platform stack server processes on one port?"""
    return hasattr(socket, "SO_REUSEPORT")


def serve(
    gateway: ServiceGateway,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    access_log: Optional[AccessLogger] = None,
    metrics_token: Optional[str] = None,
    reuse_port: bool = False,
) -> AsyncServiceHTTPServer:
    """Bind (but do not start) the HTTP server for ``gateway``.

    ``port=0`` picks a free port.  ``access_log`` enables per-request
    structured logging (default: disabled).  ``metrics_token`` gates
    the otherwise-unauthenticated ``/metrics`` endpoints behind a
    bearer token (default: open).  ``reuse_port`` binds with
    ``SO_REUSEPORT`` so multiple server processes (the replica front
    tier) can share one listening port — the kernel balances
    connections across them.  Call ``serve_forever()`` to block, or
    :func:`serve_background` to run it on a daemon thread.
    """
    return AsyncServiceHTTPServer(
        (host, port), gateway,
        access_log=access_log, metrics_token=metrics_token,
        reuse_port=reuse_port,
    )


def serve_background(
    gateway: ServiceGateway,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    access_log: Optional[AccessLogger] = None,
    metrics_token: Optional[str] = None,
    reuse_port: bool = False,
) -> Tuple[AsyncServiceHTTPServer, threading.Thread]:
    """Start the HTTP server on a daemon thread; returns (server, thread)."""
    server = serve(
        gateway, host, port,
        access_log=access_log, metrics_token=metrics_token,
        reuse_port=reuse_port,
    )
    thread = threading.Thread(
        target=server.serve_forever, name="easeml-http", daemon=True
    )
    thread.start()
    server.wait_started()
    return server, thread
