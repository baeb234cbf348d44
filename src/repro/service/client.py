"""EaseMLClient: the Python SDK for the HTTP service.

The client speaks the same typed vocabulary as the gateway — every
method returns a response dataclass from :mod:`repro.service.api`, and
every service failure raises the original :class:`ApiError`
reconstructed from the wire (code, message, and details intact), so
in-process and over-the-socket callers handle errors identically.

Quickstart::

    client = EaseMLClient("http://127.0.0.1:8080", token)
    client.register_app("moons", "{input: {[Tensor[2]], []}, "
                                 "output: {[Tensor[2]], []}}")
    client.feed("moons", X.tolist(), [int(v) for v in y])
    handles = client.submit_training("moons", steps=4)
    for handle in handles:
        status = client.wait(handle.job_id)
        print(status.candidate, status.accuracy)
    print(client.infer("moons", X[0].tolist()).prediction)

Transport: the client speaks keep-alive HTTP/1.1 itself over one socket
per client (plus one per live event stream) — a request is one
``sendall`` of head and body, a response a status line, headers read
line by line into a dict, and a ``Content-Length`` body.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple
from urllib.parse import urlencode, urlparse

from repro.obs.context import REQUEST_ID_HEADER, new_request_id
from repro.service.api import (
    API_VERSION,
    REPLICA_LAG_HEADER,
    ApiError,
    ApiErrorCode,
    AppStatusResponse,
    CloseAppResponse,
    EventsResponse,
    FeedResponse,
    InferResponse,
    JobHandle,
    JobStatusResponse,
    ListAppsResponse,
    ListJobsResponse,
    RefineResponse,
    RegisterAppResponse,
    ServerInfoResponse,
    SetExampleEnabledResponse,
    SubmitTrainingResponse,
    from_wire,
)


#: Longest status or header line a response may carry, and most
#: header lines: past either the peer is not this server.
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: Bytes a request target may not contain: they would split or end
#: the request line.
_BAD_TARGET = re.compile(r"[\x00-\x20\x7f]")

_REQUEST_ID = REQUEST_ID_HEADER.lower()
_REPLICA_LAG = REPLICA_LAG_HEADER.lower()


class _Connection:
    """One keep-alive HTTP/1.1 connection to the service.

    A request is one ``sendall`` of the head plus the body; a response
    is the status line and headers, read with the buffered file's
    ``readline`` into a dict with lower-cased names, then exactly
    ``Content-Length`` body bytes.  Every failure — refused, reset,
    closed early, malformed — surfaces as ``ConnectionError`` or
    ``OSError`` (a socket timeout is one).
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.rfile = self.sock.makefile("rb")
        except OSError:
            self.sock.close()
            raise
        if ":" in host:
            host = f"[{host}]"
        self.host_header = host if port == 80 else f"{host}:{port}"

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def send(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: Optional[bytes] = None,
    ) -> None:
        if _BAD_TARGET.search(target):
            raise ValueError(
                f"request target {target!r} contains whitespace or "
                "control characters"
            )
        lines = [f"{method} {target} HTTP/1.1", f"Host: {self.host_header}"]
        for name, value in headers.items():
            if "\r" in value or "\n" in value:
                raise ValueError(f"invalid value for header {name!r}")
            lines.append(f"{name}: {value}")
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body if body else head)

    def read_head(self) -> Tuple[int, Dict[str, str]]:
        """The status code and the headers of the next response."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            raise ConnectionError("the server closed the connection")
        parts = line.split(None, 2)
        try:
            if not parts[0].startswith(b"HTTP/"):
                raise ValueError(parts[0])
            status = int(parts[1])
        except (IndexError, ValueError):
            raise ConnectionError(
                f"malformed status line {line[:80]!r}"
            ) from None
        headers: Dict[str, str] = {}
        while True:
            line = self.rfile.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n", b""):
                return status, headers
            if len(line) > _MAX_LINE or len(headers) >= _MAX_HEADERS:
                raise ConnectionError("oversized response head")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    def read_body(self, headers: Dict[str, str]) -> bytes:
        length = headers.get("content-length")
        if length is None:
            return self.rfile.read()  # framed by the server's close
        try:
            size = int(length)
        except ValueError:
            raise ConnectionError(
                f"malformed Content-Length {length!r}"
            ) from None
        body = self.rfile.read(size)
        if len(body) < size:
            raise ConnectionError(
                f"response body ended after {len(body)} of {size} bytes"
            )
        return body


def _will_close(headers: Dict[str, str]) -> bool:
    """Does this response end its connection?"""
    return (
        headers.get("connection", "").lower() == "close"
        or "content-length" not in headers
    )


def _get_once(
    url: str, path: str, *, token: Optional[str] = None, timeout: float
) -> Tuple[int, bytes]:
    """One ``GET`` on a fresh connection: ``(status, body)``.

    For one-shot tools (metrics scrapes); raises ``ConnectionError`` /
    ``OSError`` when the server cannot be reached or answers garbage.
    """
    parsed = urlparse(url)
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    conn = _Connection(parsed.hostname or url, parsed.port or 80, timeout)
    try:
        conn.send("GET", path, headers)
        status, response_headers = conn.read_head()
        return status, conn.read_body(response_headers)
    finally:
        conn.close()


class AmbiguousMutationError(ConnectionError):
    """A mutating request was sent but no response came back.

    The server may or may not have applied it; the client will not
    replay it automatically (that could apply it twice).  Callers that
    know the operation is safe to repeat can catch this and retry.
    """


class EaseMLClient:
    """HTTP client for the versioned multi-tenant service.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8080"``.
    token:
        The tenant auth token issued by the operator.
    timeout:
        Socket timeout in seconds for each request.
    """

    def __init__(
        self, base_url: str, token: str, *, timeout: float = 30.0
    ) -> None:
        parsed = urlparse(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(
                f"only http:// endpoints are supported, got {base_url!r}"
            )
        self.host = parsed.hostname or base_url
        self.port = parsed.port or 80
        self.token = token
        self.timeout = float(timeout)
        # One keep-alive connection, reused across requests (and
        # re-established transparently if the server closed it).  The
        # lock makes a shared client safe to use from threads, though
        # one client per thread parallelises better.
        self._connection: Optional[_Connection] = None
        self._lock = threading.Lock()
        # Scale-out awareness: when the base URL points at a read
        # replica, mutations come back NOT_WRITER with the writer's
        # address in the error details.  The client learns it once and
        # routes subsequent mutations there directly (reads keep
        # hitting the replica); a dead learned writer is forgotten and
        # re-learned from the next redirect.
        self._writer: Optional[Tuple[str, int]] = None
        self._writer_connection: Optional[_Connection] = None
        #: Records-behind-the-writer reported by the last response
        #: that carried an ``X-Replica-Lag`` header (None when the
        #: server is not a replica).
        self.last_replica_lag: Optional[int] = None

    def close(self) -> None:
        """Drop the persistent connections (reopened on next request)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None
            if self._writer_connection is not None:
                self._writer_connection.close()
                self._writer_connection = None

    @property
    def writer_url(self) -> Optional[str]:
        """The writer address learned from a replica redirect, if any."""
        if self._writer is None:
            return None
        host, port = self._writer
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        query: Optional[Dict[str, Any]] = None,
        _via_writer: bool = False,
    ) -> Any:
        if query:
            path = f"{path}?{urlencode(query)}"
        payload = None
        # Client-minted request id: the server adopts it (instead of
        # minting its own), echoes it back as X-Request-ID, stamps it
        # into journal records, and attaches it to error bodies — so
        # one id correlates this call end to end.
        request_id = new_request_id()
        headers = {
            "Authorization": f"Bearer {self.token}",
            REQUEST_ID_HEADER: request_id,
        }
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        idempotent = method == "GET"
        with self._lock:
            # Mutations go straight to a learned writer; reads keep
            # hitting the (possibly replica) base address unless this
            # call is an explicit writer-side retry.
            use_writer = self._writer is not None and (
                _via_writer or not idempotent
            )
            try:
                status, response_headers, raw = self._exchange(
                    method,
                    path,
                    payload,
                    headers,
                    idempotent=idempotent,
                    writer=use_writer,
                )
            except AmbiguousMutationError:
                raise
            except (ConnectionError, OSError):
                if not use_writer:
                    raise
                # The learned writer went away (a promotion elects a
                # new one): forget it and fall back to the base
                # address, which will re-redirect us if needed.
                self._writer = None
                status, response_headers, raw = self._exchange(
                    method,
                    path,
                    payload,
                    headers,
                    idempotent=idempotent,
                    writer=False,
                )
        lag = response_headers.get(_REPLICA_LAG)
        if lag is not None:
            try:
                self.last_replica_lag = int(lag)
            except ValueError:  # pragma: no cover - malformed header
                pass
        echoed = response_headers.get(_REQUEST_ID) or request_id
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            error = ApiError(
                ApiErrorCode.INTERNAL,
                f"server returned a non-JSON body (HTTP {status})",
            )
            error.request_id = echoed
            raise error from None
        if "error" in data:
            error = ApiError.from_dict(data["error"])
            # Older servers omit the id from the body; the header (or
            # our own minted id) still correlates the failure.
            error.request_id = error.request_id or echoed
            writer = (error.details or {}).get("writer_url")
            if (
                writer
                and not _via_writer
                and error.code
                in (ApiErrorCode.NOT_WRITER, ApiErrorCode.UNAVAILABLE_RECOVERING)
            ):
                # A replica told us where the writer lives: learn the
                # address and re-issue this one request there (the
                # guard keeps a confused cluster from bouncing us
                # around forever).
                self._learn_writer(writer)
                if self._writer is not None:
                    return self._request(
                        method, path, body=body, _via_writer=True
                    )
            raise error
        return from_wire(data)

    def _learn_writer(self, url: str) -> None:
        parsed = urlparse(url if "//" in url else f"//{url}")
        if not parsed.hostname or not parsed.port:
            return
        with self._lock:
            if self._writer != (parsed.hostname, parsed.port):
                self._writer = (parsed.hostname, parsed.port)
                if self._writer_connection is not None:
                    self._writer_connection.close()
                    self._writer_connection = None

    def _exchange(
        self, method, path, payload, headers, *, idempotent=False, writer=False
    ):
        """One HTTP exchange over a persistent connection.

        A stale keep-alive socket (server closed it between requests)
        surfaces as a connection error on the first attempt; reconnect
        and retry.  Idempotent reads get an extra attempt with a short
        grace sleep (a replica restart shows up as a reset mid-read);
        a mutation is never replayed once the request bytes may have
        reached the server — re-sending it could apply it twice.
        """
        attempts = 3 if idempotent else 2
        for attempt in range(attempts):
            conn = self._writer_connection if writer else self._connection
            reused = conn is not None
            sent = False
            try:
                if conn is None:
                    host, port = (
                        self._writer if writer else (self.host, self.port)
                    )
                    conn = _Connection(host, port, self.timeout)
                    if writer:
                        self._writer_connection = conn
                    else:
                        self._connection = conn
                conn.send(method, path, headers, payload)
                sent = True
                status, response_headers = conn.read_head()
                raw = conn.read_body(response_headers)
                if _will_close(response_headers):
                    # The server ends this connection: the next call
                    # opens a fresh one (and knows it is fresh).
                    conn.close()
                    if writer:
                        self._writer_connection = None
                    else:
                        self._connection = None
                return status, response_headers, raw
            except (ConnectionError, OSError) as exc:
                if conn is not None:
                    conn.close()
                if writer:
                    self._writer_connection = None
                else:
                    self._connection = None
                if sent and not idempotent and not reused:
                    # The request bytes left on a fresh connection and
                    # no response came back: the server may or may not
                    # have applied the mutation, so replaying it could
                    # apply it twice.  (A *reused* keep-alive socket
                    # dying before any response is the idle-close race
                    # — the server never read the request — so that
                    # case retries on a fresh connection.)
                    raise AmbiguousMutationError(
                        f"{method} {path} failed after the request was "
                        "sent; the server may or may not have applied "
                        f"it ({exc})"
                    ) from exc
                if attempt == attempts - 1:
                    raise
                if attempt:
                    time.sleep(0.05)
        raise AssertionError("unreachable")  # pragma: no cover

    def _get(self, path: str, **query: Any) -> Any:
        return self._request(
            "GET", path, query={k: v for k, v in query.items() if v is not None}
        )

    def _post(self, path: str, **body: Any) -> Any:
        body.setdefault("api_version", API_VERSION)
        return self._request("POST", path, body=body)

    # ------------------------------------------------------------------
    # The verbs
    # ------------------------------------------------------------------
    def info(self) -> ServerInfoResponse:
        """Service metadata (placement, pool size, clock, counts)."""
        return self._get(f"/{API_VERSION}/info")

    def register_app(self, app: str, program: str) -> RegisterAppResponse:
        """Declare a new app from DSL program text."""
        return self._post(f"/{API_VERSION}/apps", app=app, program=program)

    def list_apps(self) -> ListAppsResponse:
        """This tenant's registered app names."""
        return self._get(f"/{API_VERSION}/apps")

    def app_status(self, app: str) -> AppStatusResponse:
        """Best model, accuracy, and store stats for one app."""
        return self._get(f"/{API_VERSION}/apps/{app}")

    def close_app(self, app: str) -> CloseAppResponse:
        """Retire an app from the live run (tenant departure).

        Queued training jobs are cancelled (their handle ids come back
        in ``cancelled_jobs``), running jobs drain, and the app keeps
        serving ``infer`` from its best model.  Closing is permanent.
        """
        return self._request("DELETE", f"/{API_VERSION}/apps/{app}")

    def feed(
        self,
        app: str,
        inputs: Sequence[Sequence[float]],
        outputs: Sequence[Any],
    ) -> FeedResponse:
        """Store input/output example pairs."""
        return self._post(
            f"/{API_VERSION}/apps/{app}/examples",
            inputs=[list(x) for x in inputs],
            outputs=[
                list(y) if isinstance(y, (list, tuple)) else int(y)
                for y in outputs
            ],
        )

    def refine(self, app: str) -> RefineResponse:
        """All fed examples and their enabled flags."""
        return self._get(f"/{API_VERSION}/apps/{app}/examples")

    def set_example_enabled(
        self, app: str, example_id: int, enabled: bool
    ) -> SetExampleEnabledResponse:
        """Toggle one stored example on/off."""
        return self._post(
            f"/{API_VERSION}/apps/{app}/examples/{int(example_id)}",
            enabled=bool(enabled),
        )

    def infer(self, app: str, x: Sequence[float]) -> InferResponse:
        """Predict one row with the app's best model so far."""
        return self._post(f"/{API_VERSION}/apps/{app}/infer", x=list(x))

    def infer_batch(
        self, app: str, rows: Sequence[Sequence[float]]
    ) -> InferResponse:
        """Predict many rows in one request; read ``predictions``."""
        return self._post(
            f"/{API_VERSION}/apps/{app}/infer",
            rows=[list(row) for row in rows],
        )

    def submit_training(
        self, app: str, steps: int = 1
    ) -> Tuple[JobHandle, ...]:
        """Submit async training jobs; returns their handles."""
        response: SubmitTrainingResponse = self._post(
            f"/{API_VERSION}/jobs", app=app, steps=int(steps)
        )
        return response.handles

    def job_status(
        self, job_id: str, *, wait: Optional[float] = None
    ) -> JobStatusResponse:
        """Poll one job handle (advances the cluster when live).

        ``wait`` (seconds) long-polls: a server that supports it holds
        the request until the handle leaves PENDING/RUNNING or the
        window closes, and an expired wait is *not* an error — the
        response carries the current, still-running status.  The
        window is clamped safely below this client's socket timeout
        (a server legitimately holding the request must not look like
        a dead connection).  Servers predating long-poll ignore the
        parameter and answer at once.
        """
        query = {}
        if wait is not None and wait > 0:
            ceiling = max(self.timeout / 2, self.timeout - 5.0, 0.1)
            query["wait"] = round(min(float(wait), ceiling), 3)
        return self._get(f"/{API_VERSION}/jobs/{job_id}", **query)

    def list_jobs(self, app: Optional[str] = None) -> ListJobsResponse:
        """This tenant's job handles, optionally for one app."""
        return self._get(f"/{API_VERSION}/jobs", app=app)

    #: Longest single long-poll `wait` asks the server for; re-issued
    #: until the overall timeout (servers cap waits anyway).
    max_poll_wait = 10.0

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 60.0,
        poll_interval: Optional[float] = None,
    ) -> JobStatusResponse:
        """Block until ``job_id`` reaches a terminal state.

        Uses server-side long-poll (``wait=`` on the job route): each
        request parks on the server until the handle leaves
        PENDING/RUNNING or the poll window closes, so completion costs
        one round trip instead of a busy-poll spin.  Against a server
        that predates long-poll the parameter is silently ignored and
        non-terminal statuses come straight back; the client detects
        that (the poll returned much faster than the window it asked
        for) and falls back to polling with exponential backoff, so an
        old server is never hammered in a tight loop.

        ``poll_interval`` pins the sleep between plain polls instead
        (the legacy pre-long-poll behaviour; 0 spins).
        """
        deadline = time.monotonic() + float(timeout)
        backoff = 0.0
        # The long-poll window must stay safely below the socket
        # timeout, or a server legitimately holding the request would
        # look like a dead connection.
        ceiling = min(self.max_poll_wait, max(self.timeout / 2, 0.1))
        while True:
            remaining = deadline - time.monotonic()
            window = min(max(remaining, 0.0), ceiling)
            start = time.monotonic()
            status = self.job_status(
                job_id,
                wait=None if poll_interval is not None else window,
            )
            if status.done:
                return status
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id!r} still {status.state!r} after "
                    f"{timeout}s"
                )
            if poll_interval is not None:
                if poll_interval > 0:
                    time.sleep(min(poll_interval, remaining))
                continue
            elapsed = time.monotonic() - start
            if elapsed < min(window, 1.0) / 2:
                # The server answered far sooner than the window we
                # asked it to hold: it ignored ``wait`` (a pre-long-
                # poll build).  Back off exponentially instead of
                # busy-polling it.
                backoff = min(max(2 * backoff, 0.02), 1.0)
                time.sleep(min(backoff, remaining))
            else:
                backoff = 0.0

    def wait_all(
        self, handles: Iterable[Any], *, timeout: float = 60.0
    ) -> Tuple[JobStatusResponse, ...]:
        """Wait for every handle (or handle id); returns final statuses."""
        return tuple(
            self.wait(
                h.job_id if isinstance(h, JobHandle) else str(h),
                timeout=timeout,
            )
            for h in handles
        )

    def events(
        self,
        kinds: Optional[Sequence[str]] = None,
        since: float = 0.0,
    ) -> EventsResponse:
        """Slice the server's event log."""
        return self._get(
            f"/{API_VERSION}/events",
            kinds=",".join(kinds) if kinds else None,
            since=since if since else None,
        )

    def stream_events(
        self, *, timeout: Optional[float] = None
    ) -> Iterable[Dict[str, Any]]:
        """Subscribe to live server-push events (SSE).

        Yields one dict per event — ``{"seq": ..., "event":
        "job_completed" | "model_promoted", ...}`` — until the server
        closes the stream, ``timeout`` seconds pass with no event
        (None = wait forever), or the caller abandons the generator.
        A server that publishes no stream (a read replica) answers
        ``UNSUPPORTED``, surfaced as an :class:`ApiError`.

        The subscription rides its own connection (the persistent
        keep-alive socket must stay request/response), so a streaming
        client can keep issuing ordinary calls concurrently.
        """
        conn = _Connection(self.host, self.port, timeout or self.timeout)
        try:
            conn.send(
                "GET",
                f"/{API_VERSION}/events?stream=1",
                {
                    "Authorization": f"Bearer {self.token}",
                    "Accept": "text/event-stream",
                },
            )
            status, headers = conn.read_head()
            if status != 200:
                raw = conn.read_body(headers)
                try:
                    wire = json.loads(raw.decode("utf-8"))
                    raise ApiError.from_dict(wire["error"])
                except (ValueError, KeyError, UnicodeDecodeError):
                    raise ApiError(
                        ApiErrorCode.INTERNAL,
                        f"event stream refused with HTTP {status}",
                    ) from None
            data_lines: list = []
            while True:
                try:
                    line = conn.rfile.readline()
                except (TimeoutError, OSError):
                    return  # silence beyond timeout: end the stream
                if not line:
                    return  # server closed the stream
                text = line.decode("utf-8").rstrip("\r\n")
                if not text:
                    # Frame boundary: emit the accumulated event (the
                    # data payload already carries seq + event type).
                    if data_lines:
                        try:
                            event = json.loads("\n".join(data_lines))
                        except ValueError:
                            event = {"data": "\n".join(data_lines)}
                        if isinstance(event, dict):
                            yield event
                    data_lines = []
                    continue
                if text.startswith(":"):
                    continue  # keep-alive comment
                name, _, value = text.partition(":")
                if name == "data":
                    value = value[1:] if value.startswith(" ") else value
                    data_lines.append(value)
        finally:
            conn.close()
