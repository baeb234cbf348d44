"""The SDK's own keep-alive HTTP/1.1 transport, against scripted peers.

Each test plays the server by hand over a raw socket, so the client's
connection handling — reuse, reconnects, the retry rules, header
reads, timeouts, the event stream — is pinned byte for byte.
"""

import json
import socket
import threading
import time

import pytest

from repro.service.api import (
    ApiError,
    ApiErrorCode,
    ServerInfoResponse,
    to_wire,
)
from repro.service.client import AmbiguousMutationError, EaseMLClient

INFO = json.dumps(
    to_wire(
        ServerInfoResponse(
            placement="partition", n_gpus=2, n_apps=0, n_jobs=0,
            clock=0.0, training_started=False,
        )
    )
).encode()


def reply(body=INFO, status="200 OK", *, close=False, extra=b""):
    return (
        b"HTTP/1.1 " + status.encode() + b"\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        + extra
        + b"Connection: " + (b"close" if close else b"keep-alive")
        + b"\r\n\r\n" + body
    )


#: Script steps besides raw reply bytes.
HANG_UP = "hang up"  # read the request, close without answering
STALL = "stall"  # read the request, never answer


class ScriptedServer:
    """Answers requests, in arrival order, from a list of steps.

    A step is the raw bytes of one reply, :data:`HANG_UP` or
    :data:`STALL`; a reply carrying ``Connection: close`` ends its
    connection, and ``then_close=True`` ends it after every reply
    (a server closing idle keep-alive sockets).
    """

    def __init__(self, steps, *, then_close=False):
        self.steps = list(steps)
        self.then_close = then_close
        self.connections = 0
        self.requests = []
        self._stop = threading.Event()
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _read_request(self, rfile):
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = rfile.readline()
            if not line:
                return None
            head += line
        length = 0
        for line in head.split(b"\r\n"):
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        return head + rfile.read(length)

    def _serve(self, conn):
        with conn, conn.makefile("rb") as rfile:
            while self.steps:
                request = self._read_request(rfile)
                if request is None:
                    return
                self.requests.append(request)
                step = self.steps.pop(0)
                if step == HANG_UP:
                    return
                if step == STALL:
                    self._stop.wait()
                    return
                conn.sendall(step)
                if self.then_close or b"Connection: close" in step:
                    return

    def close(self):
        self._stop.set()
        self.sock.close()
        self._thread.join(timeout=2)


@pytest.fixture
def scripted():
    servers = []

    def start(steps, **kwargs):
        servers.append(ScriptedServer(steps, **kwargs))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


class TestConnectionReuse:
    def test_keep_alive_reuses_one_socket(self, scripted):
        server = scripted([reply(), reply(), reply()])
        client = EaseMLClient(server.url, "tok")
        for _ in range(3):
            assert client.info().placement == "partition"
        assert server.connections == 1
        head = server.requests[0].split(b"\r\n")
        assert head[0] == b"GET /v1/info HTTP/1.1"
        assert f"Host: 127.0.0.1:{server.port}".encode() in head
        assert b"Authorization: Bearer tok" in head
        client.close()

    def test_connection_close_reply_makes_next_call_reconnect(
        self, scripted
    ):
        server = scripted([reply(close=True), reply()])
        client = EaseMLClient(server.url, "tok")
        client.info()
        client.info()
        assert server.connections == 2
        client.close()

    def test_server_closed_idle_socket_retries_transparently(
        self, scripted
    ):
        # The server drops each keep-alive socket after answering: the
        # next call finds it dead and must redo the request on a fresh
        # one — a mutation too, since the dead socket never took it.
        server = scripted([reply(), reply(), reply()], then_close=True)
        client = EaseMLClient(server.url, "tok")
        client.info()
        time.sleep(0.1)  # the server's close lands first
        client.info()
        time.sleep(0.1)
        client.register_app("x", "{input: {[], []}, output: {[], []}}")
        assert server.connections == 3
        assert server.requests[2].startswith(b"POST /v1/apps HTTP/1.1")
        assert b"Content-Length: " in server.requests[2]
        client.close()

    def test_mutation_on_fresh_socket_dying_after_send_is_ambiguous(
        self, scripted
    ):
        server = scripted([HANG_UP, reply()])
        client = EaseMLClient(server.url, "tok")
        with pytest.raises(AmbiguousMutationError):
            client.register_app("x", "{input: {[], []}, output: {[], []}}")
        assert server.connections == 1
        # The failed socket is gone; the next call opens a new one.
        assert client.info().n_gpus == 2
        assert server.connections == 2
        client.close()


class TestHeaders:
    def test_echoed_request_id_comes_from_the_header(self, scripted):
        error = json.dumps(
            {"api_version": "v1",
             "error": {"code": "not_found", "message": "no app 'x'"}}
        ).encode()
        server = scripted([
            reply(error, "404 Not Found", extra=b"X-Request-ID: trace-77\r\n"),
        ])
        client = EaseMLClient(server.url, "tok")
        with pytest.raises(ApiError) as excinfo:
            client.app_status("x")
        assert excinfo.value.code is ApiErrorCode.NOT_FOUND
        assert excinfo.value.request_id == "trace-77"
        client.close()

    def test_targets_that_would_split_the_request_line_are_refused(
        self, scripted
    ):
        server = scripted([reply()])
        client = EaseMLClient(server.url, "tok")
        with pytest.raises(ValueError):
            client.app_status("two words")
        assert server.requests == []
        client.close()


class TestTimeouts:
    def test_timeout_bounds_a_stalled_server(self, scripted):
        server = scripted([STALL, STALL, STALL])
        client = EaseMLClient(server.url, "tok", timeout=0.3)
        start = time.monotonic()
        with pytest.raises(OSError):
            client.info()
        # Three read attempts of 0.3 s each, plus the retry grace.
        assert time.monotonic() - start < 3.0
        assert server.connections == 3
        client.close()

    def test_stalled_mutation_is_ambiguous(self, scripted):
        server = scripted([STALL])
        client = EaseMLClient(server.url, "tok", timeout=0.3)
        with pytest.raises(AmbiguousMutationError):
            client.register_app("x", "{input: {[], []}, output: {[], []}}")
        client.close()


class TestEventStream:
    def test_stream_yields_frames_and_ends_on_silence(self, scripted):
        frames = (
            b": stream open\n\n"
            b'id: 1\nevent: job_completed\ndata: {"seq": 1, '
            b'"event": "job_completed"}\n\n'
            b": keep-alive\n\n"
            b'data: {"seq": 2,\ndata:  "event": "model_promoted"}\n\n'
        )
        # The peer keeps the socket open after the frames (the step
        # after them waits for a request that never comes): the stream
        # must end on its own once the silence outlasts the timeout.
        server = scripted([
            b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
            b"\r\n" + frames,
            STALL,
        ])
        client = EaseMLClient(server.url, "tok")
        start = time.monotonic()
        events = list(client.stream_events(timeout=0.5))
        assert [e["seq"] for e in events] == [1, 2]
        assert events[1]["event"] == "model_promoted"
        assert time.monotonic() - start < 5.0
        assert server.requests[0].startswith(
            b"GET /v1/events?stream=1 HTTP/1.1"
        )
        client.close()

    def test_refused_stream_raises_the_typed_error(self, scripted):
        error = json.dumps(
            {"api_version": "v1",
             "error": {"code": "unsupported", "message": "replica"}}
        ).encode()
        server = scripted([reply(error, "501 Not Implemented", close=True)])
        client = EaseMLClient(server.url, "tok")
        with pytest.raises(ApiError) as excinfo:
            next(iter(client.stream_events(timeout=1.0)))
        assert excinfo.value.code is ApiErrorCode.UNSUPPORTED
