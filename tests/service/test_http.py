"""The HTTP frontend and client SDK: round trips, errors, concurrency."""

import json
import socket
import threading
from http.client import HTTPConnection

import pytest

from service_helpers import (
    BLOBS_PROGRAM,
    MOONS_PROGRAM,
    make_gateway,
    task_payload,
)
from repro.service.api import ApiError, ApiErrorCode
from repro.service.client import EaseMLClient
from repro.service.http import serve_background


@pytest.fixture
def service():
    """A live HTTP service; yields (gateway, server)."""
    gateway = make_gateway()
    server, _ = serve_background(gateway)
    yield gateway, server
    server.shutdown()
    server.server_close()


def make_client(server, token):
    return EaseMLClient(server.url, token, timeout=30.0)


def raw_request(server, method, path, body=None, token=None):
    """A bare HTTP exchange, bypassing the SDK."""
    connection = HTTPConnection("127.0.0.1", server.port, timeout=30.0)
    headers = {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    payload = None
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    connection.close()
    return response.status, json.loads(raw.decode("utf-8"))


def onboard(gateway, server, tenant, app, program, kind, seed=0):
    token = gateway.create_tenant(tenant)
    client = make_client(server, token)
    client.register_app(app, program)
    inputs, outputs = task_payload(kind, seed=seed)
    client.feed(app, inputs, outputs)
    return client, inputs


class TestRoundTrips:
    def test_full_verb_surface(self, service):
        gateway, server = service
        client, inputs = onboard(
            gateway, server, "alice", "moons", MOONS_PROGRAM, "moons"
        )
        info = client.info()
        assert info.placement == "partition"
        assert client.list_apps().apps == ("moons",)
        status = client.app_status("moons")
        assert status.n_examples == 60
        assert status.best_candidate is None
        view = client.refine("moons")
        assert view.examples[0] == (0, True)
        toggled = client.set_example_enabled("moons", 0, False)
        assert toggled.enabled is False
        assert client.refine("moons").examples[0] == (0, False)

        handles = client.submit_training("moons", steps=2)
        assert len(handles) == 2
        statuses = client.wait_all(handles)
        assert all(s.state == "finished" for s in statuses)
        assert all(0.0 <= s.accuracy <= 1.0 for s in statuses)

        answer = client.infer("moons", inputs[0])
        assert answer.prediction in (0, 1)
        assert answer.model is not None

        listed = client.list_jobs("moons")
        assert len(listed.jobs) == 2
        events = client.events(kinds=["job_finished"])
        assert len(events.events) == 2

    def test_events_since_filter(self, service):
        gateway, server = service
        client, _ = onboard(
            gateway, server, "alice", "moons", MOONS_PROGRAM, "moons"
        )
        client.wait_all(client.submit_training("moons", steps=1))
        horizon = client.info().clock
        assert client.events(since=horizon + 1.0).events == ()


class TestErrorModel:
    def test_not_found_has_status_and_code(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        status, body = raw_request(
            server, "GET", "/v1/apps/ghost", token=token
        )
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert "ghost" in body["error"]["message"]
        # No traceback fragments cross the wire.
        assert "Traceback" not in json.dumps(body)

    def test_mutation_error_crosses_the_worker_hop(self, service):
        """A mutation runs on a worker thread; its ApiError still
        reaches the client typed, with the id the request carried."""
        gateway, server = service
        client = make_client(server, gateway.create_tenant("alice"))
        with pytest.raises(ApiError) as excinfo:
            client.feed("ghost", ((1.0, 2.0),), (0,))
        assert excinfo.value.code is ApiErrorCode.NOT_FOUND
        assert excinfo.value.http_status == 404
        assert excinfo.value.request_id.startswith("req-")

    def test_unauthorized_is_401(self, service):
        _, server = service
        status, body = raw_request(server, "GET", "/v1/apps", token="bad")
        assert status == 401
        assert body["error"]["code"] == "unauthorized"

    def test_unknown_route_is_404(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        status, body = raw_request(
            server, "GET", "/v1/nonsense", token=token
        )
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unversioned_path_is_404(self, service):
        _, server = service
        status, body = raw_request(server, "GET", "/apps", token="x")
        assert status == 404
        assert "/v1" in body["error"]["message"]

    def test_unknown_path_post_keeps_connection_usable(self, service):
        """The unread body of a 404'd POST must not desync keep-alive."""
        gateway, server = service
        token = gateway.create_tenant("alice")
        connection = HTTPConnection("127.0.0.1", server.port, timeout=30.0)
        try:
            payload = json.dumps({"some": "body"}).encode("utf-8")
            connection.request(
                "POST",
                "/bogus",
                body=payload,
                headers={"Authorization": f"Bearer {token}",
                         "Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 404
            assert body["error"]["code"] == "not_found"
            # Same connection, next request: still a clean JSON API.
            connection.request(
                "GET",
                "/v1/info",
                headers={"Authorization": f"Bearer {token}"},
            )
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 200
            assert body["type"] == "ServerInfoResponse"
        finally:
            connection.close()

    def test_malformed_json_is_400(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        connection = HTTPConnection("127.0.0.1", server.port, timeout=30.0)
        connection.request(
            "POST",
            "/v1/apps",
            body=b"{not json",
            headers={"Authorization": f"Bearer {token}"},
        )
        response = connection.getresponse()
        body = json.loads(response.read().decode("utf-8"))
        connection.close()
        assert response.status == 400
        assert body["error"]["code"] == "invalid_argument"

    def test_missing_body_field_is_400(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        status, body = raw_request(
            server, "POST", "/v1/apps", body={"app": "x"}, token=token
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_argument"

    def test_enabled_must_be_a_json_boolean(self, service):
        gateway, server = service
        client, _ = onboard(
            gateway, server, "alice", "moons", MOONS_PROGRAM, "moons"
        )
        status, body = raw_request(
            server,
            "POST",
            "/v1/apps/moons/examples/0",
            body={"enabled": "false"},  # bool("false") is True — reject
            token=client.token,
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_argument"
        assert client.refine("moons").examples[0] == (0, True)

    def test_wrong_api_version_rejected(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        status, body = raw_request(
            server,
            "POST",
            "/v1/apps",
            body={"app": "x", "program": MOONS_PROGRAM,
                  "api_version": "v9"},
            token=token,
        )
        assert status == 400
        assert body["error"]["code"] == "unsupported_version"

    def test_client_reconstructs_typed_error(self, service):
        gateway, server = service
        client = make_client(server, gateway.create_tenant("alice"))
        with pytest.raises(ApiError) as excinfo:
            client.app_status("ghost")
        assert excinfo.value.code is ApiErrorCode.NOT_FOUND
        assert excinfo.value.details["app"] == "ghost"

    def test_quota_error_maps_to_429(self, service):
        gateway, server = service
        from repro.service.gateway import TenantQuota

        token = gateway.create_tenant(
            "tiny", TenantQuota(max_apps=1, max_pending_jobs=1,
                                max_store_bytes=1024)
        )
        client = make_client(server, token)
        client.register_app("one", MOONS_PROGRAM)
        status, body = raw_request(
            server,
            "POST",
            "/v1/apps",
            body={"app": "two", "program": MOONS_PROGRAM},
            token=token,
        )
        assert status == 429
        assert body["error"]["code"] == "quota_exceeded"


class TestConcurrentClients:
    def test_two_clients_interleave_training(self, service):
        """Two tenants drive the service from separate threads."""
        gateway, server = service
        client_a, inputs_a = onboard(
            gateway, server, "alice", "moons", MOONS_PROGRAM, "moons"
        )
        client_b, inputs_b = onboard(
            gateway, server, "bob", "blobs", BLOBS_PROGRAM, "blobs", seed=1
        )

        results = {}
        errors = []

        def drive(name, client, app):
            try:
                handles = client.submit_training(app, steps=3)
                statuses = client.wait_all(handles)
                results[name] = statuses
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((name, exc))

        threads = [
            threading.Thread(target=drive, args=("a", client_a, "moons")),
            threading.Thread(target=drive, args=("b", client_b, "blobs")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert all(
            s.state == "finished" for s in results["a"] + results["b"]
        )

        # The shared cluster genuinely overlapped the tenants' jobs.
        jobs = gateway.server._runtime_oracle.finished_jobs()
        assert len(jobs) == 6
        assert {j.user for j in jobs} == {0, 1}
        spans = sorted((j.start_time, j.end_time) for j in jobs)
        assert any(
            later_start < earlier_end
            for (_, earlier_end), (later_start, _) in zip(spans, spans[1:])
        )
        # Each tenant still ends with a working model.
        assert client_a.infer("moons", inputs_a[0]).prediction in (0, 1)
        assert client_b.infer("blobs", inputs_b[0]).prediction in (0, 1, 2)

    def test_one_tenant_two_connections_feed_whole_batches(self, service):
        """Two connections on one token have no order to keep, but
        every feed is atomic under the gateway lock: each response
        names one contiguous run of ids and no id is handed out twice."""
        gateway, server = service
        token = gateway.create_tenant("alice")
        make_client(server, token).register_app("moons", MOONS_PROGRAM)
        inputs, outputs = task_payload("moons")
        responses, errors = [], []

        def drive(offset):
            client = make_client(server, token)
            try:
                for i in range(offset, offset + 30, 5):
                    responses.append(
                        client.feed(
                            "moons", inputs[i:i + 5], outputs[i:i + 5]
                        )
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                client.close()

        threads = [
            threading.Thread(target=drive, args=(offset,))
            for offset in (0, 30)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(responses) == 12
        for response in responses:
            first = response.example_ids[0]
            assert response.example_ids == tuple(range(first, first + 5))
        assert sorted(
            i for r in responses for i in r.example_ids
        ) == list(range(60))

    def test_tenants_cannot_see_each_other(self, service):
        gateway, server = service
        client_a, _ = onboard(
            gateway, server, "alice", "moons", MOONS_PROGRAM, "moons"
        )
        client_b = make_client(server, gateway.create_tenant("bob"))
        assert client_b.list_apps().apps == ()
        with pytest.raises(ApiError) as excinfo:
            client_b.refine("moons")
        assert excinfo.value.code is ApiErrorCode.NOT_FOUND


class TestDynamicTenantsOverHTTP:
    def test_close_app_route(self, service):
        gateway, server = service
        client, inputs = onboard(
            gateway, server, "alice", "moons", MOONS_PROGRAM, "moons"
        )
        handles = client.submit_training("moons", steps=1)
        client.wait_all(handles)
        response = client.close_app("moons")
        assert response.app == "moons"
        assert response.was_admitted
        # Closed apps still serve infer, but reject further training.
        assert client.infer("moons", inputs[0]).prediction in (0, 1)
        with pytest.raises(ApiError) as excinfo:
            client.submit_training("moons")
        assert excinfo.value.code is ApiErrorCode.FAILED_PRECONDITION

    def test_delete_unknown_app_not_found(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        status, body = raw_request(
            server, "DELETE", "/v1/apps/ghost", token=token
        )
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_register_after_submit_over_http(self, service):
        gateway, server = service
        alice, _ = onboard(
            gateway, server, "alice", "moons", MOONS_PROGRAM, "moons"
        )
        alice.wait_all(alice.submit_training("moons", steps=1))
        # Training is live; a second tenant onboards and trains.
        bob, _ = onboard(
            gateway, server, "bob", "blobs", BLOBS_PROGRAM, "blobs", seed=1
        )
        statuses = bob.wait_all(bob.submit_training("blobs", steps=1))
        assert all(s.state == "finished" for s in statuses)

    def test_infer_carries_model_version(self, service):
        gateway, server = service
        client, inputs = onboard(
            gateway, server, "alice", "moons", MOONS_PROGRAM, "moons"
        )
        handles = client.submit_training("moons", steps=2)
        client.wait_all(handles)
        response = client.infer("moons", inputs[0])
        assert response.model_version in {h.job_id for h in handles}


def raw_exchange(server, data, *, half_close=False):
    """Send raw bytes on a fresh socket; return everything the server
    writes before it closes (b"" when it hangs up without a word)."""
    reply = b""
    address = ("127.0.0.1", server.port)
    with socket.create_connection(address, timeout=10) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                reply += chunk
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server may cut an abusive peer off mid-send
    return reply


def split_responses(reply):
    """Cut a byte stream into (status, headers, body) responses."""
    out = []
    while reply:
        head, _, rest = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(
            (name.lower(), value.strip())
            for name, _, value in (line.partition(":") for line in lines[1:])
        )
        length = int(headers["content-length"])
        out.append((int(lines[0].split()[1]), headers, rest[:length]))
        reply = rest[length:]
    return out


class TestHeaderBlockFraming:
    """The frontend reads the request line and headers as one block."""

    def assert_refused(self, reply, fragment):
        # 400 with the typed error body, then the server hung up: the
        # whole reply is exactly one response.
        (status, headers, body), = split_responses(reply)
        assert status == 400
        assert headers["connection"] == "close"
        error = json.loads(body)["error"]
        assert error["code"] == "invalid_argument"
        assert fragment in error["message"]

    def test_too_many_headers_is_400_then_close(self, service):
        _, server = service
        flood = b"".join(b"X-Flood-%d: x\r\n" % i for i in range(101))
        reply = raw_exchange(
            server, b"GET /v1/info HTTP/1.1\r\n" + flood + b"\r\n"
        )
        self.assert_refused(reply, "more than 100 headers")

    def test_one_hundred_headers_are_fine(self, service):
        _, server = service
        lines = b"".join(b"X-Flood-%d: x\r\n" % i for i in range(99))
        reply = raw_exchange(
            server,
            b"GET /v1/info HTTP/1.1\r\n" + lines
            + b"Connection: close\r\n\r\n",
        )
        (status, _, _), = split_responses(reply)
        assert status == 401  # framed fine; no token, so unauthorized

    def test_transfer_encoding_is_400_then_close(self, service):
        _, server = service
        reply = raw_exchange(
            server,
            b"POST /v1/apps HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n",
        )
        self.assert_refused(reply, "Content-Length")

    @pytest.mark.parametrize("length", [b"-5", b"67108865", b"abc"])
    def test_bad_content_length_is_400_then_close(self, service, length):
        _, server = service
        reply = raw_exchange(
            server,
            b"POST /v1/apps HTTP/1.1\r\nContent-Length: " + length
            + b"\r\n\r\n{}",
        )
        self.assert_refused(reply, "Content-Length")

    def test_oversized_header_block_closes_and_server_serves_on(
        self, service
    ):
        _, server = service
        reply = raw_exchange(
            server,
            b"GET /v1/info HTTP/1.1\r\nX-Big: " + b"a" * 70_000
            + b"\r\n\r\n",
        )
        assert reply == b""
        status, body = raw_request(server, "GET", "/v1/info")
        assert status == 401 and body["error"]["code"] == "unauthorized"

    def test_pipelined_requests_answer_in_order(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice").encode()
        requests = b"".join(
            b"GET " + path + b" HTTP/1.1\r\nAuthorization: Bearer "
            + token + b"\r\nX-Request-ID: " + rid + b"\r\n" + extra
            + b"\r\n"
            for path, rid, extra in (
                (b"/v1/apps/ghost", b"first", b""),
                (b"/v1/info", b"second", b"Connection: close\r\n"),
            )
        )
        first, second = split_responses(raw_exchange(server, requests))
        assert (first[0], first[1]["x-request-id"]) == (404, "first")
        assert first[1]["connection"] == "keep-alive"
        assert (second[0], second[1]["x-request-id"]) == (200, "second")
        assert json.loads(second[2])["type"] == "ServerInfoResponse"

    def test_bare_lf_line_end_is_400(self, service):
        """Header lines end in CRLF; a bare LF inside the block is
        refused rather than guessed at."""
        _, server = service
        reply = raw_exchange(
            server, b"GET /v1/info HTTP/1.1\nX-A: b\r\n\r\n"
        )
        self.assert_refused(reply, "bare LF")

    def test_bare_lf_only_request_is_never_answered(self, service):
        # Without CRLF CRLF there is no header block: the peer's EOF
        # ends the connection with no response at all.
        _, server = service
        reply = raw_exchange(
            server, b"GET /v1/info HTTP/1.1\n\n", half_close=True
        )
        assert reply == b""
