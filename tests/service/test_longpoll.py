"""Server-side push: long-poll semantics, wakeups, and the SDK fallback.

Covers the ``JobStatusRequest.wait`` contract end to end:

* a wait on a live handle drives the cluster and returns the terminal
  status in one request;
* a wait that expires is a **200 with the still-running status**, not
  an error;
* tenant retirement mid-wait wakes the waiter with terminal
  ``cancelled``;
* frontend shutdown mid-wait interrupts parked waiters instead of
  hanging the event loop;
* ``EaseMLClient.wait`` long-polls against new servers and falls back
  to exponential backoff (bounded request counts) against servers
  that ignore ``wait``.
"""

import dataclasses
import threading
import time

import pytest

from service_helpers import MOONS_PROGRAM, make_gateway, task_payload
from repro.service.api import (
    FeedRequest,
    JobStatusRequest,
    JobStatusResponse,
    RefineRequest,
    RegisterAppRequest,
    SubmitTrainingRequest,
)
from repro.service.client import EaseMLClient
from repro.service.http import serve_background


def onboard(gateway, name="alice", app="moons"):
    token = gateway.create_tenant(name)
    gateway.handle(
        RegisterAppRequest(auth_token=token, app=app, program=MOONS_PROGRAM)
    )
    inputs, outputs = task_payload("moons")
    gateway.handle(
        FeedRequest(auth_token=token, app=app, inputs=inputs, outputs=outputs)
    )
    return token


def submit(gateway, token, app="moons", steps=1):
    return gateway.handle(
        SubmitTrainingRequest(auth_token=token, app=app, steps=steps)
    ).handles


def stall_runtime(gateway):
    """Freeze the simulated cluster: polls can no longer advance it.

    The event queue stays non-empty (so the gateway's stall tripwire
    does not fire); a waiter can only ride someone else's wakeup or
    time out — exactly the regime real long-polls live in.
    """
    runtime = gateway.server._runtime_oracle.runtime
    runtime.run_until_next_completion = lambda: []
    assert runtime.queue, "stall_runtime needs queued events"


class TestGatewayWait:
    def test_wait_drives_to_terminal_in_one_request(self, gateway):
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        status = gateway.handle(
            JobStatusRequest(auth_token=token, job_id=handle.job_id, wait=30)
        )
        assert status.state == "finished"
        assert 0.0 <= status.accuracy <= 1.0

    def test_wait_on_terminal_handle_returns_immediately(self, gateway):
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        gateway.handle(
            JobStatusRequest(auth_token=token, job_id=handle.job_id, wait=30)
        )
        start = time.monotonic()
        status = gateway.handle(
            JobStatusRequest(auth_token=token, job_id=handle.job_id, wait=30)
        )
        assert status.state == "finished"
        assert time.monotonic() - start < 1.0

    def test_wait_timeout_returns_still_running_status(self, gateway):
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        stall_runtime(gateway)
        start = time.monotonic()
        status = gateway.handle(
            JobStatusRequest(
                auth_token=token, job_id=handle.job_id, wait=0.3
            )
        )
        elapsed = time.monotonic() - start
        # Expiry is not an error: the current live status comes back.
        assert status.state == "pending"
        assert not status.done
        assert elapsed >= 0.25

    def test_retirement_mid_wait_wakes_with_cancelled(self, gateway):
        token = onboard(gateway)
        # The 4-GPU pool hosts four running jobs (those would *drain*
        # at retirement); the ones queued behind them get cancelled —
        # park on the last, which retirement will cancel.
        handle = submit(gateway, token, steps=6)[-1]
        stall_runtime(gateway)
        results = {}

        def park():
            results["status"] = gateway.handle(
                JobStatusRequest(
                    auth_token=token, job_id=handle.job_id, wait=20
                )
            )

        waiter = threading.Thread(target=park)
        waiter.start()
        time.sleep(0.15)  # let the waiter park on the done event
        start = time.monotonic()
        assert handle.job_id in gateway.retire_tenant("alice")
        waiter.join(timeout=5)
        assert not waiter.is_alive(), "retirement did not wake the waiter"
        # Woken well before the 20s deadline, with the terminal state.
        assert time.monotonic() - start < 2.0
        assert results["status"].state == "cancelled"
        assert results["status"].done

    def test_completion_by_another_poller_wakes_waiter(self, gateway):
        token = onboard(gateway)
        first, second = submit(gateway, token, steps=2)
        runtime = gateway.server._runtime_oracle.runtime
        real_advance = runtime.run_until_next_completion
        runtime.run_until_next_completion = lambda: []  # park the waiter
        results = {}

        def park():
            results["status"] = gateway.handle(
                JobStatusRequest(
                    auth_token=token, job_id=first.job_id, wait=20
                )
            )

        waiter = threading.Thread(target=park)
        waiter.start()
        time.sleep(0.15)
        # Someone else (here: the test) drives the cluster to the end;
        # the completion hook must set the handle's done event.
        runtime.run_until_next_completion = real_advance
        with gateway._lock:
            while gateway.server._runtime_oracle.runtime.queue:
                with gateway._persisted_op():
                    real_advance()
                gateway._op_boundary()
        waiter.join(timeout=5)
        assert not waiter.is_alive(), "completion did not wake the waiter"
        assert results["status"].state == "finished"

    def test_wait_is_capped_server_side(self, gateway):
        from repro.service.gateway import MAX_WAIT_SECONDS

        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        stall_runtime(gateway)
        # An absurd wait must be clamped to MAX_WAIT_SECONDS, not
        # honoured; prove the clamp arithmetic (not the full 30s) by
        # checking the deadline the loop would compute.
        assert MAX_WAIT_SECONDS == 30.0
        request = JobStatusRequest(
            auth_token=token, job_id=handle.job_id, wait=10_000
        )
        assert min(float(request.wait), MAX_WAIT_SECONDS) == 30.0


class TestHTTPWait:
    @pytest.fixture
    def service(self):
        gateway = make_gateway()
        server, _ = serve_background(gateway)
        yield gateway, server
        server.shutdown()
        server.server_close()

    def test_wait_query_param_long_polls(self, service):
        gateway, server = service
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        client = EaseMLClient(server.url, token)
        status = client.job_status(handle.job_id, wait=30)
        assert status.state == "finished"

    def test_wait_timeout_is_200_not_error(self, service):
        gateway, server = service
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        stall_runtime(gateway)
        client = EaseMLClient(server.url, token)
        # No ApiError raised: the expired wait is a plain 200 response
        # carrying the still-running status.
        status = client.job_status(handle.job_id, wait=0.3)
        assert status.state == "pending"
        assert not status.done

    def test_shutdown_mid_wait_closes_cleanly(self, service):
        gateway, server = service
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        stall_runtime(gateway)
        client = EaseMLClient(server.url, token)
        outcome = {}

        def park():
            try:
                outcome["status"] = client.job_status(
                    handle.job_id, wait=25
                )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                outcome["error"] = exc

        waiter = threading.Thread(target=park, daemon=True)
        waiter.start()
        time.sleep(0.3)  # the request is parked server-side
        start = time.monotonic()
        server.shutdown()
        # Shutdown must not hang behind the parked waiter.
        assert time.monotonic() - start < 10.0
        waiter.join(timeout=10)
        assert not waiter.is_alive(), "client thread hung past shutdown"
        # The parked request either got its current status back or the
        # connection died with the server — both are clean outcomes.
        if "status" in outcome:
            assert outcome["status"].state == "pending"


class TestClientWaitFallback:
    def test_long_poll_server_needs_one_request_per_wait(self, gateway):
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        polls = []
        original = gateway._handlers[JobStatusRequest]

        def counting(tenant, request):
            polls.append(request)
            return original(tenant, request)

        gateway._handlers[JobStatusRequest] = counting
        server, _ = serve_background(gateway)
        try:
            client = EaseMLClient(server.url, token)
            status = client.wait(handle.job_id, timeout=30)
        finally:
            server.shutdown()
            server.server_close()
        assert status.state == "finished"
        assert len(polls) == 1
        assert polls[0].wait > 0

    def test_backoff_against_server_without_long_poll(self, gateway):
        """A wait-ignoring server is polled with backoff, not hammered.

        Emulates a pre-long-poll build: the job-status handler strips
        ``wait`` and answers a canned running status immediately.
        After ~1.2s of that, the job "finishes".  A busy-polling
        client would burn hundreds of requests over the same window;
        the exponential backoff keeps it to a couple dozen.
        """
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        polls = []
        original = gateway._handlers[JobStatusRequest]
        finish_at = time.monotonic() + 1.2

        def legacy(tenant, request):
            request = dataclasses.replace(request, wait=0.0)
            polls.append(request)
            if time.monotonic() < finish_at:
                return JobStatusResponse(
                    job_id=request.job_id,
                    app="moons",
                    candidate="pending",
                    state="running",
                    submitted_at=0.0,
                )
            return original(tenant, request)

        gateway._handlers[JobStatusRequest] = legacy
        server, _ = serve_background(gateway)
        try:
            client = EaseMLClient(server.url, token)
            status = client.wait(handle.job_id, timeout=30)
        finally:
            server.shutdown()
            server.server_close()
        assert status.state == "finished"
        # Regression bound: the pre-backoff client spun thousands of
        # requests per second here.
        assert 2 <= len(polls) <= 30, len(polls)

    def test_legacy_poll_interval_still_honoured(self, gateway):
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        saw_wait = []
        original = gateway._handlers[JobStatusRequest]

        def spying(tenant, request):
            saw_wait.append(request.wait)
            return original(tenant, request)

        gateway._handlers[JobStatusRequest] = spying
        server, _ = serve_background(gateway)
        try:
            client = EaseMLClient(server.url, token)
            status = client.wait(
                handle.job_id, timeout=30, poll_interval=0.0
            )
        finally:
            server.shutdown()
            server.server_close()
        assert status.state == "finished"
        # poll_interval pins the legacy behaviour: no wait= sent.
        assert all(w == 0.0 for w in saw_wait)


class TestHardening:
    """Regressions from review: hostile waits, framing, short timeouts."""

    def test_nan_wait_cannot_spin_forever(self, gateway):
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        stall_runtime(gateway)
        start = time.monotonic()
        status = gateway.handle(
            JobStatusRequest(
                auth_token=token, job_id=handle.job_id,
                wait=float("nan"),
            )
        )
        # NaN collapses to "no wait": immediate still-running answer.
        assert status.state == "pending"
        assert time.monotonic() - start < 1.0

    def test_negative_wait_answers_immediately(self, gateway):
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        stall_runtime(gateway)
        status = gateway.handle(
            JobStatusRequest(
                auth_token=token, job_id=handle.job_id, wait=-5.0
            )
        )
        assert status.state == "pending"

    def test_asyncio_rejects_malformed_content_length(self, gateway):
        import socket as socket_module

        server, _ = serve_background(gateway)
        try:
            with socket_module.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/apps HTTP/1.1\r\n"
                    b"Content-Length: abc\r\n\r\n"
                )
                reply = sock.recv(65536).decode("latin-1")
            assert reply.startswith("HTTP/1.1 400")
            assert "invalid_argument" in reply
        finally:
            server.shutdown()
            server.server_close()

    def test_asyncio_rejects_transfer_encoding(self, gateway):
        import socket as socket_module

        server, _ = serve_background(gateway)
        try:
            with socket_module.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/apps HTTP/1.1\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                )
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
            reply = reply.decode("latin-1")
            # Refused on the header, and the server hung up (recv hit
            # EOF): chunk bytes can never be parsed as a next request.
            assert reply.startswith("HTTP/1.1 400")
            assert "Connection: close" in reply
            assert "invalid_argument" in reply
            assert "Content-Length" in reply.split("\r\n\r\n", 1)[1]
        finally:
            server.shutdown()
            server.server_close()

    def test_short_socket_timeout_client_still_waits(self, gateway):
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        stall_runtime(gateway)
        server, _ = serve_background(gateway)
        try:
            # The client's long-poll window must stay below its 2s
            # socket timeout, or the server holding the request would
            # masquerade as a dead connection.
            client = EaseMLClient(server.url, token, timeout=2.0)
            with pytest.raises(TimeoutError):
                client.wait(handle.job_id, timeout=2.5)
        finally:
            server.shutdown()
            server.server_close()

    def test_lockfree_refine_has_no_log_side_effect(self, gateway):
        token = onboard(gateway)
        before = len(gateway.server.log)
        view = gateway.handle(RefineRequest(auth_token=token, app="moons"))
        assert view.examples[0] == (0, True)
        # The read path is side-effect-free: no REFINE event appended
        # (an unlocked append racing a clock advance would trip the
        # event log's monotonicity check).
        assert len(gateway.server.log) == before


class TestSecondReviewHardening:
    """Round-two review regressions: locks, commits, codec, lifecycle."""

    def test_single_lock_mode_long_poll_does_not_block_others(
        self, gateway
    ):
        """The id predates the one lock discipline: a parked long-poll
        must not delay a request that takes the gateway lock."""
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        stall_runtime(gateway)

        def park():
            gateway.handle(
                JobStatusRequest(
                    auth_token=token, job_id=handle.job_id, wait=10
                )
            )

        waiter = threading.Thread(target=park, daemon=True)
        waiter.start()
        time.sleep(0.15)  # the long-poll is parked
        from repro.service.api import SetExampleEnabledRequest

        start = time.monotonic()
        # A mutation takes the gateway lock; it must NOT queue behind
        # the parked wait for 10s — the poll may never hold the outer
        # lock while parked.
        response = gateway.handle(
            SetExampleEnabledRequest(
                auth_token=token, app="moons", example_id=0, enabled=False
            )
        )
        assert response.enabled is False
        assert time.monotonic() - start < 2.0
        gateway.retire_tenant("alice")  # wake the parked waiter
        waiter.join(timeout=5)

    def test_pure_reads_never_run_the_commit_barrier(self, tmp_path):
        from repro.ml.zoo import default_zoo
        from repro.persist import open_gateway
        from repro.service.api import ListAppsRequest

        gateway, _ = open_gateway(
            tmp_path / "state", sync="group",
            placement="partition", n_gpus=4, min_examples=10, seed=0,
            zoo=default_zoo().subset(["naive-bayes", "ridge", "tree-d4"]),
        )
        try:
            token = onboard(gateway)
            commits = []
            real_commit = gateway.store.commit
            gateway.store.commit = lambda: (
                commits.append(1), real_commit()
            )
            gateway.handle(ListAppsRequest(auth_token=token))
            # A snapshot read can run inline on the event loop; it must
            # never become the fsync convoy leader.
            assert commits == []
            handle = submit(gateway, token)[0]
            assert commits, "mutations must run the ack barrier"
            n_write_commits = len(commits)
            # A live job poll journals job_completed records -> commits.
            gateway.handle(
                JobStatusRequest(auth_token=token, job_id=handle.job_id,
                                 wait=30)
            )
            assert len(commits) > n_write_commits
        finally:
            gateway.store.close()

    def test_asyncio_caps_header_count(self, gateway):
        import socket as socket_module

        server, _ = serve_background(gateway)
        try:
            with socket_module.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                try:
                    sock.sendall(b"GET /v1/info HTTP/1.1\r\n")
                    for i in range(150):
                        sock.sendall(b"X-Flood-%d: x\r\n" % i)
                    sock.sendall(b"\r\n")
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the server may cut us off mid-flood
                try:
                    reply = sock.recv(65536).decode("latin-1")
                except ConnectionResetError:
                    reply = ""
            # Either a clean 400 or a hard close — never an accepted
            # 150-header request.
            if reply:
                assert reply.startswith("HTTP/1.1 400")
                assert "headers" in reply
        finally:
            server.shutdown()
            server.server_close()

    def test_shutdown_before_serve_forever_still_exits(self, gateway):
        from repro.service.http import serve

        server = serve(gateway)
        server.shutdown()  # before any loop exists
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "pre-start shutdown was lost"
        server.server_close()

    def test_client_clamps_wait_below_socket_timeout(self, gateway):
        token = onboard(gateway)
        handle = submit(gateway, token)[0]
        stall_runtime(gateway)
        server, _ = serve_background(gateway)
        try:
            client = EaseMLClient(server.url, token, timeout=2.0)
            start = time.monotonic()
            # wait=30 with a 2s socket timeout: the clamp keeps the
            # server's hold below the timeout, so this is a clean
            # still-running 200, not a socket error.
            status = client.job_status(handle.job_id, wait=30)
            assert status.state == "pending"
            assert time.monotonic() - start < 2.0
        finally:
            server.shutdown()
            server.server_close()


class TestCodecFraming:
    """Final review round: body caps and keep-alive body draining."""

    def test_asyncio_rejects_oversized_content_length(self, gateway):
        import socket as socket_module

        server, _ = serve_background(gateway)
        try:
            with socket_module.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/apps HTTP/1.1\r\n"
                    b"Content-Length: 8000000000\r\n\r\n"
                )
                reply = sock.recv(65536).decode("latin-1")
            # Rejected on the declared length, before buffering a byte.
            assert reply.startswith("HTTP/1.1 400")
            assert "Content-Length" in reply
        finally:
            server.shutdown()
            server.server_close()

    def test_threading_delete_with_body_keeps_connection_usable(
        self, gateway
    ):
        """The id predates the one frontend; the codec it pins is the
        event loop's."""
        import json as json_module
        from http.client import HTTPConnection

        token = onboard(gateway)
        server, _ = serve_background(gateway)
        try:
            connection = HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            # A DELETE carrying a body must be drained, or the next
            # keep-alive request parses the leftover bytes as HTTP.
            connection.request(
                "DELETE",
                "/v1/apps/moons",
                body=json_module.dumps({"reason": "x"}).encode(),
                headers={"Authorization": f"Bearer {token}",
                         "Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json_module.loads(response.read().decode())
            assert response.status == 200
            assert body["type"] == "CloseAppResponse"
            connection.request(
                "GET",
                "/v1/info",
                headers={"Authorization": f"Bearer {token}"},
            )
            response = connection.getresponse()
            body = json_module.loads(response.read().decode())
            assert response.status == 200
            assert body["type"] == "ServerInfoResponse"
            connection.close()
        finally:
            server.shutdown()
            server.server_close()
