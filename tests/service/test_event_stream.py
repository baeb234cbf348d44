"""Server-push notifications: the broker, SSE framing, the HTTP stream."""

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from service_helpers import MOONS_PROGRAM, make_gateway, task_payload

from repro.service.api import ApiError, ApiErrorCode
from repro.service.client import EaseMLClient
from repro.service.http import serve_background
from repro.service.stream import EventBroker, Subscription, sse_frame


class TestEventBroker:
    def test_publish_reaches_subscriber(self):
        broker = EventBroker()
        sub = broker.subscribe("alice")
        broker.publish("model_promoted", tenant="alice", app="moons")
        event = sub.get(timeout=1.0)
        assert event["event"] == "model_promoted"
        assert event["app"] == "moons"
        assert event["seq"] == 1

    def test_seq_is_monotonic(self):
        broker = EventBroker()
        sub = broker.subscribe(None)
        broker.publish("a")
        broker.publish("b")
        assert sub.get(1.0)["seq"] == 1
        assert sub.get(1.0)["seq"] == 2

    def test_tenant_filter(self):
        broker = EventBroker()
        alice = broker.subscribe("alice")
        bob = broker.subscribe("bob")
        broker.publish("job_completed", tenant="alice", app="a")
        assert alice.get(0.2)["app"] == "a"
        assert bob.get(0.2) is None

    def test_tenantless_events_reach_everyone(self):
        broker = EventBroker()
        sub = broker.subscribe("alice")
        broker.publish("server_notice")
        assert sub.get(0.2)["event"] == "server_notice"

    def test_closed_subscription_dropped(self):
        broker = EventBroker()
        sub = broker.subscribe(None)
        sub.close()
        assert broker.publish("a") == 0

    def test_slow_subscriber_drops_oldest(self):
        broker = EventBroker(buffer=4)
        sub = broker.subscribe(None)
        for i in range(8):
            broker.publish("tick", n=i)
        assert sub.dropped == 4
        assert sub.get(0.2)["n"] == 4  # oldest surviving event

    def test_publish_never_blocks(self):
        broker = EventBroker(buffer=1)
        broker.subscribe(None)  # never drained
        start = time.monotonic()
        for _ in range(1000):
            broker.publish("tick")
        assert time.monotonic() - start < 1.0


class TestSseFrame:
    def test_frame_shape(self):
        frame = sse_frame(
            {"seq": 7, "event": "model_promoted", "app": "m"}
        ).decode()
        lines = frame.splitlines()
        assert "id: 7" in lines
        assert "event: model_promoted" in lines
        data = next(l for l in lines if l.startswith("data: "))
        assert json.loads(data[len("data: "):])["app"] == "m"
        assert frame.endswith("\n\n")


def onboard(gateway, server):
    token = gateway.create_tenant("alice")
    client = EaseMLClient(server.url, token, timeout=30.0)
    client.register_app("moons", MOONS_PROGRAM)
    inputs, outputs = task_payload("moons")
    client.feed("moons", inputs, outputs)
    return client, token


class TestAsyncioStream:
    @pytest.fixture
    def service(self):
        gateway = make_gateway()
        server, _ = serve_background(gateway)
        yield gateway, server
        server.shutdown()
        server.server_close()

    def test_job_completion_streams(self, service):
        gateway, server = service
        client, _ = onboard(gateway, server)
        seen = []
        done = threading.Event()

        def subscriber():
            for event in client.stream_events():
                seen.append(event)
                if event["event"] == "job_completed":
                    done.set()
                    return

        thread = threading.Thread(target=subscriber, daemon=True)
        thread.start()
        time.sleep(0.3)  # let the subscription register first
        client.wait_all(client.submit_training("moons", steps=1))
        assert done.wait(timeout=30)
        completed = [
            e for e in seen if e["event"] == "job_completed"
        ]
        assert completed[0]["app"] == "moons"
        assert completed[0]["tenant"] == "alice"
        assert "job_id" in completed[0]

    def test_bad_token_refused(self, service):
        _, server = service
        client = EaseMLClient(server.url, "tok-bogus", timeout=5.0)
        with pytest.raises(ApiError) as err:
            next(iter(client.stream_events()))
        assert err.value.code is ApiErrorCode.UNAUTHORIZED

    def test_raw_sse_headers(self, service):
        gateway, server = service
        token = gateway.create_tenant("carol")
        connection = HTTPConnection(
            "127.0.0.1", server.port, timeout=10.0
        )
        connection.request(
            "GET", "/v1/events?stream=1",
            headers={"Authorization": f"Bearer {token}"},
        )
        response = connection.getresponse()
        assert response.status == 200
        assert response.headers["Content-Type"] == "text/event-stream"
        connection.close()
