"""End-to-end observability: /metrics, request ids socket -> WAL."""

import json
import time
from http.client import HTTPConnection

import pytest

from service_helpers import (
    MOONS_PROGRAM,
    SMALL_ZOO,
    make_gateway,
    task_payload,
)
from repro.obs import MetricsRegistry
from repro.obs.context import REQUEST_ID_HEADER
from repro.service.api import ApiError
from repro.service.client import EaseMLClient
from repro.service.http import (
    METRICS_JSON_PATH,
    METRICS_PATH,
    route_template,
    serve_background,
)


@pytest.fixture
def service():
    gateway = make_gateway()
    server, _ = serve_background(gateway)
    yield gateway, server
    server.shutdown()
    server.server_close()


def open_durable_gateway(state_dir):
    """A fresh journaled gateway over ``state_dir`` (small zoo)."""
    from repro.ml.zoo import default_zoo
    from repro.persist import open_gateway

    return open_gateway(
        state_dir,
        placement="partition",
        n_gpus=4,
        min_examples=10,
        seed=0,
        zoo=default_zoo().subset(SMALL_ZOO),
    )


def raw_get(server, path, headers=None):
    connection = HTTPConnection("127.0.0.1", server.port, timeout=30.0)
    connection.request("GET", path, headers=headers or {})
    response = connection.getresponse()
    raw = response.read()
    connection.close()
    return response, raw


class TestRouteTemplates:
    @pytest.mark.parametrize("method,path,expected", [
        ("GET", "/v1/info", "/v1/info"),
        ("GET", "/v1/apps", "/v1/apps"),
        ("GET", "/v1/apps/moons", "/v1/apps/{app}"),
        ("GET", "/v1/apps/moons/examples", "/v1/apps/{app}/examples"),
        ("POST", "/v1/apps/m/examples/7", "/v1/apps/{app}/examples/{id}"),
        ("POST", "/v1/apps/m/infer", "/v1/apps/{app}/infer"),
        ("GET", "/v1/jobs", "/v1/jobs"),
        ("GET", "/v1/jobs/job-1?wait=2", "/v1/jobs/{job}"),
        ("GET", "/v1/events", "/v1/events"),
        ("GET", "/nonsense", "(unmatched)"),
        ("GET", "/v1/apps/a/b/c/d/e", "(unmatched)"),
    ])
    def test_collapses_to_bounded_set(self, method, path, expected):
        assert route_template(method, path) == expected


class TestRequestIdOnTheWire:
    def test_every_response_carries_an_id(self, service):
        gateway, server = service
        response, _ = raw_get(server, "/v1/info")
        rid = response.getheader(REQUEST_ID_HEADER)
        assert rid and rid.startswith("req-")

    def test_client_supplied_id_is_adopted(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        response, raw = raw_get(
            server, "/v1/apps/nope",
            headers={
                "Authorization": f"Bearer {token}",
                REQUEST_ID_HEADER: "trace-12345",
            },
        )
        assert response.getheader(REQUEST_ID_HEADER) == "trace-12345"
        body = json.loads(raw.decode("utf-8"))
        assert body["error"]["request_id"] == "trace-12345"

    def test_unusable_client_id_replaced(self, service):
        gateway, server = service
        response, _ = raw_get(
            server, "/v1/info",
            headers={REQUEST_ID_HEADER: "x" * 500},
        )
        rid = response.getheader(REQUEST_ID_HEADER)
        assert rid.startswith("req-")

    def test_sdk_surfaces_id_on_errors(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        client = EaseMLClient(server.url, token)
        with pytest.raises(ApiError) as exc_info:
            client.app_status("missing")
        assert exc_info.value.request_id
        assert exc_info.value.request_id.startswith("req-")

    def test_auth_failures_still_echo(self, service):
        gateway, server = service
        response, raw = raw_get(
            server, "/v1/apps",
            headers={REQUEST_ID_HEADER: "trace-auth"},
        )
        assert response.status == 401
        assert response.getheader(REQUEST_ID_HEADER) == "trace-auth"
        body = json.loads(raw.decode("utf-8"))
        assert body["error"]["request_id"] == "trace-auth"


class TestRequestIdIntoJournal:
    def test_mutation_records_carry_the_callers_id(self, tmp_path):
        gateway, _ = open_durable_gateway(tmp_path / "state")
        server, _ = serve_background(gateway)
        try:
            token = gateway.create_tenant("alice")
            client = EaseMLClient(server.url, token)
            client.register_app("moons", MOONS_PROGRAM)
            inputs, outputs = task_payload("moons")
            client.feed("moons", inputs, outputs)
        finally:
            server.shutdown()
            server.server_close()
            gateway.store.close()
        by_type = {}
        with open(tmp_path / "state" / "journal.jsonl") as handle:
            for line in handle:
                record = json.loads(line)
                by_type[record["type"]] = record["payload"]
        # HTTP-driven mutations carry the request id end to end...
        assert by_type["app_registered"]["request_id"].startswith("req-")
        assert by_type["examples_fed"]["request_id"].startswith("req-")
        # ... while in-process calls (create_tenant above) have none.
        assert "request_id" not in by_type["tenant_created"]


class TestMetricsEndpoints:
    def test_prometheus_counts_traffic_unauthenticated(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        client = EaseMLClient(server.url, token)
        client.register_app("moons", MOONS_PROGRAM)
        client.info()
        client.info()
        response, raw = raw_get(server, METRICS_PATH)  # no token
        assert response.status == 200
        assert response.getheader("Content-Type").startswith(
            "text/plain; version=0.0.4"
        )
        text = raw.decode("utf-8")
        assert 'route="/v1/info"' in text
        assert "http_request_seconds_bucket" in text
        # The worker hop's histogram is exposed (and the register
        # above crossed it); the command queue's two families are gone.
        assert "http_worker_wait_seconds_count 1" in text
        assert "gateway_command" not in text
        # Per-tenant gateway counters ticked for the mutation.
        assert (
            'gateway_requests_total{tenant="alice",'
            'type="register_app",outcome="ok"} 1' in text
        )

    def test_json_snapshot(self, service):
        gateway, server = service
        client = EaseMLClient(server.url, gateway.create_tenant("a"))
        client.info()
        response, raw = raw_get(server, METRICS_JSON_PATH)
        assert response.status == 200
        body = json.loads(raw.decode("utf-8"))
        assert body["api_version"] == "v1"
        series = body["metrics"]["http_requests_total"]["series"]
        assert sum(s["value"] for s in series) >= 1

    def test_errors_counted_by_code(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        client = EaseMLClient(server.url, token)
        with pytest.raises(ApiError):
            client.app_status("missing")
        _, raw = raw_get(server, METRICS_PATH)
        assert (
            'http_errors_total{frontend="' in raw.decode("utf-8")
        )

    def test_disabled_registry_serves_empty(self):
        gateway = make_gateway(metrics=MetricsRegistry(enabled=False))
        server, _ = serve_background(gateway)
        try:
            response, raw = raw_get(server, METRICS_PATH)
            assert response.status == 200
            assert raw == b"\n"
            response, raw = raw_get(server, METRICS_JSON_PATH)
            assert json.loads(raw.decode("utf-8"))["metrics"] == {}
        finally:
            server.shutdown()
            server.server_close()


class TestMetricsToken:
    def test_gated_scrapes_require_bearer(self):
        gateway = make_gateway()
        server, _ = serve_background(
            gateway, metrics_token="scrape-secret"
        )
        try:
            response, raw = raw_get(server, METRICS_PATH)
            assert response.status == 401
            body = json.loads(raw.decode("utf-8"))
            assert body["error"]["code"] == "unauthorized"
            response, _ = raw_get(
                server,
                METRICS_JSON_PATH,
                headers={"Authorization": "Bearer wrong"},
            )
            assert response.status == 401
            good = {"Authorization": "Bearer scrape-secret"}
            response, raw = raw_get(server, METRICS_PATH, headers=good)
            assert response.status == 200
            assert b"http_requests_total" in raw
            response, raw = raw_get(
                server, METRICS_JSON_PATH, headers=good
            )
            assert response.status == 200
            assert json.loads(raw.decode("utf-8"))["api_version"] == "v1"
        finally:
            server.shutdown()
            server.server_close()


class TestJournalMetricsFamilies:
    def test_store_reports_into_gateway_registry(self, tmp_path):
        gateway, _ = open_durable_gateway(tmp_path / "state")
        try:
            gateway.create_tenant("alice")
            names = {f.name for f in gateway.metrics.families()}
            assert "journal_append_seconds" in names
            assert "journal_records_total" in names
            family = gateway.metrics.get("journal_records_total")
            counts = {
                labels[0]: child.value
                for labels, child in family.children()
            }
            assert counts.get("tenant_created") == 1.0
        finally:
            gateway.store.close()


#: One request per route shape (and the odd ones out): method, target,
#: JSON body, whether to send the tenant token.
_LABEL_TRAFFIC = (
    ("GET", "/v1/info", None, True),
    ("GET", "/v1/info", None, False),
    ("GET", "/v1/apps", None, True),
    ("GET", "/v1/apps;params", None, True),
    ("POST", "/v1/apps", {"app": "x"}, True),
    ("GET", "/v1/apps/ghost", None, True),
    ("DELETE", "/v1/apps/ghost", None, True),
    ("GET", "/v1/apps/ghost/examples", None, True),
    ("POST", "/v1/apps/ghost/examples/3", {"enabled": True}, True),
    ("POST", "/v1/apps/ghost/infer", {"x": [1.0, 2.0]}, True),
    ("GET", "/v1/jobs?app=ghost", None, True),
    ("GET", "/v1/jobs/job-9?wait=0", None, True),
    ("GET", "/v1/events?kinds=a,b&stream=0", None, True),
    ("GET", "/nonsense?x=1", None, True),
    ("GET", "/v1/apps/a/b/c/d/e", None, True),
    ("GET", "//v1/info", None, True),
    ("GET", "/metrics?x=1", None, False),
    ("GET", "/v1/metrics", None, False),
    ("GET", "/v1/traces?limit=abc", None, False),
)

#: ``http_requests_total`` and ``http_errors_total`` after the traffic
#: above — every family and label value the frontend minted for it.
_LABEL_GOLDEN = {
    "http_requests_total": [
        (["asyncio", "DELETE", "/v1/apps/{app}", "404"], 1.0),
        (["asyncio", "GET", "(unmatched)", "404"], 3.0),
        (["asyncio", "GET", "/metrics", "200"], 1.0),
        (["asyncio", "GET", "/v1/apps", "200"], 2.0),
        (["asyncio", "GET", "/v1/apps/{app}", "404"], 1.0),
        (["asyncio", "GET", "/v1/apps/{app}/examples", "404"], 1.0),
        (["asyncio", "GET", "/v1/events", "400"], 1.0),
        (["asyncio", "GET", "/v1/info", "200"], 1.0),
        (["asyncio", "GET", "/v1/info", "401"], 1.0),
        (["asyncio", "GET", "/v1/jobs", "404"], 1.0),
        (["asyncio", "GET", "/v1/jobs/{job}", "404"], 1.0),
        (["asyncio", "GET", "/v1/metrics", "200"], 1.0),
        (["asyncio", "GET", "/v1/traces", "400"], 1.0),
        (["asyncio", "POST", "/v1/apps", "400"], 1.0),
        (["asyncio", "POST", "/v1/apps/{app}/examples/{id}", "404"], 1.0),
        (["asyncio", "POST", "/v1/apps/{app}/infer", "404"], 1.0),
    ],
    "http_errors_total": [
        (["asyncio", "(unmatched)", "not_found"], 3.0),
        (["asyncio", "/v1/apps", "invalid_argument"], 1.0),
        (["asyncio", "/v1/apps/{app}", "not_found"], 2.0),
        (["asyncio", "/v1/apps/{app}/examples", "not_found"], 1.0),
        (["asyncio", "/v1/apps/{app}/examples/{id}", "not_found"], 1.0),
        (["asyncio", "/v1/apps/{app}/infer", "not_found"], 1.0),
        (["asyncio", "/v1/events", "invalid_argument"], 1.0),
        (["asyncio", "/v1/info", "unauthorized"], 1.0),
        (["asyncio", "/v1/jobs", "not_found"], 1.0),
        (["asyncio", "/v1/jobs/{job}", "not_found"], 1.0),
    ],
}


class TestRouteLabelsGolden:
    def test_metric_labels_for_every_route_shape(self, service):
        gateway, server = service
        token = gateway.create_tenant("alice")
        for method, target, body, with_token in _LABEL_TRAFFIC:
            connection = HTTPConnection(
                "127.0.0.1", server.port, timeout=30.0
            )
            headers = (
                {"Authorization": f"Bearer {token}"} if with_token else {}
            )
            payload = None if body is None else json.dumps(body).encode()
            connection.request(
                method, target, body=payload, headers=headers
            )
            connection.getresponse().read()
            connection.close()
        requests = gateway.metrics.get("http_requests_total")
        errors = gateway.metrics.get("http_errors_total")
        deadline = time.monotonic() + 10
        # A request is counted just after its response is written.
        while sum(c.value for _, c in requests.children()) < len(
            _LABEL_TRAFFIC
        ):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        seen = {
            family.name: sorted(
                (list(labels), child.value)
                for labels, child in family.children()
            )
            for family in (requests, errors)
        }
        assert seen == {
            name: sorted(series) for name, series in _LABEL_GOLDEN.items()
        }
