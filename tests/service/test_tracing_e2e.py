"""End-to-end tracing: /v1/traces, span coverage, exemplars, SLO gauges."""

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
from repro.obs import MetricsRegistry, Tracer
from repro.obs.context import REQUEST_ID_HEADER
from repro.service.api import from_wire
from repro.service.client import EaseMLClient
from repro.service.http import (
    METRICS_JSON_PATH,
    METRICS_PATH,
    TRACES_PATH,
    serve_background,
)


@pytest.fixture
def service():
    gateway = make_gateway()
    server, _ = serve_background(gateway)
    yield gateway, server
    server.shutdown()
    server.server_close()


def raw_get(server, path, headers=None):
    connection = HTTPConnection("127.0.0.1", server.port, timeout=30.0)
    connection.request("GET", path, headers=headers or {})
    response = connection.getresponse()
    raw = response.read()
    connection.close()
    return response, raw


def get_traces(server, query="", headers=None):
    response, raw = raw_get(server, TRACES_PATH + query, headers)
    assert response.status == 200, raw
    body = json.loads(raw.decode("utf-8"))
    assert body["api_version"] == "v1"
    return body["traces"]


def onboard(gateway, server, tenant="alice"):
    token = gateway.create_tenant(tenant)
    client = EaseMLClient(server.url, token, timeout=30.0)
    client.register_app("moons", MOONS_PROGRAM)
    inputs, outputs = task_payload("moons")
    client.feed("moons", inputs, outputs)
    return client


class TestTracesEndpoint:
    def test_traffic_produces_traces_with_spans(self, service):
        gateway, server = service
        client = onboard(gateway, server)
        client.info()
        traces = get_traces(server)
        assert traces
        by_route = {t["route"]: t for t in traces}
        trace = by_route["/v1/apps"]  # the register_app mutation
        assert trace["trace_id"].startswith("req-")
        assert trace["tenant"] == "alice"
        assert trace["status"] == 200
        names = {s["name"] for s in trace["spans"]}
        assert {"request", "frontend.decode", "gateway.handle"} <= names
        # Spans nest: gateway.handle hangs off the root.
        handle = next(
            s for s in trace["spans"] if s["name"] == "gateway.handle"
        )
        assert handle["parent"] == 0
        assert handle["attrs"]["type"] == "register_app"

    def test_training_spans_name_the_candidate(self, service):
        gateway, server = service
        client = onboard(gateway, server)
        handles = client.submit_training("moons", steps=2)
        # Nothing has polled a handle yet: the one /v1/jobs trace is
        # the submission.
        (trace,) = get_traces(server, "?route=/v1/jobs")
        spans = trace["spans"]
        picks = [s for s in spans if s["name"] == "scheduler.pick"]
        fits = [s for s in spans if s["name"] == "trainer.train"]
        # One pick and one fit per step, each naming the model, so a
        # slow cycle can be read off /v1/traces by candidate.
        picked = [s["attrs"]["candidate"] for s in picks]
        assert picked == [h.candidate for h in handles]
        assert [s["attrs"]["candidate"] for s in fits] == picked
        (handle,) = [s for s in spans if s["name"] == "gateway.handle"]
        assert {s["parent"] for s in picks + fits} == {handle["sid"]}

    def test_filters_and_limit(self, service):
        gateway, server = service
        client = onboard(gateway, server)
        client.info()
        assert all(
            t["tenant"] == "alice"
            for t in get_traces(server, "?tenant=alice")
        )
        assert get_traces(server, "?tenant=nobody") == []
        only_info = get_traces(server, "?route=/v1/info")
        assert {t["route"] for t in only_info} == {"/v1/info"}
        assert len(get_traces(server, "?limit=1")) == 1
        assert get_traces(server, "?min_ms=1e9") == []

    def test_bad_filters_are_400(self, service):
        gateway, server = service
        response, raw = raw_get(server, TRACES_PATH + "?min_ms=soon")
        assert response.status == 400
        body = json.loads(raw.decode("utf-8"))
        assert body["error"]["code"] == "invalid_argument"

    def test_scrapes_themselves_are_never_traced(self, service):
        gateway, server = service
        for _ in range(3):
            raw_get(server, METRICS_PATH)
            raw_get(server, METRICS_JSON_PATH)
        routes = {t["route"] for t in get_traces(server, "?limit=200")}
        assert not routes & {"/metrics", "/v1/metrics", "/v1/traces"}

    def test_disabled_metrics_disables_tracing(self):
        gateway = make_gateway(metrics=MetricsRegistry(enabled=False))
        server, _ = serve_background(gateway)
        try:
            token = gateway.create_tenant("alice")
            EaseMLClient(server.url, token, timeout=30.0).info()
            assert get_traces(server) == []
        finally:
            server.shutdown()
            server.server_close()


class TestTracesToken:
    def test_gate_covers_traces_and_echoes_request_id(self):
        gateway = make_gateway()
        server, _ = serve_background(
            gateway, metrics_token="scrape-secret"
        )
        try:
            # 401 without the bearer — and the 401 still echoes the id.
            response, raw = raw_get(
                server, TRACES_PATH,
                headers={REQUEST_ID_HEADER: "trace-gate"},
            )
            assert response.status == 401
            assert response.getheader(REQUEST_ID_HEADER) == "trace-gate"
            assert json.loads(raw)["error"]["code"] == "unauthorized"
            # Operator scrapes echo ids too (200s, both endpoints).
            good = {"Authorization": "Bearer scrape-secret",
                    REQUEST_ID_HEADER: "trace-ok"}
            for path in (TRACES_PATH, METRICS_PATH, METRICS_JSON_PATH):
                response, _ = raw_get(server, path, headers=good)
                assert response.status == 200
                assert (
                    response.getheader(REQUEST_ID_HEADER) == "trace-ok"
                )
        finally:
            server.shutdown()
            server.server_close()


class TestWriteTraceCoversTheStack:
    def test_durable_write_spans_socket_to_wal(self, tmp_path):
        from repro.ml.zoo import default_zoo
        from repro.persist import open_gateway

        gateway, _ = open_gateway(
            tmp_path / "state",
            sync="group",  # the commit barrier actually fsyncs
            placement="partition",
            n_gpus=4,
            min_examples=10,
            seed=0,
            zoo=default_zoo().subset(SMALL_ZOO),
        )
        server, _ = serve_background(gateway)
        try:
            onboard(gateway, server)
            traces = get_traces(server, "?route=/v1/apps")
            assert traces
            names = {s["name"] for s in traces[0]["spans"]}
            # The acceptance bar: one trace, every layer of the stack
            # (a mutation hops to a worker thread: queue.wait).
            assert {
                "request", "frontend.decode", "queue.wait",
                "gateway.handle", "journal.append", "journal.commit",
            } <= names
        finally:
            server.shutdown()
            server.server_close()
            gateway.store.close()


class TestQueueWaitMarksEveryHop:
    """``queue.wait`` is the frontend's loop -> worker hop: on every
    request that left the loop, on none that did not."""

    @staticmethod
    def exchange(server, token, rid, method, path, body=None):
        connection = HTTPConnection("127.0.0.1", server.port, timeout=30.0)
        connection.request(
            method,
            path,
            body=None if body is None else json.dumps(body).encode("utf-8"),
            headers={
                "Authorization": f"Bearer {token}",
                REQUEST_ID_HEADER: rid,
            },
        )
        response = connection.getresponse()
        raw = response.read()
        connection.close()
        assert response.status == 200, raw
        return from_wire(json.loads(raw.decode("utf-8")))

    @staticmethod
    def spans_of(gateway, rid):
        # The frontend finishes a trace after it wrote the response.
        deadline = time.monotonic() + 1.0
        while not gateway.tracer.get(rid):
            assert time.monotonic() < deadline, f"no trace for {rid}"
            time.sleep(0.002)
        (trace,) = gateway.tracer.get(rid)
        return sorted(trace["spans"], key=lambda s: s["start_ms"])

    def test_one_wait_per_hop_and_none_inline(self):
        gateway = make_gateway(tracer=Tracer(retain_rate=1.0, seed=0))
        server, _ = serve_background(gateway)
        try:
            token = onboard(gateway, server).token
            inputs, outputs = task_payload("moons", seed=1)
            hops = gateway.metrics.get("http_worker_wait_seconds").labels()
            before = hops.total

            def call(rid, method, path, body=None):
                return self.exchange(server, token, rid, method, path, body)

            call(
                "hop-feed", "POST", "/v1/apps/moons/examples",
                {"inputs": inputs[:5], "outputs": outputs[:5]},
            )
            submitted = call(
                "hop-submit", "POST", "/v1/jobs", {"app": "moons"}
            )
            job = f"/v1/jobs/{submitted.handles[0].job_id}"
            status = call("hop-poll", "GET", job)  # live: advances
            expected = 4  # feed, submit, poll, infer miss
            while not status.done:
                status = call("hop-poll-again", "GET", job)
                expected += 1
            call("loop-poll", "GET", job)  # terminal: a read
            row = {"x": inputs[0]}
            call("hop-infer", "POST", "/v1/apps/moons/infer", row)
            call("loop-infer", "POST", "/v1/apps/moons/infer", row)
            call("loop-status", "GET", "/v1/apps/moons")

            for rid in ("hop-feed", "hop-submit", "hop-poll", "hop-infer"):
                spans = self.spans_of(gateway, rid)
                (wait,) = [s for s in spans if s["name"] == "queue.wait"]
                (decode,) = [
                    s for s in spans if s["name"] == "frontend.decode"
                ]
                handle = [
                    s for s in spans if s["name"] == "gateway.handle"
                ][-1]
                # decode -> wait -> the handler that ran on the worker
                # (span times are rounded to 0.1 us).
                assert (
                    decode["start_ms"] + decode["duration_ms"]
                    <= wait["start_ms"] + 1e-3
                ), rid
                assert (
                    wait["start_ms"] + wait["duration_ms"]
                    <= handle["start_ms"] + 1e-3
                ), rid
            for rid in ("loop-poll", "loop-infer", "loop-status"):
                names = [s["name"] for s in self.spans_of(gateway, rid)]
                assert "gateway.handle" in names, rid
                assert "queue.wait" not in names, rid
            assert hops.total - before == expected
        finally:
            server.shutdown()
            server.server_close()


class TestExemplars:
    def test_latency_buckets_carry_trace_ids(self, service):
        gateway, server = service
        client = onboard(gateway, server)
        client.info()
        response, raw = raw_get(server, METRICS_JSON_PATH)
        body = json.loads(raw.decode("utf-8"))
        series = body["metrics"]["http_request_seconds"]["series"]
        exemplars = [
            bucket["exemplar"]
            for sample in series
            for bucket in sample["buckets"]
            if "exemplar" in bucket
        ]
        assert exemplars
        assert all(e["trace_id"].startswith("req-") for e in exemplars)
        # The exemplar links to a real retained trace id shape — and at
        # least one belongs to a trace the ring still holds.
        kept = {t["trace_id"] for t in get_traces(server, "?limit=200")}
        assert kept & {e["trace_id"] for e in exemplars}


class TestSLOGauges:
    def test_scrape_exports_per_tenant_attainment(self, service):
        gateway, server = service
        client = onboard(gateway, server)
        client.info()
        _, raw = raw_get(server, METRICS_PATH)
        text = raw.decode("utf-8")
        assert 'slo_attainment_ratio{tenant="alice",window="60s"}' in text
        assert 'slo_error_budget_burn{tenant="alice",window="60s"}' in text

    def test_injected_latency_breach_moves_burn(self, service):
        from repro.obs import SLOEngine, SLOObjective

        gateway, server = service
        # Re-point the gateway at an unmeetable objective: every
        # request now misses, so burn must leave zero.
        gateway.slo = SLOEngine(
            registry=gateway.metrics,
            default=SLOObjective(latency_ms=1e-6, target=0.9),
        )
        client = onboard(gateway, server)
        client.info()
        _, raw = raw_get(server, METRICS_JSON_PATH)
        body = json.loads(raw.decode("utf-8"))
        series = body["metrics"]["slo_error_budget_burn"]["series"]
        burns = {
            (s["labels"]["tenant"], s["labels"]["window"]): s["value"]
            for s in series
        }
        assert burns[("alice", "60s")] == pytest.approx(10.0)
