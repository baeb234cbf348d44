"""The inference data plane end to end: vectorized predict,
cross-request coalescing, the prediction cache, and rate limits."""

import json
import sys
import threading
import time
from http.client import HTTPConnection

import numpy as np
import pytest

from service_helpers import (
    MOONS_PROGRAM,
    make_gateway,
    task_payload,
)

from repro.engine.events import EventKind
from repro.cli import _build_parser, _infer_plane_config
from repro.infer import (
    InferPlane,
    InferPlaneConfig,
    batching,
    parse_batch_window,
)
from repro.obs import MetricsRegistry, Tracer
from repro.obs.context import RequestContext, bind_request, clear_request
from repro.obs.tracing import TraceState
from repro.service.api import (
    ApiError,
    ApiErrorCode,
    FeedRequest,
    InferRequest,
    JobStatusRequest,
    ListJobsRequest,
    RegisterAppRequest,
    SubmitTrainingRequest,
)
from repro.service.client import EaseMLClient
from repro.service.gateway import TenantQuota
from repro.service.http import serve_background


def onboard(gateway, tenant="alice", app="moons", quota=None, steps=2):
    token = gateway.create_tenant(tenant, quota)
    gateway.handle(
        RegisterAppRequest(
            auth_token=token, app=app, program=MOONS_PROGRAM
        )
    )
    inputs, outputs = task_payload("moons")
    gateway.handle(
        FeedRequest(
            auth_token=token, app=app, inputs=inputs, outputs=outputs
        )
    )
    handles = gateway.handle(
        SubmitTrainingRequest(auth_token=token, app=app, steps=steps)
    ).handles
    for handle in handles:
        while not gateway.handle(
            JobStatusRequest(auth_token=token, job_id=handle.job_id)
        ).done:
            pass
    return token, inputs


@pytest.fixture
def trained(gateway):
    token, inputs = onboard(gateway)
    return gateway, token, inputs


def infer(gateway, token, rows, app="moons"):
    return gateway.handle(
        InferRequest(auth_token=token, app=app, rows=tuple(rows))
    )


class TestVectorizedParity:
    def test_batch_bit_identical_to_per_row(self, trained):
        gateway, token, inputs = trained
        probes = inputs[:10]
        singles = [
            gateway.handle(
                InferRequest(auth_token=token, app="moons", x=row)
            ).prediction
            for row in probes
        ]
        batch = infer(gateway, token, probes)
        assert list(batch.predictions) == singles

    def test_one_infer_event_per_batch_with_rows(self, trained):
        gateway, token, inputs = trained
        log = gateway.server.log
        before = len(log.of_kind(EventKind.INFER))
        infer(gateway, token, inputs[:7])
        events = log.of_kind(EventKind.INFER)
        assert len(events) == before + 1
        assert events[-1].payload["rows"] == 7

    def test_single_row_also_logs_rows(self, trained):
        gateway, token, inputs = trained
        gateway.handle(
            InferRequest(auth_token=token, app="moons", x=inputs[0])
        )
        event = gateway.server.log.of_kind(EventKind.INFER)[-1]
        assert event.payload["rows"] == 1


class TestEdgeCases:
    def test_ragged_rows_name_the_row(self, trained):
        gateway, token, inputs = trained
        with pytest.raises(ApiError) as err:
            infer(gateway, token, (inputs[0], (1.0,)))
        assert err.value.code is ApiErrorCode.INVALID_ARGUMENT
        assert "row 1 has 1 scalars" in str(err.value)
        assert err.value.details["row"] == 1

    def test_non_numeric_row_named(self, trained):
        gateway, token, inputs = trained
        with pytest.raises(ApiError) as err:
            infer(gateway, token, (inputs[0], ("a", "b")))
        assert err.value.code is ApiErrorCode.INVALID_ARGUMENT
        assert "row 1 is not numeric" in str(err.value)

    def test_empty_batch_rejected(self, trained):
        gateway, token, _ = trained
        with pytest.raises(ApiError) as err:
            infer(gateway, token, ())
        assert err.value.code is ApiErrorCode.INVALID_ARGUMENT

    def test_nan_rows_rejected(self, trained):
        gateway, token, inputs = trained
        with pytest.raises(ApiError) as err:
            infer(gateway, token, (inputs[0], (float("nan"), 1.0)))
        assert err.value.code is ApiErrorCode.INVALID_ARGUMENT
        assert "non-finite" in str(err.value)
        assert err.value.details["row"] == 1

    def test_inf_rows_rejected(self, trained):
        gateway, token, inputs = trained
        with pytest.raises(ApiError) as err:
            infer(gateway, token, ((float("inf"), 1.0),))
        assert "non-finite" in str(err.value)

    def test_both_x_and_rows_rejected(self, trained):
        gateway, token, inputs = trained
        with pytest.raises(ApiError, match="not both"):
            gateway.handle(InferRequest(
                auth_token=token, app="moons",
                x=inputs[0], rows=(inputs[1],),
            ))

    def test_untrained_app_failed_precondition(self, gateway):
        token = gateway.create_tenant("cold")
        gateway.handle(RegisterAppRequest(
            auth_token=token, app="fresh", program=MOONS_PROGRAM
        ))
        with pytest.raises(ApiError) as err:
            infer(gateway, token, ((1.0, 2.0),), app="fresh")
        assert err.value.code is ApiErrorCode.FAILED_PRECONDITION
        assert "submit training" in str(err.value)


class TestPredictionCache:
    def test_repeat_rows_served_from_cache(self, trained):
        gateway, token, inputs = trained
        probes = inputs[:5]
        first = infer(gateway, token, probes)
        log = gateway.server.log
        flushes = len(log.of_kind(EventKind.INFER))
        second = infer(gateway, token, probes)
        assert second.predictions == first.predictions
        # A full cache hit answers without touching the model.
        assert len(log.of_kind(EventKind.INFER)) == flushes
        hits = gateway.metrics.get("infer_cache_hits_total")
        assert hits.labels("moons").value >= len(probes)

    def test_promotion_invalidates_cache(self, trained):
        gateway, token, inputs = trained
        infer(gateway, token, inputs[:5])
        assert len(gateway.infer_plane.cache) > 0
        app = gateway.server.get_app("moons")
        gateway._on_promotion(app)
        assert len(gateway.infer_plane.cache) == 0

    def test_promotion_hook_is_registered(self, trained):
        gateway, _, _ = trained
        assert (
            gateway._on_promotion
            in gateway.server._promotion_callbacks
        )

    def test_version_race_reexecutes_against_new_model(self):
        """A promotion between the cache probe and the flush must not
        mix old-model cached rows with new-model flush rows."""
        plane = InferPlane(
            config=InferPlaneConfig(mode="off", cache_rows=64),
            metrics=MetricsRegistry(),
        )
        calls = []

        def execute(version, label):
            def run(X_flush):
                calls.append(len(X_flush))
                return (
                    np.full(len(X_flush), label, dtype=np.int64),
                    {"model": "m", "model_version": version},
                )
            return run

        def peek_v1():
            return "m", "v1"

        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        plane.predict(
            "app", X, execute("v1", 0), probe=plane.probe("app", X, peek_v1)
        )
        # The probe still sees v1 (one cache hit) — on the frontend it
        # ran on the loop, a hop before the flush — but the flush lands
        # on v2: the plane must re-run the WHOLE batch against v2.
        X2 = np.array([[1.0, 2.0], [9.0, 9.0]])
        probe = plane.probe("app", X2, peek_v1)
        assert (len(probe.hits), probe.misses) == (1, [1])
        predictions, meta, cached = plane.predict(
            "app", X2, execute("v2", 1), probe=probe
        )
        assert predictions.tolist() == [1, 1]
        assert (meta["model_version"], cached) == ("v2", 0)
        assert calls == [2, 1, 2]  # warm-up, the miss, the full re-run

    def test_cache_disabled_by_config(self, gateway):
        gateway.configure_infer_plane(
            InferPlaneConfig(mode="off", cache_rows=0)
        )
        token, inputs = onboard(gateway)
        infer(gateway, token, inputs[:3])
        infer(gateway, token, inputs[:3])
        assert len(gateway.infer_plane.cache) == 0


class TestRateLimits:
    def test_quota_refuses_with_retry_after(self, gateway):
        quota = TenantQuota(
            infer_rows_per_second=10.0, infer_burst_rows=10.0
        )
        token, inputs = onboard(gateway, quota=quota)
        infer(gateway, token, inputs[:10])
        with pytest.raises(ApiError) as err:
            infer(gateway, token, inputs[:10])
        assert err.value.code is ApiErrorCode.QUOTA_EXCEEDED
        assert err.value.details["retry_after"] > 0
        assert err.value.details["rate_rows_per_second"] == 10.0
        limited = gateway.metrics.get("infer_rate_limited_total")
        assert limited.labels("alice").value == 1

    def test_default_rate_applies_without_quota(self, gateway):
        gateway.configure_infer_plane(
            InferPlaneConfig(mode="off", default_rate=5.0)
        )
        token, inputs = onboard(gateway)
        infer(gateway, token, inputs[:5])
        with pytest.raises(ApiError) as err:
            infer(gateway, token, inputs[:5])
        assert err.value.code is ApiErrorCode.QUOTA_EXCEEDED

    def test_batch_over_the_burst_is_invalid_not_retryable(self):
        plane = InferPlane(metrics=MetricsRegistry())
        for _ in range(2):  # the same answer however often it is sent
            with pytest.raises(ApiError) as err:
                plane.admit("t", (10.0, None), 64)
            assert err.value.code is ApiErrorCode.INVALID_ARGUMENT
            assert err.value.http_status == 400
            # No retry_after detail, so no Retry-After header either.
            assert "retry_after" not in err.value.details
            assert err.value.details["rows"] == 64
            assert err.value.details["burst_rows"] == 10.0
            for part in ("64", "10", "infer_burst_rows", "split the batch"):
                assert part in str(err.value), part
        limited = plane._m_rate_limited.labels("t")
        assert limited.value == 0
        # Nothing was charged: a batch of the whole burst still fits.
        plane.admit("t", (10.0, None), 10)

    def test_unlimited_by_default(self, trained):
        gateway, token, inputs = trained
        for _ in range(5):
            infer(gateway, token, inputs[:20])


class TestCoalescing:
    def test_concurrent_tenants_coalesce_per_app(self, gateway):
        gateway.configure_infer_plane(InferPlaneConfig(
            mode="fixed", window=0.01, cache_rows=0
        ))
        tenants = [
            onboard(gateway, tenant=f"t{i}", app=f"app-{i}")
            for i in range(2)
        ]
        expected = {}
        for i, (token, inputs) in enumerate(tenants):
            expected[i] = infer(
                gateway, token, inputs[:4], app=f"app-{i}"
            ).predictions
        results = {}
        errors = []
        barrier = threading.Barrier(8)

        def worker(i, j):
            token, inputs = tenants[i]
            barrier.wait()
            try:
                results[(i, j)] = infer(
                    gateway, token, inputs[:4], app=f"app-{i}"
                ).predictions
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, j))
            for i in range(2)
            for j in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for (i, _), predictions in results.items():
            assert predictions == expected[i]

    def test_flush_metrics_observed(self, trained):
        gateway, token, inputs = trained
        infer(gateway, token, inputs[:6])
        sizes = gateway.metrics.get("infer_batch_size")
        assert sizes is not None
        assert sizes.percentile(50) > 0
        # One queue-wait sample per request, and the old per-flush
        # window histogram (a constant 0 under the convoy) is gone.
        waits = gateway.metrics.get("infer_queue_wait_seconds")
        assert waits.labels().total == 1
        assert gateway.metrics.get("infer_batch_window_seconds") is None

    def test_coalesce_span_says_how_long_the_request_waited(
        self, trained
    ):
        gateway, token, inputs = trained
        context = bind_request(RequestContext(request_id="req-1"))
        context.trace = TraceState("req-1")
        try:
            infer(gateway, token, inputs[:3])
        finally:
            clear_request()
        coalesce = next(
            s for s in context.trace.spans if s["name"] == "batch.coalesce"
        )
        assert coalesce["attrs"]["batch_requests"] == 1
        assert 0.0 <= coalesce["attrs"]["waited_ms"] <= (
            coalesce["duration_ms"]
        )

    def test_queue_fault_is_internal_not_a_training_hint(
        self, trained, monkeypatch
    ):
        """A rider abandoned by its flush gets 500, not the 4xx advice
        that belongs to an untrained model."""
        gateway, token, inputs = trained
        gateway.configure_infer_plane(InferPlaneConfig(cache_rows=0))
        monkeypatch.setattr(batching, "FOLLOWER_TIMEOUT", 0.05)
        outcome = {}

        def lead():
            outcome["leader"] = infer(gateway, token, inputs[:2])

        # Holding the gateway lock stalls the leader's flush inside
        # _predict_batch for as long as the test wants.
        with gateway._lock:
            leader = threading.Thread(target=lead)
            leader.start()
            deadline = time.monotonic() + 30.0
            while not (
                gateway.infer_plane._queues
                and gateway.infer_plane._queues["moons"]._in_flight
            ):
                assert time.monotonic() < deadline
                time.sleep(0.001)
            with pytest.raises(ApiError) as err:
                infer(gateway, token, inputs[2:4])
        leader.join(30.0)
        assert not leader.is_alive()
        assert err.value.code is ApiErrorCode.INTERNAL
        assert err.value.http_status == 500
        assert "submit training" not in str(err.value)
        assert len(outcome["leader"].predictions) == 2

    def test_full_queue_sheds_with_429(self, trained, monkeypatch):
        gateway, token, inputs = trained
        monkeypatch.setattr(batching, "MAX_PARKED", 0)
        with pytest.raises(ApiError) as err:
            infer(gateway, token, inputs[:2])
        assert err.value.code is ApiErrorCode.QUOTA_EXCEEDED
        assert "retry_after" in err.value.details

    def test_adaptive_mode_answers_correctly(self, gateway):
        gateway.configure_infer_plane(
            InferPlaneConfig(mode="adaptive", cache_rows=0)
        )
        token, inputs = onboard(gateway)
        single = gateway.handle(InferRequest(
            auth_token=token, app="moons", x=inputs[0]
        )).prediction
        batch = infer(gateway, token, inputs[:1])
        assert batch.predictions == (single,)


class TestBatchWindowSpellings:
    """``--infer-batch-window`` keeps its three spellings."""

    def config_for(self, *flags):
        args = _build_parser().parse_args(["serve", *flags])
        return _infer_plane_config(args)

    def queue_for(self, config):
        plane = InferPlane(config=config)
        return plane._queue_for("app", lambda X: (X, {}))

    def test_default_is_the_convoy_without_a_timer(self):
        config = self.config_for()
        assert config.mode == "adaptive"
        assert self.queue_for(config).window == 0.0

    def test_seconds_put_a_timer_in_front_of_the_convoy(self):
        config = self.config_for("--infer-batch-window", "0.004")
        assert (config.mode, config.window) == ("fixed", 0.004)
        assert self.queue_for(config).window == 0.004

    def test_off_bypasses_the_queue(self):
        config = self.config_for("--infer-batch-window", "off")
        assert config.mode == "off"
        plane = InferPlane(config=config)
        plane.predict(
            "app",
            np.array([[1.0, 2.0]]),
            lambda X: (np.zeros(len(X), dtype=np.int64), {}),
        )
        assert not plane._queues

    def test_bad_values_are_refused(self):
        with pytest.raises(ValueError, match="'off', 'adaptive'"):
            parse_batch_window("soon")
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            parse_batch_window("2.5")
        with pytest.raises(ValueError, match="window must be >= 0"):
            InferPlaneConfig(mode="fixed", window=-0.001)


class TestQuotaValidation:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="infer_rows_per_second"):
            TenantQuota(infer_rows_per_second=0.0)

    def test_rejects_sub_row_burst(self):
        with pytest.raises(ValueError, match="infer_burst_rows"):
            TenantQuota(infer_burst_rows=0.5)

    def test_defaults_are_unlimited(self):
        quota = TenantQuota()
        assert quota.infer_rows_per_second is None
        assert quota.infer_burst_rows is None


# ----------------------------------------------------------------------
# The frontend's routing of infer: a full cache hit never leaves the
# event loop; a request with a miss hops once, carrying the probe.
# ----------------------------------------------------------------------
LOOP_THREAD = "easeml-http"  # serve_background's name for the loop
INFER_ROUTE = "/v1/apps/{app}/infer"


class Spy:
    """Counts calls (and the threads they ran on) of wrapped callables."""

    def __init__(self, monkeypatch):
        self._patch = monkeypatch
        self.threads = {}

    def on(self, owner, attr, name=None):
        name = name or attr
        original = getattr(owner, attr)
        seen = self.threads.setdefault(name, [])

        def wrapper(*args, **kwargs):
            seen.append(threading.current_thread().name)
            return original(*args, **kwargs)

        self._patch.setattr(owner, attr, wrapper)
        return seen

    def reset(self):
        for seen in self.threads.values():
            del seen[:]


def raw_infer(server, token, app, body):
    """One bare infer exchange: (status, headers, decoded body)."""
    connection = HTTPConnection("127.0.0.1", server.port, timeout=30.0)
    connection.request(
        "POST",
        f"/v1/apps/{app}/infer",
        body=json.dumps(body).encode("utf-8"),
        headers={"Authorization": f"Bearer {token}"},
    )
    response = connection.getresponse()
    raw = response.read()
    connection.close()
    return response.status, dict(response.getheaders()), json.loads(raw)


@pytest.fixture
def live(monkeypatch):
    """A trained app behind a real HTTP server, every request traced,
    with spies on the infer path and on both worker pools."""
    gateway = make_gateway(tracer=Tracer(retain_rate=1.0, seed=0))
    token, inputs = onboard(gateway)
    server, _ = serve_background(gateway)
    spy = Spy(monkeypatch)
    spy.on(gateway, "_rows_to_matrix", "validate")
    spy.on(gateway.infer_plane, "admit")
    spy.on(gateway.infer_plane.cache, "lookup")
    spy.on(gateway.infer_plane, "predict")
    spy.on(gateway, "_predict_batch", "flush")
    spy.on(gateway.slo, "record", "slo")
    spy.on(server._pool, "submit", "pool")
    spy.on(server._wait_pool, "submit", "wait_pool")
    client = EaseMLClient(server.url, token, timeout=30.0)
    try:
        yield gateway, server, client, token, inputs, spy
    finally:
        client.close()
        server.shutdown()
        server.server_close()


@pytest.fixture
def cheap(monkeypatch):
    """Count every model these tests train as cheap enough to flush on
    the loop, however loaded the host that times its predicts."""
    monkeypatch.setattr(batching, "INLINE_FLUSH_SECONDS", 1.0)


def requests_ok(gateway, tenant="alice"):
    family = gateway.metrics.get("gateway_requests_total")
    return family.labels(tenant, "infer", "ok").value


def infer_traces(gateway, expected):
    """The retained infer traces, once ``expected`` of them are in.

    The frontend counts a request into ``http_requests_total`` and
    finishes its trace *after* writing the response, so that both
    include the write — and the SDK call returns as soon as the bytes
    arrive.  Finishing the trace is the last thing a request does: when
    it is in, the rest of the post-write accounting is too.
    """
    deadline = time.monotonic() + 1.0
    while True:
        traces = gateway.tracer.snapshot(route=INFER_ROUTE, limit=100)
        if len(traces) >= expected or time.monotonic() > deadline:
            return traces
        time.sleep(0.002)


class TestFullHitsStayOnTheLoop:
    def test_all_hit_is_answered_inline(self, live):
        gateway, server, client, _, inputs, spy = live
        rows = inputs[:8]
        first = client.infer_batch("moons", rows)
        single = client.infer("moons", rows[0])
        spy.reset()
        again = client.infer_batch("moons", rows)
        single_again = client.infer("moons", rows[0])
        assert again.predictions == first.predictions
        assert single_again.prediction == single.prediction
        assert again.model_version == first.model_version
        # Validated, admitted, looked up and answered on the loop,
        # once each per request, and nothing went to either executor.
        for stage in ("validate", "admit", "lookup", "predict", "slo"):
            assert spy.threads[stage] == [LOOP_THREAD] * 2, stage
        assert spy.threads["flush"] == []
        assert spy.threads["pool"] == []
        assert spy.threads["wait_pool"] == []

    def test_partial_hit_on_a_measured_model_stays_on_the_loop(
        self, live, cheap
    ):
        gateway, server, client, _, inputs, spy = live
        client.infer_batch("moons", inputs[:4])
        # The app's first flush had no cost estimate: it hopped, and
        # the probe ran on the loop, once; the worker got its products.
        for stage in ("validate", "admit", "lookup"):
            assert spy.threads[stage] == [LOOP_THREAD], stage
        assert len(spy.threads["pool"]) == 1
        (worker,) = spy.threads["flush"]
        assert worker.startswith("easeml-aio_")
        # The loop offered the misses first, and was told to hop.
        assert spy.threads["predict"] == [LOOP_THREAD, worker]
        assert spy.threads["slo"] == [worker]
        spy.reset()
        answer = client.infer_batch("moons", inputs[2:8])  # 2 hit, 4 miss
        assert len(answer.predictions) == 6
        # That flush was timed: the partial hit never leaves the loop.
        for stage in ("validate", "admit", "lookup", "predict", "flush",
                      "slo"):
            assert spy.threads[stage] == [LOOP_THREAD], stage
        assert spy.threads["pool"] == []
        # Only the four misses went to the model.
        flush = gateway.server.log.of_kind(EventKind.INFER)[-1]
        assert flush.payload["rows"] == 4

    def test_cold_app_goes_to_the_pool(self, live):
        gateway, server, client, _, inputs, spy = live
        client.register_app("cold", MOONS_PROGRAM)
        spy.reset()
        with pytest.raises(ApiError) as err:
            client.infer_batch("cold", inputs[:2])
        assert err.value.code is ApiErrorCode.FAILED_PRECONDITION
        assert spy.threads["validate"] == [LOOP_THREAD]
        assert spy.threads["lookup"] == []  # no version to look up at
        assert len(spy.threads["pool"]) == 1
        assert spy.threads["flush"][0].startswith("easeml-aio_")

    def test_cache_disabled_hops_until_a_flush_is_measured(
        self, live, cheap
    ):
        gateway, server, client, _, inputs, spy = live
        gateway.configure_infer_plane(InferPlaneConfig(cache_rows=0))
        for _ in range(3):
            client.infer_batch("moons", inputs[:3])
        # Every request is a miss; only the first, with nothing timed
        # yet, pays the hop.
        assert len(spy.threads["pool"]) == 1
        assert spy.threads["validate"] == [LOOP_THREAD] * 3
        assert spy.threads["flush"][0].startswith("easeml-aio_")
        assert spy.threads["flush"][1:] == [LOOP_THREAD] * 2

    def test_in_process_handle_is_one_pass_too(self, live):
        gateway, _, _, token, inputs, spy = live
        infer(gateway, token, inputs[:4])
        infer(gateway, token, inputs[2:6])
        for stage in ("validate", "admit", "lookup", "predict", "slo"):
            assert len(spy.threads[stage]) == 2, stage

    def test_each_request_is_accounted_once(self, live):
        gateway, server, client, _, inputs, spy = live
        hits = gateway.metrics.get("infer_cache_hits_total")
        routed = gateway.metrics.get("http_requests_total")

        def counts():
            return (
                requests_ok(gateway),
                hits.labels("moons").value,
                routed.labels("asyncio", "POST", INFER_ROUTE, 200).value,
                len(infer_traces(gateway, 0)),
                len(spy.threads["slo"]),
            )

        def counts_after_write(previous):
            infer_traces(gateway, previous[3] + 1)
            return counts()

        before = counts()
        client.infer_batch("moons", inputs[:8])  # all miss: pool path
        after_miss = counts_after_write(before)
        client.infer_batch("moons", inputs[:8])  # all hit: loop path
        after_hit = counts_after_write(after_miss)
        assert [b - a for a, b in zip(before, after_miss)] == [1, 0, 1, 1, 1]
        assert [b - a for a, b in zip(after_miss, after_hit)] == [1, 8, 1, 1, 1]
        # Both scored into the infer SLO class, and nowhere twice.
        assert gateway.slo.class_attainment("alice", "infer", 60) == 1.0
        latency = gateway.metrics.get("gateway_request_seconds")
        assert latency.labels("infer").total == after_hit[0]

    def test_miss_trace_shows_both_halves(self, live):
        gateway, server, client, _, inputs, _ = live
        client.infer_batch("moons", inputs[:8])
        (trace,) = infer_traces(gateway, 1)
        names = [s["name"] for s in trace["spans"]]
        # The probe on the loop, then the blocking half on a worker;
        # one request, one trace.
        assert names.count("gateway.handle") == 2
        assert names.count("batch.coalesce") == 1
        assert trace["tenant"] == "alice"


class TestCheapMissesStayOnTheLoop:
    """A miss is answered on the loop when nothing it needs can make
    it wait: the gateway lock is free, no flush is in flight, and the
    app's last flush measured under ``INLINE_FLUSH_SECONDS``."""

    @staticmethod
    def warm(client, inputs, spy):
        """One miss, to time the app's first flush (on a worker)."""
        client.infer_batch("moons", inputs[:4])
        assert len(spy.threads["pool"]) == 1
        spy.reset()

    @staticmethod
    def new_traces(gateway, seen, count):
        traces = infer_traces(gateway, len(seen) + count)
        return [t for t in traces if t["trace_id"] not in seen]

    def test_cheap_measured_miss_flushes_on_the_loop(self, live, cheap):
        gateway, server, client, _, inputs, spy = live
        self.warm(client, inputs, spy)
        spy.on(batching.BatchQueue, "submit", "convoy")
        waits = gateway.metrics.get("infer_queue_wait_seconds").labels()
        waited = waits.total
        seen = {t["trace_id"] for t in infer_traces(gateway, 1)}
        answer = client.infer_batch("moons", inputs[10:18])
        assert len(answer.predictions) == 8
        # Probe, convoy, flush and accounting: all on the loop, once.
        for stage in ("predict", "convoy", "flush", "slo"):
            assert spy.threads[stage] == [LOOP_THREAD], stage
        assert spy.threads["pool"] == []
        # The flush went through the convoy: one queue-wait sample.
        assert waits.total == waited + 1
        (trace,) = self.new_traces(gateway, seen, 1)
        names = [s["name"] for s in trace["spans"]]
        assert names.count("gateway.handle") == 1
        assert names.count("batch.coalesce") == 1
        assert "queue.wait" not in names
        assert requests_ok(gateway) == 2

    def test_promotion_sends_the_next_miss_to_a_worker(self, live, cheap):
        gateway, server, client, _, inputs, spy = live
        self.warm(client, inputs, spy)
        gateway._on_promotion(gateway.server.get_app("moons"))
        client.infer_batch("moons", inputs[10:14])
        client.infer_batch("moons", inputs[20:24])
        # The promoted model's first flush is timed on a worker; the
        # next miss uses that measurement.
        assert len(spy.threads["pool"]) == 1
        (first, second) = spy.threads["flush"]
        assert first.startswith("easeml-aio_")
        assert second == LOOP_THREAD

    def test_miss_while_the_lock_is_held_hops_and_reads_pass(
        self, live, cheap
    ):
        gateway, server, client, token, inputs, spy = live
        self.warm(client, inputs, spy)
        reader = EaseMLClient(server.url, token, timeout=30.0)
        outcome = {}

        def miss():
            outcome["answer"] = client.infer_batch("moons", inputs[10:14])

        in_flight = threading.Thread(target=miss)
        try:
            with gateway._lock:
                in_flight.start()
                deadline = time.monotonic() + 10.0
                while not spy.threads["pool"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                # The miss waits for the lock on a worker, not on the
                # loop, which still answers reads.
                status = reader.app_status("moons")
                assert "answer" not in outcome
        finally:
            in_flight.join(30.0)
            reader.close()
        assert status.app == "moons"
        assert len(outcome["answer"].predictions) == 4
        (worker,) = spy.threads["flush"]
        assert worker.startswith("easeml-aio_")

    def test_miss_behind_an_in_flight_flush_parks_on_a_worker(
        self, live, cheap, monkeypatch
    ):
        gateway, server, client, token, inputs, spy = live
        self.warm(client, inputs, spy)
        convoy = spy.on(batching.BatchQueue, "submit", "convoy")
        flush = gateway._predict_batch
        entered, release = threading.Event(), threading.Event()

        def held_flush(app, X):
            # The first flush stalls before it takes the gateway lock,
            # so the loop can have the lock but not the convoy.
            if not entered.is_set():
                entered.set()
                assert release.wait(10.0)
            return flush(app, X)

        monkeypatch.setattr(gateway, "_predict_batch", held_flush)
        leader = threading.Thread(
            target=infer, args=(gateway, token, inputs[10:14])
        )
        outcome = {}

        def rider():
            outcome["answer"] = client.infer_batch("moons", inputs[20:24])

        riding = threading.Thread(target=rider)
        leader.start()
        try:
            assert entered.wait(10.0)
            riding.start()
            deadline = time.monotonic() + 10.0
            while len(convoy) < 3:  # leader, rider on the loop, rider
                assert time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            release.set()
            leader.join(30.0)
            riding.join(30.0)
        assert convoy[1] == LOOP_THREAD  # refused: a flush in flight
        assert convoy[2].startswith("easeml-aio_")
        assert len(spy.threads["pool"]) == 1
        assert len(outcome["answer"].predictions) == 4
        # The rider parked and then led the next flush, on its worker.
        rows = [e.payload["rows"]
                for e in gateway.server.log.of_kind(EventKind.INFER)]
        assert rows[-2:] == [4, 4]

    def test_slow_model_keeps_hopping(self, live, monkeypatch):
        gateway, server, client, _, inputs, spy = live
        app = gateway.server.get_app("moons")
        real = app.infer_rows

        def slow(X):
            time.sleep(2 * batching.INLINE_FLUSH_SECONDS)
            return real(X)

        monkeypatch.setattr(app, "infer_rows", slow)
        for start in (0, 10, 20):
            client.infer_batch("moons", inputs[start:start + 4])
        assert len(spy.threads["pool"]) == 3
        assert LOOP_THREAD not in spy.threads["flush"]

    def test_concurrent_misses_and_promotions_answer_every_row(
        self, live, cheap
    ):
        """More clients than cores, all missing on one app, while
        promotions keep dropping the cost estimate: loop flushes,
        worker flushes and parked riders interleave, and every request
        still gets exactly its own rows' predictions."""
        gateway, server, client, token, inputs, spy = live
        expected = client.infer_batch("moons", inputs).predictions
        gateway.configure_infer_plane(InferPlaneConfig(cache_rows=0))
        app = gateway.server.get_app("moons")
        stop = threading.Event()
        errors, answered = [], []

        def rider(k):
            own = EaseMLClient(server.url, token, timeout=30.0)
            try:
                for i in range(25):
                    start = (7 * k + 3 * i) % (len(inputs) - 4)
                    rows = inputs[start:start + 4]
                    got = own.infer_batch("moons", rows).predictions
                    if got != expected[start:start + 4]:
                        errors.append((start, got))
                    answered.append(k)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                own.close()

        def promote():
            while not stop.wait(0.0005):
                gateway._on_promotion(app)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=rider, args=(k,))
                   for k in range(6)]
        promoter = threading.Thread(target=promote)
        try:
            promoter.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            stop.set()
            promoter.join(10.0)
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads + [promoter])
        assert errors == []
        assert len(answered) == 6 * 25

    @pytest.mark.parametrize("mode", ["fixed", "off"])
    def test_fixed_and_off_modes_always_hop(self, live, cheap, mode):
        gateway, server, client, _, inputs, spy = live
        gateway.configure_infer_plane(InferPlaneConfig(
            mode=mode, window=0.001, cache_rows=0
        ))
        for _ in range(3):
            client.infer_batch("moons", inputs[:4])
        assert len(spy.threads["pool"]) == 3
        assert LOOP_THREAD not in spy.threads["flush"]


class TestInlineAdmission:
    def test_bucket_charged_once_on_either_path(self, monkeypatch):
        gateway = make_gateway()
        quota = TenantQuota(
            infer_rows_per_second=0.001, infer_burst_rows=16.0
        )
        token, inputs = onboard(gateway, quota=quota)
        server, _ = serve_background(gateway)
        spy = Spy(monkeypatch)
        spy.on(server._pool, "submit", "pool")
        try:
            body = {"rows": [list(r) for r in inputs[:8]]}
            # 8 of 16 tokens on the pool path (all miss) ...
            status, _, _ = raw_infer(server, token, "moons", body)
            assert status == 200
            assert len(spy.threads["pool"]) == 1
            # ... 8 more on the loop path (all hit): neither charged
            # twice, or this one would already be refused ...
            status, _, _ = raw_infer(server, token, "moons", body)
            assert status == 200
            # ... and the third is refused on the loop, before any hop.
            status, headers, payload = raw_infer(
                server, token, "moons", body
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert payload["error"]["code"] == "quota_exceeded"
            assert len(spy.threads["pool"]) == 1
            limited = gateway.metrics.get("infer_rate_limited_total")
            assert limited.labels("alice").value == 1
            refused = gateway.metrics.get("gateway_requests_total")
            assert refused.labels(
                "alice", "infer", "quota_exceeded"
            ).value == 1
        finally:
            server.shutdown()
            server.server_close()


class TestErrorParity:
    """Errors the probe finds answer like the in-process (blocking)
    path does: same code, same HTTP status."""

    CASES = {
        "unknown_app": ("nope", {"rows": [[0.0, 0.0]]},
                        ApiErrorCode.NOT_FOUND, 404),
        "ragged": ("moons", {"rows": [[0.0, 0.0], [1.0]]},
                   ApiErrorCode.INVALID_ARGUMENT, 400),
        "non_finite": ("moons", {"rows": [[0.0, float("nan")]]},
                       ApiErrorCode.INVALID_ARGUMENT, 400),
        "x_and_rows": ("moons", {"x": [0.0, 0.0], "rows": [[0.0, 0.0]]},
                       ApiErrorCode.INVALID_ARGUMENT, 400),
        "empty": ("moons", {}, ApiErrorCode.INVALID_ARGUMENT, 400),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_code_and_status_on_both_paths(self, live, case):
        gateway, server, _, token, _, spy = live
        app, body, code, http_status = self.CASES[case]
        status, _, payload = raw_infer(server, token, app, body)
        assert (status, payload["error"]["code"]) == (http_status, code.value)
        assert spy.threads["pool"] == []  # an error cannot block
        with pytest.raises(ApiError) as err:
            gateway.handle(InferRequest(
                auth_token=token,
                app=app,
                x=tuple(body.get("x", ())),
                rows=tuple(tuple(r) for r in body.get("rows", ())),
            ))
        assert (err.value.http_status, err.value.code) == (http_status, code)
        counted = gateway.metrics.get("gateway_requests_total")
        assert counted.labels("alice", "infer", code.value).value == 2

    def test_bad_token_is_unauthorized(self, live):
        gateway, server, _, _, inputs, spy = live
        status, _, payload = raw_infer(
            server, "tok-wrong", "moons", {"rows": [list(inputs[0])]}
        )
        assert (status, payload["error"]["code"]) == (401, "unauthorized")
        assert spy.threads["validate"] == []  # refused before the probe
        assert spy.threads["pool"] == []


class TestVersionRaces:
    def test_all_hit_answer_carries_the_peeked_version(self, live):
        gateway, _, _, token, inputs, _ = live
        app = gateway.server.get_app("moons")
        first = infer(gateway, token, inputs[:4])
        served = gateway._model_version(app)
        assert first.model_version == served
        request = InferRequest(
            auth_token=token, app="moons", rows=tuple(inputs[:4])
        )
        inline = gateway.handle(request, may_block=False)
        assert inline.predictions == first.predictions
        assert (inline.model, inline.model_version) == (
            app.best_candidate, served,
        )
        # A promotion empties the app's entries, so the next probe
        # cannot answer from the previous model: it defers.
        gateway._on_promotion(app)
        deferred = gateway.handle(request, may_block=False)
        assert callable(deferred)
        assert deferred().predictions == first.predictions


class TestTheLoopNeverBlocks:
    SLEEP = 0.2

    def test_reads_and_full_hits_pass_a_sleeping_predict(
        self, live, monkeypatch
    ):
        gateway, server, client, token, inputs, spy = live
        # App B, warm; app A's model sleeps inside its predict, under
        # the gateway lock, like a slow estimator would.
        _, inputs_b = onboard(gateway, tenant="bob", app="moons-b")
        bob = EaseMLClient(
            server.url, gateway.tenant_token("bob"), timeout=30.0
        )
        warm = bob.infer_batch("moons-b", inputs_b[:8])
        app_a = gateway.server.get_app("moons")
        real = app_a.infer_rows
        entered = threading.Event()

        def slow(X):
            entered.set()
            time.sleep(self.SLEEP)
            return real(X)

        monkeypatch.setattr(app_a, "infer_rows", slow)
        outcome = {}

        def miss():
            started = time.monotonic()
            outcome["answer"] = client.infer_batch("moons", inputs[:2])
            outcome["seconds"] = time.monotonic() - started

        in_flight = threading.Thread(target=miss)
        in_flight.start()
        try:
            assert entered.wait(10.0)
            started = time.monotonic()
            status = bob.app_status("moons-b")
            hit = bob.infer_batch("moons-b", inputs_b[:8])
            elapsed = time.monotonic() - started
        finally:
            in_flight.join(30.0)
            bob.close()
        assert status.app == "moons-b"
        assert hit.predictions == warm.predictions
        assert elapsed < self.SLEEP / 2, elapsed
        assert outcome["seconds"] >= self.SLEEP
        assert len(outcome["answer"].predictions) == 2

    def test_full_convoy_sheds_from_the_pool_not_the_loop(
        self, live, monkeypatch
    ):
        gateway, server, _, token, inputs, spy = live
        monkeypatch.setattr(batching, "MAX_PARKED", 0)
        submit = spy.on(batching.BatchQueue, "submit", "convoy")
        status, headers, payload = raw_infer(
            server, token, "moons", {"rows": [list(inputs[0])]}
        )
        assert status == 429
        assert "Retry-After" in headers
        assert payload["error"]["details"]["parked"] == 0
        (thread,) = submit
        assert thread.startswith("easeml-aio_")

    def test_wait_on_a_terminal_handle_is_answered_on_the_loop(self, live):
        gateway, server, client, token, _, spy = live
        job_id = gateway.handle(
            ListJobsRequest(auth_token=token)
        ).jobs[0].job_id
        polled = spy.on(gateway, "_poll_job", "poll")
        started = time.monotonic()
        status = client.job_status(job_id, wait=20)
        assert status.done
        assert time.monotonic() - started < 5.0
        assert polled == [LOOP_THREAD]
        assert spy.threads["pool"] == []
        assert spy.threads["wait_pool"] == []
