"""The inference data plane end to end: vectorized predict,
cross-request coalescing, the prediction cache, and rate limits."""

import threading
import time

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
from repro.obs import MetricsRegistry
from repro.obs.context import RequestContext, bind_request, clear_request
from repro.obs.tracing import TraceState
from repro.service.api import (
    ApiError,
    ApiErrorCode,
    FeedRequest,
    InferRequest,
    JobStatusRequest,
    RegisterAppRequest,
    SubmitTrainingRequest,
)
from repro.service.gateway import TenantQuota


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
        """A promotion between the cache read and the flush must not
        mix old-model cached rows with new-model flush rows."""
        plane = InferPlane(
            config=InferPlaneConfig(mode="off", cache_rows=64),
            metrics=MetricsRegistry(),
        )
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        calls = []

        def execute_v1(X_flush):
            calls.append(len(X_flush))
            return (
                np.zeros(len(X_flush), dtype=np.int64),
                {"model": "m", "model_version": "v1"},
            )

        plane.predict("app", X, execute_v1, peek=lambda: ("m", "v1"))

        def execute_v2(X_flush):
            calls.append(len(X_flush))
            return (
                np.ones(len(X_flush), dtype=np.int64),
                {"model": "m", "model_version": "v2"},
            )

        # The peek still sees v1 (cache hits), but the flush lands on
        # v2: the plane must re-run the WHOLE batch against v2.
        X2 = np.array([[1.0, 2.0], [9.0, 9.0]])
        predictions, meta, _ = plane.predict(
            "app", X2, execute_v2, peek=lambda: ("m", "v1")
        )
        assert predictions.tolist() == [1, 1]
        assert meta["model_version"] == "v2"
        assert calls[-1] == 2  # full batch re-executed

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
