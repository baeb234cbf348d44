"""The span tracer: sampling, retention, eviction."""

import pytest

from repro.obs.context import (
    RequestContext,
    bind_request,
    clear_request,
)
from repro.obs.tracing import (
    _NULL_SPAN,
    NULL_TRACER,
    TraceState,
    Tracer,
    add_span,
    span,
)


@pytest.fixture(autouse=True)
def _clean_context():
    clear_request()
    yield
    clear_request()


def finish_kwargs(**overrides):
    kwargs = dict(
        route="/v1/jobs", status=200, tenant="acme", frontend="asyncio"
    )
    kwargs.update(overrides)
    return kwargs


class TestFastPath:
    def test_span_outside_any_request_is_the_null_singleton(self):
        assert span("anything") is _NULL_SPAN

    def test_sampled_out_request_allocates_no_span(self):
        tracer = Tracer(sample_rate=0.0)
        context = bind_request(RequestContext(request_id="req-1"))
        tracer.start(context)
        assert context.trace is None
        # Identity, not equality: the whole point is one shared object.
        assert span("gateway.handle") is _NULL_SPAN
        add_span("journal.append", 0.0, 1.0)  # must be a silent no-op
        tracer.finish(context, **finish_kwargs())
        assert len(tracer) == 0
        assert tracer.dropped_total == 1

    def test_null_tracer_covers_the_surface(self):
        context = bind_request(RequestContext(request_id="req-1"))
        context.trace = TraceState("req-1")
        NULL_TRACER.start(context)
        NULL_TRACER.finish(context)
        assert context.trace is None
        assert NULL_TRACER.snapshot() == []
        assert NULL_TRACER.get("req-1") == []
        assert len(NULL_TRACER) == 0


class TestSpans:
    def test_nesting_records_parent_links(self):
        context = bind_request(RequestContext(request_id="req-1"))
        context.trace = TraceState("req-1")
        with span("outer"):
            with span("inner", detail=7):
                pass
        spans = {s["name"]: s for s in context.trace.spans}
        assert spans["outer"]["parent"] == 0  # root
        assert spans["inner"]["parent"] == spans["outer"]["sid"]
        assert spans["inner"]["attrs"] == {"detail": 7}

    def test_exception_marks_trace_and_span(self):
        context = bind_request(RequestContext(request_id="req-1"))
        context.trace = TraceState("req-1")
        with pytest.raises(RuntimeError):
            with span("gateway.handle"):
                raise RuntimeError("boom")
        assert context.trace.error is True
        (entry,) = context.trace.spans
        assert entry["attrs"]["error"] == "RuntimeError"

    def test_add_span_parents_to_the_active_span(self):
        context = bind_request(RequestContext(request_id="req-1"))
        trace = TraceState("req-1", started=0.0)
        context.trace = trace
        with span("gateway.handle") as handle:
            add_span("journal.append", 10.0, 10.5, seq=3)
        appended = next(
            s for s in trace.spans if s["name"] == "journal.append"
        )
        assert appended["parent"] == handle._sid
        assert appended["start_ms"] == pytest.approx(10_000.0)
        assert appended["duration_ms"] == pytest.approx(500.0)


class TestRetention:
    def test_operator_routes_are_never_retained(self):
        tracer = Tracer()
        for route in ("/metrics", "/v1/metrics", "/v1/traces"):
            context = bind_request(RequestContext(request_id="req-x"))
            tracer.start(context)
            tracer.finish(context, **finish_kwargs(route=route))
        assert len(tracer) == 0

    def test_error_traces_always_kept(self):
        tracer = Tracer(retain_rate=0.0, slow_per_route=0)
        context = bind_request(RequestContext(request_id="req-1"))
        tracer.start(context)
        tracer.finish(context, **finish_kwargs(status=503))
        (entry,) = tracer.snapshot()
        assert entry["kept"] == "error"
        assert entry["error"] is True

    def test_slowest_per_route_are_kept(self):
        tracer = Tracer(retain_rate=0.0, slow_per_route=1, seed=0)
        for request_id in ("req-a", "req-b"):
            context = bind_request(RequestContext(request_id=request_id))
            tracer.start(context)
            tracer.finish(context, **finish_kwargs())
        # Both were "slow" when they finished (heap warms up), but the
        # root span and duration are real either way.
        for entry in tracer.snapshot():
            assert entry["spans"][0]["name"] == "request"
            assert entry["spans"][0]["sid"] == 0
            assert entry["duration_ms"] >= 0.0

    def test_eviction_prefers_sampled_over_slow_over_error(self):
        tracer = Tracer(capacity=3, retain_rate=0.0, slow_per_route=0)
        tracer._insert({"kept": "slow", "trace_id": "t-slow",
                        "tenant": "", "route": "/r", "duration_ms": 1.0})
        tracer._insert({"kept": "error", "trace_id": "t-err",
                        "tenant": "", "route": "/r", "duration_ms": 1.0})
        tracer._insert({"kept": "sampled", "trace_id": "t-samp",
                        "tenant": "", "route": "/r", "duration_ms": 1.0})
        tracer._insert({"kept": "error", "trace_id": "t-err2",
                        "tenant": "", "route": "/r", "duration_ms": 1.0})
        kept = {e["trace_id"] for e in tracer.snapshot(limit=10)}
        assert kept == {"t-slow", "t-err", "t-err2"}  # sampled went first
        tracer._insert({"kept": "error", "trace_id": "t-err3",
                        "tenant": "", "route": "/r", "duration_ms": 1.0})
        kept = {e["trace_id"] for e in tracer.snapshot(limit=10)}
        assert kept == {"t-err", "t-err2", "t-err3"}  # then the slow one

    def test_full_ring_of_errors_evicts_oldest_error(self):
        tracer = Tracer(capacity=2, retain_rate=0.0, slow_per_route=0)
        for name in ("t-1", "t-2", "t-3"):
            tracer._insert({"kept": "error", "trace_id": name,
                            "tenant": "", "route": "/r",
                            "duration_ms": 1.0})
        kept = {e["trace_id"] for e in tracer.snapshot(limit=10)}
        assert kept == {"t-2", "t-3"}

    def test_snapshot_filters_and_orders(self):
        tracer = Tracer(retain_rate=0.0, slow_per_route=0)
        rows = [
            ("t-1", "acme", "/v1/jobs", 5.0),
            ("t-2", "acme", "/v1/apps", 9.0),
            ("t-3", "bob", "/v1/jobs", 7.0),
        ]
        for trace_id, tenant, route, duration in rows:
            tracer._insert({"kept": "error", "trace_id": trace_id,
                            "tenant": tenant, "route": route,
                            "duration_ms": duration})
        assert [e["trace_id"] for e in tracer.snapshot()] == [
            "t-2", "t-3", "t-1"
        ]
        assert [e["trace_id"]
                for e in tracer.snapshot(tenant="acme")] == ["t-2", "t-1"]
        assert [e["trace_id"]
                for e in tracer.snapshot(route="/v1/jobs", min_ms=6.0)
                ] == ["t-3"]
        assert [e["trace_id"] for e in tracer.snapshot(limit=1)] == ["t-2"]
