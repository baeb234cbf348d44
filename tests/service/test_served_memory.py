"""Served memory is O(state), not O(lifetime).

A long-running gateway keeps every fed row and one small record per
job handle, and nothing more per operation: the heap a feed / toggle /
train / wait cycle leaves behind is the row it fed plus a constant per
job.  The engine event log is a ring of the newest
``SERVED_EVENT_LOG_CAPACITY`` events, a finished job handle holds no
synchronisation object, and the example store keeps columns, not a
Python object per row.
"""

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from service_helpers import (
    BLOBS_PROGRAM,
    MOONS_PROGRAM,
    make_gateway,
    task_payload,
)

from repro.engine.events import EventKind
from repro.persist import open_gateway
from repro.platform.server import SERVED_EVENT_LOG_CAPACITY
from repro.service.api import (
    EventsRequest,
    FeedRequest,
    JobStatusRequest,
    RegisterAppRequest,
    SetExampleEnabledRequest,
    SubmitTrainingRequest,
)

ROWS_PER_FEED = 5
#: Bytes one job may leave behind: its handle record, runtime job,
#: history row, step record and GP observation (about 1.3 KB under
#: Python 3.11).  Before the store became columnar, the handles lost
#: their events and the log became a ring, a cycle left about 6.9 KB
#: per job behind.
PER_JOB_BYTES = 2048
CYCLES = 100


def _store_bytes(gateway) -> int:
    """Bytes the example stores have allocated for rows (capacity)."""
    return sum(
        app.store._X.nbytes + app.store._Y.nbytes + app.store._enabled.nbytes
        for app in gateway.server.apps
    )


def test_mutate_cycles_grow_the_heap_by_rows_fed_plus_a_constant_per_job(
    tmp_path,
):
    gateway, _ = open_gateway(
        tmp_path / "state", placement="partition", n_gpus=4, seed=3
    )
    rng = np.random.default_rng(3)
    tokens = []
    for name in ("t0", "t1"):
        token = gateway.create_tenant(name)
        gateway.handle(
            RegisterAppRequest(
                auth_token=token, app=name, program=MOONS_PROGRAM
            )
        )
        rows = rng.standard_normal((60, 2))
        gateway.handle(FeedRequest(
            auth_token=token, app=name,
            inputs=tuple(map(tuple, rows.tolist())),
            outputs=tuple((rows[:, 0] > 0).astype(int).tolist()),
        ))
        tokens.append((name, token))

    def cycle(k: int) -> None:
        """One client's http_mutate cycle, alternating tenants."""
        app, token = tokens[k % 2]
        rows = rng.standard_normal((ROWS_PER_FEED, 2))
        labels = (rows[:, 0] > 0).astype(int)
        fed = gateway.handle(FeedRequest(
            auth_token=token, app=app,
            inputs=tuple(map(tuple, rows.tolist())),
            outputs=tuple(labels.tolist()),
        ))
        gateway.handle(SetExampleEnabledRequest(
            auth_token=token, app=app,
            example_id=fed.example_ids[0], enabled=False,
        ))
        handle = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app=app)
        ).handles[0]
        status = gateway.handle(
            JobStatusRequest(auth_token=token, job_id=handle.job_id, wait=30)
        )
        assert status.state == "finished"

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        # Warm up under the tracer until the event log's ring is full,
        # so the window sees events dropped as well as made.
        k = 0
        while len(gateway.server.log) < SERVED_EVENT_LOG_CAPACITY:
            cycle(k)
            k += 1
            assert k < 1000, "the served event log never filled"
        gc.collect()
        before, store_before = tracemalloc.take_snapshot(), _store_bytes(gateway)
        for j in range(k, k + CYCLES):
            cycle(j)
        gc.collect()
        after, store_after = tracemalloc.take_snapshot(), _store_bytes(gateway)
    finally:
        if started:
            tracemalloc.stop()
        gateway.store.close()

    stats = after.compare_to(before, "lineno")
    grown = sum(stat.size_diff for stat in stats)
    # The rows fed, rounded up by the store's capacity doubling.
    rows_fed = store_after - store_before
    allowed = rows_fed + PER_JOB_BYTES * CYCLES
    top = "\n".join(str(stat) for stat in stats[:8])
    assert grown <= allowed, (
        f"{CYCLES} cycles grew the heap {grown} B; allowed {allowed} B "
        f"({rows_fed} B of store rows + {PER_JOB_BYTES} B per job). "
        f"Largest sites:\n{top}"
    )


# ----------------------------------------------------------------------
# /v1/events answers from the ring
# ----------------------------------------------------------------------
#: A ring small enough to wrap within a few jobs.
RING = 20


@pytest.fixture
def wrapped(monkeypatch):
    """A gateway whose event ring has wrapped: alice's and bob's apps
    trained three jobs each, and the oldest events are gone."""
    monkeypatch.setattr(
        "repro.platform.server.SERVED_EVENT_LOG_CAPACITY", RING
    )
    gateway = make_gateway()
    tokens = {}
    for tenant, app, program, kind in (
        ("alice", "moons", MOONS_PROGRAM, "moons"),
        ("bob", "blobs", BLOBS_PROGRAM, "blobs"),
    ):
        token = tokens[tenant] = gateway.create_tenant(tenant)
        gateway.handle(
            RegisterAppRequest(auth_token=token, app=app, program=program)
        )
        inputs, outputs = task_payload(kind)
        gateway.handle(FeedRequest(
            auth_token=token, app=app, inputs=inputs, outputs=outputs
        ))
    for _ in range(3):
        for tenant, app in (("alice", "moons"), ("bob", "blobs")):
            token = tokens[tenant]
            handle = gateway.handle(
                SubmitTrainingRequest(auth_token=token, app=app)
            ).handles[0]
            gateway.handle(
                JobStatusRequest(auth_token=token, job_id=handle.job_id,
                                 wait=30)
            )
    log = gateway.server.log
    # The first feed event is gone: the ring has wrapped.
    assert len(log) == RING
    assert not log.filter(EventKind.FEED)
    return gateway, tokens


def _owned(gateway, event, app):
    payload = event.payload
    if "app" in payload:
        return payload["app"] == app
    user = [a.name for a in gateway.server.apps].index(app)
    return payload.get("user") == user


class TestEventsUnderTheRing:
    def test_each_tenant_sees_only_its_retained_events(self, wrapped):
        gateway, tokens = wrapped
        for tenant, app in (("alice", "moons"), ("bob", "blobs")):
            got = gateway.handle(
                EventsRequest(auth_token=tokens[tenant])
            ).events
            expected = [
                e for e in gateway.server.log if _owned(gateway, e, app)
            ]
            assert got and len(got) == len(expected)
            assert [(e["time"], e["kind"]) for e in got] == [
                (e.time, e.kind.value) for e in expected
            ]

    def test_kinds_filter_applies_to_the_ring(self, wrapped):
        gateway, tokens = wrapped
        got = gateway.handle(EventsRequest(
            auth_token=tokens["alice"], kinds=("job_finished",)
        )).events
        retained = [
            e for e in gateway.server.log.filter(EventKind.JOB_FINISHED)
            if _owned(gateway, e, "moons")
        ]
        assert got and len(got) == len(retained) <= 3
        assert all(e["kind"] == "job_finished" for e in got)
        # A kind whose every event has left the ring answers nothing.
        assert not gateway.handle(EventsRequest(
            auth_token=tokens["alice"], kinds=("feed",)
        )).events

    def test_since_after_the_ring_wrapped(self, wrapped):
        gateway, tokens = wrapped
        log = list(gateway.server.log)
        oldest, middle = log[0].time, log[len(log) // 2].time
        everything = gateway.handle(
            EventsRequest(auth_token=tokens["bob"], since=0.0)
        ).events
        # Asking from time 0 gets what is retained, nothing older.
        assert everything and min(e["time"] for e in everything) >= oldest
        later = gateway.handle(
            EventsRequest(auth_token=tokens["bob"], since=middle)
        ).events
        assert list(later) == [e for e in everything if e["time"] >= middle]
        assert len(later) < len(everything)

    def test_http_route_answers_from_the_ring(self, wrapped):
        from repro.service import EaseMLClient
        from repro.service.http import serve_background

        gateway, tokens = wrapped
        server, thread = serve_background(gateway)
        try:
            client = EaseMLClient(server.url, tokens["alice"])
            try:
                over_http = client.events(kinds=["job_finished"]).events
            finally:
                client.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        in_process = gateway.handle(EventsRequest(
            auth_token=tokens["alice"], kinds=("job_finished",)
        )).events
        assert over_http and list(over_http) == list(in_process)

    def test_reads_while_another_thread_writes(self, wrapped):
        """A read runs without the gateway lock while feeds append to
        the ring; it must answer from a consistent copy, not fail."""
        gateway, tokens = wrapped
        inputs, outputs = task_payload("moons")
        done = threading.Event()
        errors = []

        def write() -> None:
            try:
                while not done.is_set():
                    gateway.handle(FeedRequest(
                        auth_token=tokens["alice"], app="moons",
                        inputs=inputs[:2], outputs=outputs[:2],
                    ))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writer = threading.Thread(target=write)
        writer.start()
        try:
            for _ in range(300):
                events = gateway.handle(
                    EventsRequest(auth_token=tokens["alice"])
                ).events
                assert len(events) <= RING
        finally:
            done.set()
            writer.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not errors
