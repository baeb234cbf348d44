"""The acceptance scenario for the service API (ISSUE 2).

Starts the HTTP server, registers two tenant apps via the SDK, feeds
examples, submits training asynchronously, polls job handles to
completion, and gets correct infer answers — with every error path
returning a typed ApiError (no raw tracebacks across the wire).
"""

import pytest

from repro.ml.data import TaskSpec, make_task
from repro.ml.zoo import default_zoo
from repro.service import (
    ApiError,
    ApiErrorCode,
    EaseMLClient,
    ServiceGateway,
    serve_background,
)

MOONS = "{input: {[Tensor[2]], []}, output: {[Tensor[2]], []}}"
BLOBS = "{input: {[Tensor[2]], []}, output: {[Tensor[3]], []}}"


@pytest.fixture(scope="module")
def stack():
    """The full service stack behind the HTTP frontend."""
    gateway = ServiceGateway(
        placement="partition",
        n_gpus=4,
        zoo=default_zoo().subset(["naive-bayes", "ridge", "tree-d4"]),
        seed=0,
    )
    server, _ = serve_background(gateway)
    yield gateway, server
    server.shutdown()
    server.server_close()


def test_service_end_to_end(stack):
    gateway, server = stack
    alice = EaseMLClient(server.url, gateway.create_tenant("alice"))
    bob = EaseMLClient(server.url, gateway.create_tenant("bob"))

    # --- two tenants declare apps and feed labelled examples --------
    assert alice.register_app("moons", MOONS).n_candidates == 3
    assert bob.register_app("blobs", BLOBS).workload_kind == (
        "general classification"
    )
    Xa, ya = make_task(TaskSpec("moons", 80, 0.3, seed=0))
    Xb, yb = make_task(TaskSpec("blobs", 80, 0.3, seed=1))
    assert alice.feed(
        "moons", Xa.tolist(), [int(v) for v in ya]
    ).n_enabled == 80
    assert bob.feed(
        "blobs", Xb.tolist(), [int(v) for v in yb]
    ).n_enabled == 80

    # --- async training: handles come back immediately --------------
    handles_a = alice.submit_training("moons", steps=3)
    handles_b = bob.submit_training("blobs", steps=3)
    assert [h.state for h in handles_a + handles_b] == ["pending"] * 6

    # --- poll handles to completion; completions interleave ----------
    statuses = list(alice.wait_all(handles_a)) + list(
        bob.wait_all(handles_b)
    )
    assert all(s.state == "finished" for s in statuses)
    assert all(0.0 <= s.accuracy <= 1.0 for s in statuses)

    jobs = gateway.server._runtime_oracle.finished_jobs()
    assert len(jobs) == 6
    spans = sorted((j.start_time, j.end_time) for j in jobs)
    assert any(
        later < end for (_, end), (later, _) in zip(spans, spans[1:])
    ), "expected overlapping training jobs on the shared cluster"

    # --- correct inference through the best model so far -------------
    correct_a = sum(
        alice.infer("moons", x.tolist()).prediction == int(label)
        for x, label in zip(Xa[:20], ya[:20])
    )
    assert correct_a >= 14  # well above the 50% chance level
    correct_b = sum(
        bob.infer("blobs", x.tolist()).prediction == int(label)
        for x, label in zip(Xb[:20], yb[:20])
    )
    assert correct_b >= 12  # well above the 33% chance level

    # --- infer answers are stamped with the run that trained them ---
    stamped = alice.infer("moons", Xa[0].tolist())
    assert stamped.model_version is not None
    assert stamped.model_version in {h.job_id for h in handles_a}

    # --- dynamic membership: a tenant joins the live run -------------
    late = EaseMLClient(server.url, gateway.create_tenant("carol"))
    assert late.register_app("late", MOONS).n_candidates == 3
    Xl, yl = make_task(TaskSpec("moons", 60, 0.3, seed=2))
    late.feed("late", Xl.tolist(), [int(v) for v in yl])
    late_handles = late.submit_training("late", steps=2)
    late_statuses = late.wait_all(late_handles)
    assert all(s.state == "finished" for s in late_statuses)
    arrived = late.events(kinds=["user_arrived"]).events
    assert len(arrived) == 1  # the USER_ARRIVED of carol's admission

    # --- and departs mid-run, draining its in-flight work ------------
    closing = late.submit_training("late", steps=2)
    closed = late.close_app("late")
    assert closed.was_admitted
    final = late.wait_all(closing)
    assert all(s.state in ("finished", "failed") for s in final)
    departed = late.events(kinds=["user_departed"]).events
    assert len(departed) == 1
    with pytest.raises(ApiError) as excinfo:
        late.submit_training("late")
    assert excinfo.value.code is ApiErrorCode.FAILED_PRECONDITION
    # A closed app keeps serving infer from its best model.
    assert late.infer("late", Xl[0].tolist()).prediction in (0, 1)

    # --- every error path is a typed ApiError ------------------------
    cases = [
        (lambda: alice.app_status("ghost"), ApiErrorCode.NOT_FOUND),
        (lambda: bob.refine("moons"), ApiErrorCode.NOT_FOUND),
        (
            lambda: late.close_app("late"),
            ApiErrorCode.CONFLICT,
        ),
        (
            lambda: alice.feed("moons", [[1.0, 2.0, 3.0]], [0]),
            ApiErrorCode.INVALID_ARGUMENT,
        ),
        (
            lambda: alice.set_example_enabled("moons", 10_000, True),
            ApiErrorCode.NOT_FOUND,
        ),
        (
            lambda: EaseMLClient(server.url, "bogus").list_apps(),
            ApiErrorCode.UNAUTHORIZED,
        ),
        (lambda: alice.job_status("job-777777"), ApiErrorCode.NOT_FOUND),
    ]
    for trigger, expected_code in cases:
        with pytest.raises(ApiError) as excinfo:
            trigger()
        assert excinfo.value.code is expected_code
        assert "Traceback" not in excinfo.value.message

    # --- the event log records the story, scoped to each tenant ------
    finished_a = alice.events(kinds=["job_finished"]).events
    finished_b = bob.events(kinds=["job_finished"]).events
    assert len(finished_a) == 3  # alice sees only her own jobs
    assert len(finished_b) == 3
    assert all("reward" in e["payload"] for e in finished_a + finished_b)
