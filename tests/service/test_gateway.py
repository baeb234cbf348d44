"""Gateway semantics: auth, tenancy, quotas, async handles, replay."""

import pytest

from service_helpers import (
    BLOBS_PROGRAM,
    MOONS_PROGRAM,
    make_gateway,
    task_payload,
)
from repro.runtime.trace import diff_event_logs
from repro.service.api import (
    ApiError,
    ApiErrorCode,
    AppStatusRequest,
    EventsRequest,
    FeedRequest,
    InferRequest,
    JobStatusRequest,
    ListAppsRequest,
    ListJobsRequest,
    RefineRequest,
    RegisterAppRequest,
    ServerInfoRequest,
    SetExampleEnabledRequest,
    SubmitTrainingRequest,
)
from repro.service.gateway import ServiceGateway, TenantQuota


def register_and_feed(gateway, token, app, program, kind, seed=0):
    gateway.handle(
        RegisterAppRequest(auth_token=token, app=app, program=program)
    )
    inputs, outputs = task_payload(kind, seed=seed)
    gateway.handle(
        FeedRequest(auth_token=token, app=app, inputs=inputs,
                    outputs=outputs)
    )
    return inputs


def code_of(excinfo):
    return excinfo.value.code


class TestAuthAndVersioning:
    def test_unknown_token_unauthorized(self, gateway):
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(ListAppsRequest(auth_token="nope"))
        assert code_of(excinfo) is ApiErrorCode.UNAUTHORIZED

    def test_wrong_api_version_rejected(self, gateway):
        token = gateway.create_tenant("alice")
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                ListAppsRequest(auth_token=token, api_version="v0")
            )
        assert code_of(excinfo) is ApiErrorCode.UNSUPPORTED_VERSION

    def test_duplicate_tenant_rejected(self, gateway):
        gateway.create_tenant("alice")
        with pytest.raises(ValueError, match="already"):
            gateway.create_tenant("alice")

    def test_non_request_rejected(self, gateway):
        with pytest.raises(ApiError) as excinfo:
            gateway.handle("register me")
        assert code_of(excinfo) is ApiErrorCode.INVALID_ARGUMENT

    def test_wraps_default_server(self):
        from repro.platform.server import EaseMLServer

        gateway = ServiceGateway(EaseMLServer())
        assert gateway.server.runtime_placement == "single"


class TestAppLifecycle:
    def test_register_reports_candidates(self, gateway):
        token = gateway.create_tenant("alice")
        response = gateway.handle(
            RegisterAppRequest(
                auth_token=token, app="moons", program=MOONS_PROGRAM
            )
        )
        assert response.app == "moons"
        assert response.n_candidates == 3
        assert response.workload_kind == "general classification"

    def test_duplicate_app_conflict(self, gateway):
        token = gateway.create_tenant("alice")
        request = RegisterAppRequest(
            auth_token=token, app="moons", program=MOONS_PROGRAM
        )
        gateway.handle(request)
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(request)
        assert code_of(excinfo) is ApiErrorCode.CONFLICT

    def test_app_name_collision_across_tenants_is_conflict(self, gateway):
        token_a = gateway.create_tenant("alice")
        token_b = gateway.create_tenant("bob")
        gateway.handle(
            RegisterAppRequest(
                auth_token=token_a, app="moons", program=MOONS_PROGRAM
            )
        )
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                RegisterAppRequest(
                    auth_token=token_b, app="moons", program=MOONS_PROGRAM
                )
            )
        assert code_of(excinfo) is ApiErrorCode.CONFLICT

    def test_bad_program_invalid(self, gateway):
        token = gateway.create_tenant("alice")
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                RegisterAppRequest(
                    auth_token=token, app="x", program="{wat}"
                )
            )
        assert code_of(excinfo) is ApiErrorCode.INVALID_PROGRAM

    def test_untrainable_workload_unsupported(self, gateway):
        token = gateway.create_tenant("alice")
        autoencoder = (
            "{input: {[Tensor[4,4]], []}, output: {[Tensor[2,2]], []}}"
        )
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                RegisterAppRequest(
                    auth_token=token, app="ae", program=autoencoder
                )
            )
        assert code_of(excinfo) is ApiErrorCode.UNSUPPORTED

    def test_cross_tenant_access_is_not_found(self, gateway):
        token_a = gateway.create_tenant("alice")
        token_b = gateway.create_tenant("bob")
        register_and_feed(gateway, token_a, "moons", MOONS_PROGRAM, "moons")
        for request in (
            AppStatusRequest(auth_token=token_b, app="moons"),
            RefineRequest(auth_token=token_b, app="moons"),
            SubmitTrainingRequest(auth_token=token_b, app="moons"),
        ):
            with pytest.raises(ApiError) as excinfo:
                gateway.handle(request)
            assert code_of(excinfo) is ApiErrorCode.NOT_FOUND

    def test_unknown_example_toggle_not_found(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                SetExampleEnabledRequest(
                    auth_token=token, app="moons", example_id=9999,
                    enabled=False,
                )
            )
        assert code_of(excinfo) is ApiErrorCode.NOT_FOUND
        assert "refine" in excinfo.value.message

    def test_refine_and_toggle(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        view = gateway.handle(
            RefineRequest(auth_token=token, app="moons")
        )
        assert view.examples[0] == (0, True)
        gateway.handle(
            SetExampleEnabledRequest(
                auth_token=token, app="moons", example_id=0, enabled=False
            )
        )
        view = gateway.handle(RefineRequest(auth_token=token, app="moons"))
        assert view.examples[0] == (0, False)


class TestQuotas:
    def test_max_apps(self, gateway, tight_quota):
        token = gateway.create_tenant("alice", tight_quota)
        gateway.handle(
            RegisterAppRequest(
                auth_token=token, app="one", program=MOONS_PROGRAM
            )
        )
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                RegisterAppRequest(
                    auth_token=token, app="two", program=MOONS_PROGRAM
                )
            )
        assert code_of(excinfo) is ApiErrorCode.QUOTA_EXCEEDED
        assert excinfo.value.details["limit"] == 1

    def test_store_bytes(self, gateway, tight_quota):
        # 2 KiB quota; each moons example is (2+2)*8 = 32 bytes.
        token = gateway.create_tenant("alice", tight_quota)
        gateway.handle(
            RegisterAppRequest(
                auth_token=token, app="moons", program=MOONS_PROGRAM
            )
        )
        inputs, outputs = task_payload("moons", n=64)
        gateway.handle(
            FeedRequest(auth_token=token, app="moons",
                        inputs=inputs, outputs=outputs)
        )
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                FeedRequest(auth_token=token, app="moons",
                            inputs=inputs, outputs=outputs)
            )
        assert code_of(excinfo) is ApiErrorCode.QUOTA_EXCEEDED
        assert excinfo.value.details["limit"] == 2048

    def test_pending_jobs(self, gateway, tight_quota):
        token = gateway.create_tenant("alice", tight_quota)
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=2)
        )
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                SubmitTrainingRequest(auth_token=token, app="moons")
            )
        assert code_of(excinfo) is ApiErrorCode.QUOTA_EXCEEDED
        assert "poll" in excinfo.value.message

    def test_quota_frees_after_completion(self, gateway, tight_quota):
        token = gateway.create_tenant("alice", tight_quota)
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        response = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=2)
        )
        for handle in response.handles:
            status = gateway.handle(
                JobStatusRequest(auth_token=token, job_id=handle.job_id)
            )
            while not status.done:
                status = gateway.handle(
                    JobStatusRequest(auth_token=token, job_id=handle.job_id)
                )
        # In-flight count is back to zero: submitting works again.
        again = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=2)
        )
        assert len(again.handles) == 2
        # The count comes from a per-tenant list pruned on read, not a
        # scan of every job ever submitted: the finished pair is gone.
        tenant = gateway._tenant_names["alice"]
        assert [r.handle_id for r in tenant.live_jobs] == [
            h.job_id for h in again.handles
        ]
        assert len(gateway._jobs) == 4

    def test_invalid_quota_rejected(self):
        with pytest.raises(ValueError, match="max_apps"):
            TenantQuota(max_apps=0)


class TestAsyncTraining:
    def test_submit_before_feeding_fails_precondition(self, gateway):
        token = gateway.create_tenant("alice")
        gateway.handle(
            RegisterAppRequest(
                auth_token=token, app="moons", program=MOONS_PROGRAM
            )
        )
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                SubmitTrainingRequest(auth_token=token, app="moons")
            )
        assert code_of(excinfo) is ApiErrorCode.FAILED_PRECONDITION

    def test_zero_steps_invalid(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                SubmitTrainingRequest(
                    auth_token=token, app="moons", steps=0
                )
            )
        assert code_of(excinfo) is ApiErrorCode.INVALID_ARGUMENT

    def test_handles_returned_pending(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        response = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=3)
        )
        assert len(response.handles) == 3
        assert all(h.state == "pending" for h in response.handles)
        assert len({h.job_id for h in response.handles}) == 3

    def test_unknown_job_not_found(self, gateway):
        token = gateway.create_tenant("alice")
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                JobStatusRequest(auth_token=token, job_id="job-99999")
            )
        assert code_of(excinfo) is ApiErrorCode.NOT_FOUND

    def test_foreign_job_not_found(self, gateway):
        token_a = gateway.create_tenant("alice")
        token_b = gateway.create_tenant("bob")
        register_and_feed(gateway, token_a, "moons", MOONS_PROGRAM, "moons")
        register_and_feed(
            gateway, token_b, "blobs", BLOBS_PROGRAM, "blobs", seed=1
        )
        handle = gateway.handle(
            SubmitTrainingRequest(auth_token=token_a, app="moons")
        ).handles[0]
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                JobStatusRequest(auth_token=token_b, job_id=handle.job_id)
            )
        assert code_of(excinfo) is ApiErrorCode.NOT_FOUND

    def test_two_tenants_complete_out_of_order(self, gateway):
        """Jobs from two tenants interleave on the shared cluster."""
        token_a = gateway.create_tenant("alice")
        token_b = gateway.create_tenant("bob")
        inputs_a = register_and_feed(
            gateway, token_a, "moons", MOONS_PROGRAM, "moons"
        )
        register_and_feed(
            gateway, token_b, "blobs", BLOBS_PROGRAM, "blobs", seed=1
        )
        handles_a = gateway.handle(
            SubmitTrainingRequest(auth_token=token_a, app="moons", steps=3)
        ).handles
        handles_b = gateway.handle(
            SubmitTrainingRequest(auth_token=token_b, app="blobs", steps=3)
        ).handles

        # Poll everything to completion, round-robin across tenants.
        pending = [(token_a, h) for h in handles_a] + [
            (token_b, h) for h in handles_b
        ]
        for _ in range(200):
            still = []
            for token, handle in pending:
                status = gateway.handle(
                    JobStatusRequest(auth_token=token, job_id=handle.job_id)
                )
                if not status.done:
                    still.append((token, handle))
            pending = still
            if not pending:
                break
        assert not pending

        # The runtime genuinely overlapped the two tenants' jobs.
        jobs = gateway.server._runtime_oracle.finished_jobs()
        assert len(jobs) == 6
        spans = sorted((j.start_time, j.end_time, j.user) for j in jobs)
        users_by_start = [u for (_, _, u) in spans]
        assert set(users_by_start) == {0, 1}
        assert any(
            later_start < earlier_end
            for (_, earlier_end, _), (later_start, _, _) in zip(
                spans, spans[1:]
            )
        )

        # Completions were absorbed into the scheduler in completion
        # order, exactly once each.
        scheduler = gateway.server.scheduler
        assert scheduler.step_count == 6
        assert len(scheduler.records) == 6

        # And inference now works for both tenants.
        answer = gateway.handle(
            InferRequest(auth_token=token_a, app="moons", x=inputs_a[0])
        )
        assert answer.prediction in (0, 1)

    def test_list_jobs_scoped_to_tenant_and_app(self, gateway):
        token_a = gateway.create_tenant("alice")
        token_b = gateway.create_tenant("bob")
        register_and_feed(gateway, token_a, "moons", MOONS_PROGRAM, "moons")
        register_and_feed(
            gateway, token_b, "blobs", BLOBS_PROGRAM, "blobs", seed=1
        )
        gateway.handle(
            SubmitTrainingRequest(auth_token=token_a, app="moons", steps=2)
        )
        gateway.handle(
            SubmitTrainingRequest(auth_token=token_b, app="blobs", steps=1)
        )
        mine = gateway.handle(ListJobsRequest(auth_token=token_a))
        assert len(mine.jobs) == 2
        assert all(h.app == "moons" for h in mine.jobs)
        theirs = gateway.handle(ListJobsRequest(auth_token=token_b))
        assert len(theirs.jobs) == 1

    def test_app_state_updates_only_at_completion(self, gateway):
        """Pending jobs are invisible in app status and infer."""
        token = gateway.create_tenant("alice")
        inputs = register_and_feed(
            gateway, token, "moons", MOONS_PROGRAM, "moons"
        )
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=2)
        ).handles
        # Nothing polled yet: the jobs are in flight, so the app has
        # no training runs and no servable model.
        status = gateway.handle(
            AppStatusRequest(auth_token=token, app="moons")
        )
        assert status.training_runs == 0
        assert status.best_candidate is None
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                InferRequest(auth_token=token, app="moons", x=inputs[0])
            )
        assert code_of(excinfo) is ApiErrorCode.FAILED_PRECONDITION
        # Poll to completion: the outcomes land.
        for handle in handles:
            status = gateway.handle(
                JobStatusRequest(auth_token=token, job_id=handle.job_id)
            )
            while not status.done:
                status = gateway.handle(
                    JobStatusRequest(auth_token=token, job_id=handle.job_id)
                )
        status = gateway.handle(
            AppStatusRequest(auth_token=token, app="moons")
        )
        assert status.training_runs == 2
        assert status.best_candidate is not None

    def test_unfed_app_never_blocks_another_tenant(self, gateway):
        # Dynamic membership: bob's unfed app is simply not admitted;
        # alice's submit proceeds (the old fixed-tenant-set gateway
        # returned FAILED_PRECONDITION here).
        token_a = gateway.create_tenant("alice")
        token_b = gateway.create_tenant("bob")
        register_and_feed(gateway, token_a, "moons", MOONS_PROGRAM, "moons")
        gateway.handle(
            RegisterAppRequest(
                auth_token=token_b, app="secret-project",
                program=BLOBS_PROGRAM,
            )
        )  # bob never feeds it
        response = gateway.handle(
            SubmitTrainingRequest(auth_token=token_a, app="moons")
        )
        assert len(response.handles) == 1
        # Bob's own submit is still rejected, naming his app.
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                SubmitTrainingRequest(
                    auth_token=token_b, app="secret-project"
                )
            )
        assert code_of(excinfo) is ApiErrorCode.FAILED_PRECONDITION
        assert "secret-project" in excinfo.value.message

    def test_job_status_reports_accuracy_and_candidate(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        handle = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons")
        ).handles[0]
        status = gateway.handle(
            JobStatusRequest(auth_token=token, job_id=handle.job_id)
        )
        while not status.done:
            status = gateway.handle(
                JobStatusRequest(auth_token=token, job_id=handle.job_id)
            )
        assert status.state == "finished"
        assert 0.0 <= status.accuracy <= 1.0
        assert status.candidate == handle.candidate
        assert status.improved is True
        assert status.finished_at >= status.started_at >= 0.0


class TestPreStartedServer:
    def test_gateway_absorbs_completions_of_prestarted_server(self):
        """Wrapping an already-running server still wires absorption."""
        from repro.ml.zoo import default_zoo
        from repro.platform.dsl import program_from_shapes
        from repro.platform.server import EaseMLServer

        server = EaseMLServer(
            default_zoo().subset(["naive-bayes", "ridge"]),
            runtime_placement="partition",
            n_gpus=2,
            seed=0,
        )
        app = server.register_app(program_from_shapes([2], [2]), "moons")
        inputs, outputs = task_payload("moons")
        app.feed(
            [list(x) for x in inputs], [int(v) for v in outputs]
        )
        server.run(max_steps=1)  # scheduler exists before the gateway
        gateway = ServiceGateway(server)
        token = gateway.create_tenant("alice", apps=["moons"])
        steps_before = server.scheduler.step_count

        handle = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons")
        ).handles[0]
        status = gateway.handle(
            JobStatusRequest(auth_token=token, job_id=handle.job_id)
        )
        while not status.done:
            status = gateway.handle(
                JobStatusRequest(auth_token=token, job_id=handle.job_id)
            )
        # The completion was absorbed (observation + StepRecord) and
        # the handle reports its outcome.
        assert status.accuracy is not None
        assert server.scheduler.step_count == steps_before + 1

    def test_adopted_apps_count_store_bytes(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        with pytest.raises(ValueError, match="belongs to"):
            gateway.create_tenant("thief", apps=["moons"])


class TestIntrospection:
    def test_server_info(self, gateway):
        token = gateway.create_tenant("alice")
        info = gateway.handle(ServerInfoRequest(auth_token=token))
        assert info.placement == "partition"
        assert info.n_gpus == 4
        assert info.training_started is False

    def test_events_filtered_by_kind(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        events = gateway.handle(
            EventsRequest(auth_token=token, kinds=("feed",))
        )
        assert events.events
        assert all(e["kind"] == "feed" for e in events.events)

    def test_events_do_not_leak_across_tenants(self, gateway):
        token_a = gateway.create_tenant("alice")
        token_b = gateway.create_tenant("bob")
        register_and_feed(gateway, token_a, "moons", MOONS_PROGRAM, "moons")
        register_and_feed(
            gateway, token_b, "blobs", BLOBS_PROGRAM, "blobs", seed=1
        )
        handle = gateway.handle(
            SubmitTrainingRequest(auth_token=token_a, app="moons")
        ).handles[0]
        status = gateway.handle(
            JobStatusRequest(auth_token=token_a, job_id=handle.job_id)
        )
        while not status.done:
            status = gateway.handle(
                JobStatusRequest(auth_token=token_a, job_id=handle.job_id)
            )
        # Bob sees none of alice's feed / job / model events.
        theirs = gateway.handle(EventsRequest(auth_token=token_b))
        assert all(
            e["payload"].get("app") != "moons" for e in theirs.events
        )
        assert not [
            e for e in theirs.events
            if e["kind"] in ("job_submitted", "job_finished",
                             "model_returned")
        ]
        # Alice still sees her own story.
        mine = gateway.handle(
            EventsRequest(auth_token=token_a, kinds=("job_finished",))
        )
        assert len(mine.events) == 1

    def test_events_unknown_kind_invalid(self, gateway):
        token = gateway.create_tenant("alice")
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                EventsRequest(auth_token=token, kinds=("explosions",))
            )
        assert code_of(excinfo) is ApiErrorCode.INVALID_ARGUMENT

    def test_infer_without_model_fails_precondition(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                InferRequest(auth_token=token, app="moons", x=(0.0, 0.0))
            )
        assert code_of(excinfo) is ApiErrorCode.FAILED_PRECONDITION

    def test_infer_wrong_shape_invalid(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                InferRequest(auth_token=token, app="moons", x=(1.0,))
            )
        assert code_of(excinfo) is ApiErrorCode.INVALID_ARGUMENT


class TestDeterministicReplay:
    def _session(self):
        """One full scripted service session; returns the event log."""
        gateway = make_gateway()
        token_a = gateway.create_tenant("alice")
        token_b = gateway.create_tenant("bob")
        register_and_feed(gateway, token_a, "moons", MOONS_PROGRAM, "moons")
        register_and_feed(
            gateway, token_b, "blobs", BLOBS_PROGRAM, "blobs", seed=1
        )
        handles = (
            gateway.handle(
                SubmitTrainingRequest(
                    auth_token=token_a, app="moons", steps=2
                )
            ).handles
            + gateway.handle(
                SubmitTrainingRequest(
                    auth_token=token_b, app="blobs", steps=2
                )
            ).handles
        )
        tokens = {"moons": token_a, "blobs": token_b}
        for handle in handles:
            token = tokens[handle.app]
            status = gateway.handle(
                JobStatusRequest(auth_token=token, job_id=handle.job_id)
            )
            while not status.done:
                status = gateway.handle(
                    JobStatusRequest(auth_token=token, job_id=handle.job_id)
                )
        return gateway.server.log

    def test_identical_sessions_produce_identical_event_logs(self):
        divergence = diff_event_logs(self._session(), self._session())
        assert divergence is None, divergence.describe()


def drain(gateway, token, handles):
    """Poll every handle to a terminal state; returns final statuses."""
    statuses = []
    for handle in handles:
        status = gateway.handle(
            JobStatusRequest(auth_token=token, job_id=handle.job_id)
        )
        while not status.done:
            status = gateway.handle(
                JobStatusRequest(auth_token=token, job_id=handle.job_id)
            )
        statuses.append(status)
    return statuses


class TestDynamicTenants:
    """ISSUE 3: register-after-submit joins the live run; close leaves."""

    def test_register_after_submit_is_admitted(self, gateway):
        token_a = gateway.create_tenant("alice")
        register_and_feed(gateway, token_a, "moons", MOONS_PROGRAM, "moons")
        first = gateway.handle(
            SubmitTrainingRequest(auth_token=token_a, app="moons", steps=2)
        )
        drain(gateway, token_a, first.handles)
        # The cluster run is live; a new app registers, feeds, trains.
        token_b = gateway.create_tenant("bob")
        register_and_feed(
            gateway, token_b, "blobs", BLOBS_PROGRAM, "blobs", seed=1
        )
        late = gateway.handle(
            SubmitTrainingRequest(auth_token=token_b, app="blobs", steps=2)
        )
        statuses = drain(gateway, token_b, late.handles)
        assert all(s.state == "finished" for s in statuses)
        # Admission surfaced as USER_ARRIVED in bob's event slice.
        events = gateway.handle(
            EventsRequest(auth_token=token_b, kinds=("user_arrived",))
        )
        assert len(events.events) == 1

    def test_close_app_retires_tenant(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=2)
        ).handles
        from repro.service.api import CloseAppRequest

        response = gateway.handle(
            CloseAppRequest(auth_token=token, app="moons")
        )
        assert response.was_admitted
        # In-flight work resolves: drained or cancelled, never stuck.
        statuses = drain(gateway, token, handles)
        assert all(s.state in ("finished", "failed") for s in statuses)
        cancelled = {s.job_id for s in statuses if s.state == "failed"}
        assert set(response.cancelled_jobs) == cancelled
        departed = gateway.handle(
            EventsRequest(auth_token=token, kinds=("user_departed",))
        )
        assert len(departed.events) == 1

    def test_submit_after_close_fails_precondition(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        from repro.service.api import CloseAppRequest

        gateway.handle(CloseAppRequest(auth_token=token, app="moons"))
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                SubmitTrainingRequest(auth_token=token, app="moons")
            )
        assert code_of(excinfo) is ApiErrorCode.FAILED_PRECONDITION
        assert "closed" in excinfo.value.message

    def test_double_close_conflicts(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        from repro.service.api import CloseAppRequest

        gateway.handle(CloseAppRequest(auth_token=token, app="moons"))
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(CloseAppRequest(auth_token=token, app="moons"))
        assert code_of(excinfo) is ApiErrorCode.CONFLICT

    def test_close_before_any_training(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        from repro.service.api import CloseAppRequest

        response = gateway.handle(
            CloseAppRequest(auth_token=token, app="moons")
        )
        assert not response.was_admitted
        assert response.cancelled_jobs == ()

    def test_closed_app_still_serves_infer(self, gateway):
        token = gateway.create_tenant("alice")
        inputs = register_and_feed(
            gateway, token, "moons", MOONS_PROGRAM, "moons"
        )
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=2)
        ).handles
        drain(gateway, token, handles)
        from repro.service.api import CloseAppRequest

        gateway.handle(CloseAppRequest(auth_token=token, app="moons"))
        response = gateway.handle(
            InferRequest(auth_token=token, app="moons", x=inputs[0])
        )
        assert response.prediction in (0, 1)

    def test_cross_tenant_close_not_found(self, gateway):
        token_a = gateway.create_tenant("alice")
        token_b = gateway.create_tenant("bob")
        register_and_feed(gateway, token_a, "moons", MOONS_PROGRAM, "moons")
        from repro.service.api import CloseAppRequest

        with pytest.raises(ApiError) as excinfo:
            gateway.handle(CloseAppRequest(auth_token=token_b, app="moons"))
        assert code_of(excinfo) is ApiErrorCode.NOT_FOUND


class TestModelVersion:
    def test_infer_names_the_training_run(self, gateway):
        token = gateway.create_tenant("alice")
        inputs = register_and_feed(
            gateway, token, "moons", MOONS_PROGRAM, "moons"
        )
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=3)
        ).handles
        drain(gateway, token, handles)
        response = gateway.handle(
            InferRequest(auth_token=token, app="moons", x=inputs[0])
        )
        assert response.model_version in {h.job_id for h in handles}
        # The named run is the one whose candidate is being served.
        status = gateway.handle(
            JobStatusRequest(
                auth_token=token, job_id=response.model_version
            )
        )
        assert status.candidate == response.model


class TestLockSharding:
    def test_sharded_reads_by_default(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        response = gateway.handle(ListAppsRequest(auth_token=token))
        assert response.apps == ("moons",)


class TestReadWriteSplit:
    """The frontend dispatch surface: classification, views."""

    def test_read_classification(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        assert gateway.is_read(ListAppsRequest(auth_token=token))
        assert gateway.is_read(AppStatusRequest(auth_token=token,
                                                app="moons"))
        assert gateway.is_read(ServerInfoRequest(auth_token=token))
        assert not gateway.is_read(
            FeedRequest(auth_token=token, app="moons")
        )
        assert not gateway.is_read(
            SubmitTrainingRequest(auth_token=token, app="moons")
        )

    def test_job_status_classification_tracks_liveness(self, gateway):
        token = gateway.create_tenant("alice")
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        handle = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=1)
        ).handles[0]
        live_poll = JobStatusRequest(auth_token=token, job_id=handle.job_id)
        long_poll = JobStatusRequest(auth_token=token, job_id=handle.job_id,
                                     wait=5.0)
        # Live handle: a poll advances the cluster -> write path, and
        # a long-poll may park on it.
        assert not gateway.is_read(live_poll)
        assert not gateway.is_read(long_poll)
        # Terminal handle: nothing to advance and nothing to wait for,
        # so even a long-poll is a read.
        drain(gateway, token, [handle])
        assert gateway.is_read(live_poll)
        assert gateway.is_read(long_poll)
        # Unknown handles classify as reads: the handler answers the
        # NOT_FOUND without ever taking the lock.
        assert gateway.is_read(
            JobStatusRequest(auth_token=token, job_id="job-99999")
        )

    def test_tenant_view_is_immutable_snapshot(self, gateway):
        token = gateway.create_tenant("alice")
        tenant = gateway._tenants[token]
        before = tenant.view
        assert before.apps == ()
        assert not before.retired
        register_and_feed(gateway, token, "moons", MOONS_PROGRAM, "moons")
        after = tenant.view
        assert after is not before  # republished, not mutated
        assert before.apps == ()  # the old snapshot never changes
        assert after.apps == ("moons",)
        gateway.retire_tenant("alice")
        assert tenant.view.retired
        assert not after.retired
