"""Crash recovery at the gateway level: replay, dispositions, tripwires."""

import json
import shutil

import pytest

from persist_helpers import (
    BLOBS_PROGRAM,
    MOONS_PROGRAM,
    gateway_kwargs,
    task_payload,
)

from repro.persist import (
    JournalError,
    RecoveryError,
    last_checkpoint,
    open_gateway,
    read_journal,
    recover_gateway,
    state_digest,
)
from repro.persist.journal import record_checksum
from repro.service import ApiError, ApiErrorCode, ServiceGateway, TenantQuota
from repro.service.api import (
    AppStatusRequest,
    FeedRequest,
    InferRequest,
    JobStatusRequest,
    ListJobsRequest,
    RegisterAppRequest,
    SubmitTrainingRequest,
)


def _fresh(state_dir, **overrides):
    gateway, report = open_gateway(state_dir, **gateway_kwargs(**overrides))
    assert report is None
    return gateway


def _onboard(gateway, tenant="alice", app="moons", program=MOONS_PROGRAM,
             kind="moons", seed=0):
    token = gateway.create_tenant(tenant)
    gateway.handle(
        RegisterAppRequest(auth_token=token, app=app, program=program)
    )
    inputs, outputs = task_payload(kind, seed=seed)
    gateway.handle(
        FeedRequest(auth_token=token, app=app, inputs=inputs,
                    outputs=outputs)
    )
    return token


def _poll_to_done(gateway, token, handle_id):
    while True:
        status = gateway.handle(
            JobStatusRequest(auth_token=token, job_id=handle_id)
        )
        if status.done:
            return status


class TestRoundTrip:
    def test_everything_survives_a_restart(self, state_dir):
        gateway = _fresh(state_dir)
        token = _onboard(gateway)
        gateway.set_quota(
            "alice",
            TenantQuota(max_apps=7, max_pending_jobs=9,
                        max_store_bytes=1 << 22),
        )
        token = gateway.rotate_token("alice")
        response = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=2)
        )
        statuses = [
            _poll_to_done(gateway, token, h.job_id)
            for h in response.handles
        ]
        live_digest = state_digest(gateway)
        gateway.store.close()

        recovered, report = recover_gateway(state_dir)
        assert state_digest(recovered) == live_digest
        assert report.tenants == ["alice"]
        # The rotated token (not the original) authenticates.
        assert recovered.tenant_token("alice") == token
        tenant = recovered._tenant_names["alice"]
        assert tenant.quota.max_apps == 7
        # Terminal job results are intact, accuracy and all.
        for status in statuses:
            again = recovered.handle(
                JobStatusRequest(auth_token=token, job_id=status.job_id)
            )
            assert again.state == "finished"
            assert again.accuracy == status.accuracy
            assert again.disposition is None
        # The trained model still serves.
        app_status = recovered.handle(
            AppStatusRequest(auth_token=token, app="moons")
        )
        assert app_status.best_candidate is not None
        recovered.store.close()

    def test_direct_server_feed_replays_its_rows_as_fed(self, state_dir):
        """A feed made on the backing server, not through a tenant,
        journals its rows and labels; replay hands them to ``feed``
        as they were read back and rebuilds the same store."""
        import numpy as np

        gateway = _fresh(state_dir)
        _onboard(gateway)
        app = gateway.server.get_app("moons")
        rows = np.random.default_rng(5).standard_normal((4, 2))
        app.feed(
            list(rows),
            [np.int64(1), 0, np.array([0.25, 0.75]), [1.0, 0.0]],
        )
        live_digest = state_digest(gateway)
        live_X, live_Y = app.store.enabled_arrays()
        gateway.store.close()

        recovered, _ = recover_gateway(state_dir)
        X, Y = recovered.server.get_app("moons").store.enabled_arrays()
        assert X.tobytes() == live_X.tobytes()
        assert Y.tobytes() == live_Y.tobytes()
        assert state_digest(recovered) == live_digest
        recovered.store.close()

    def test_two_tenants_interleaved(self, state_dir):
        gateway = _fresh(state_dir)
        alice = _onboard(gateway, "alice", "moons", MOONS_PROGRAM, "moons")
        bob = _onboard(
            gateway, "bob", "blobs", BLOBS_PROGRAM, "blobs", seed=1
        )
        ha = gateway.handle(
            SubmitTrainingRequest(auth_token=alice, app="moons", steps=2)
        ).handles
        hb = gateway.handle(
            SubmitTrainingRequest(auth_token=bob, app="blobs", steps=2)
        ).handles
        for token, handles in ((alice, ha), (bob, hb)):
            for handle in handles:
                _poll_to_done(gateway, token, handle.job_id)
        live = state_digest(gateway)
        gateway.store.close()
        recovered, _ = recover_gateway(state_dir)
        assert state_digest(recovered) == live
        # Tenant isolation survives: bob cannot see alice's jobs.
        jobs = recovered.handle(ListJobsRequest(auth_token=bob))
        assert {h.app for h in jobs.jobs} == {"blobs"}
        recovered.store.close()


class TestDeterminism:
    def test_replaying_twice_yields_byte_identical_snapshots(
        self, state_dir, tmp_path
    ):
        gateway = _fresh(state_dir)
        token = _onboard(gateway)
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=3)
        ).handles
        _poll_to_done(gateway, token, handles[0].job_id)
        gateway.store.close()

        copies = []
        for name in ("one", "two"):
            copy = tmp_path / name
            shutil.copytree(state_dir, copy)
            recovered, _ = recover_gateway(copy)
            recovered.store.snapshot(state_digest(recovered))
            recovered.store.close()
            copies.append((copy / "journal.jsonl").read_bytes())
        # Same records in, same checkpoint (digest included) out.
        assert copies[0] == copies[1]
        assert b'"checkpoint"' in copies[0].splitlines()[-1]

    def test_snapshot_digest_tripwire(self, state_dir):
        gateway = _fresh(state_dir, snapshot_every=2)
        token = _onboard(gateway)  # >= 3 records: checkpoint taken
        gateway.store.close()
        journal = state_dir / "journal.jsonl"
        records = read_journal(journal)[0]
        mark = last_checkpoint(records)
        assert mark is not None
        # Tamper with a record before the mark in a checksum-consistent
        # way: replay then diverges from the checkpoint's state digest.
        lines = journal.read_text().splitlines()
        index = next(
            i for i, r in enumerate(records) if r.type == "tenant_created"
        )
        assert records[index].seq < mark.seq
        record = json.loads(lines[index])
        record["payload"]["quota"]["max_apps"] = 99
        record["crc"] = record_checksum(
            record["seq"], record["type"], record["payload"]
        )
        lines[index] = json.dumps(record)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="digest"):
            recover_gateway(state_dir)

    def test_diverged_journal_record_refused(self, state_dir):
        gateway = _fresh(state_dir)
        token = _onboard(gateway)
        gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=1)
        )
        gateway.store.close()
        journal = state_dir / "journal.jsonl"
        lines = journal.read_text().splitlines()
        index, data = next(
            (i, json.loads(line))
            for i, line in enumerate(lines)
            if json.loads(line)["type"] == "job_submitted"
        )
        data["payload"]["handles"] = ["job-99999"]
        data["crc"] = record_checksum(
            data["seq"], data["type"], data["payload"]
        )
        lines[index] = json.dumps(data)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="handles"):
            recover_gateway(state_dir)


class TestDispositions:
    def _crash_with_in_flight(self, state_dir):
        gateway = _fresh(state_dir)
        token = _onboard(gateway)
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=3)
        ).handles
        _poll_to_done(gateway, token, handles[0].job_id)
        in_flight = [
            h.job_id
            for h in gateway.handle(
                ListJobsRequest(auth_token=token)
            ).jobs
            if h.state in ("pending", "running", "preempted")
        ]
        assert in_flight, "scenario needs at least one in-flight job"
        gateway.store.close()
        return token, in_flight

    def test_requeue_recovers_and_completes(self, state_dir):
        token, in_flight = self._crash_with_in_flight(state_dir)
        recovered, report = recover_gateway(state_dir, in_flight="requeue")
        assert report.recovered == sorted(in_flight)
        assert report.lost == []
        for handle_id in in_flight:
            status = recovered.handle(
                JobStatusRequest(auth_token=token, job_id=handle_id)
            )
            assert status.disposition == "recovered"
        # Requeued jobs complete on the rebuilt cluster.
        for handle_id in in_flight:
            status = _poll_to_done(recovered, token, handle_id)
            assert status.state == "finished"
            assert status.accuracy is not None
        recovered.store.close()

    def test_mark_lost_cancels_and_is_journaled(self, state_dir):
        token, in_flight = self._crash_with_in_flight(state_dir)
        recovered, report = recover_gateway(
            state_dir, in_flight="mark-lost"
        )
        assert report.lost == sorted(in_flight)
        for handle_id in in_flight:
            status = recovered.handle(
                JobStatusRequest(auth_token=token, job_id=handle_id)
            )
            assert status.state == "cancelled"
            assert status.disposition == "lost"
            assert status.done
        recovered.store.close()
        # The cancellation was journaled: a SECOND recovery agrees
        # (state "cancelled"), instead of resurrecting the jobs.
        again, _ = recover_gateway(state_dir)
        for handle_id in in_flight:
            status = again.handle(
                JobStatusRequest(auth_token=token, job_id=handle_id)
            )
            assert status.state == "cancelled"
        again.store.close()


class TestRecoveringGate:
    def test_requests_rejected_while_recovering(self, state_dir):
        gateway = _fresh(state_dir)
        gateway._recovering = True
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(ListJobsRequest(auth_token="whatever"))
        assert excinfo.value.code is ApiErrorCode.UNAVAILABLE_RECOVERING
        assert excinfo.value.http_status == 503
        gateway._recovering = False
        gateway.store.close()


class TestRetiredTenant:
    def test_poll_racing_retirement_returns_cancelled(self, state_dir):
        """The satellite fix: CANCELLED, never NOT_FOUND."""
        gateway = _fresh(state_dir)
        token = _onboard(gateway)
        # More jobs than devices (partition runs up to n_gpus=4
        # concurrently), so retirement finds genuinely queued jobs.
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=6)
        ).handles
        cancelled = gateway.retire_tenant("alice")
        assert cancelled, "retirement should cancel queued jobs"
        for handle_id in cancelled:
            status = gateway.handle(
                JobStatusRequest(auth_token=token, job_id=handle_id)
            )
            assert status.state == "cancelled"
            assert status.done
        # Mutations are refused, reads still work.
        with pytest.raises(ApiError) as excinfo:
            gateway.handle(
                SubmitTrainingRequest(auth_token=token, app="moons")
            )
        assert excinfo.value.code is ApiErrorCode.FAILED_PRECONDITION
        live_digest = state_digest(gateway)
        gateway.store.close()
        # Retirement (and the cancellations) survive a restart.
        recovered, _ = recover_gateway(state_dir)
        assert state_digest(recovered) == live_digest
        assert recovered._tenant_names["alice"].retired
        for handle_id in cancelled:
            status = recovered.handle(
                JobStatusRequest(auth_token=token, job_id=handle_id)
            )
            assert status.state == "cancelled"
        assert handles  # the full submit batch stayed addressable
        recovered.store.close()


class TestGuards:
    def test_recover_missing_dir_fails_cleanly(self, tmp_path):
        with pytest.raises(RecoveryError, match="config.json"):
            recover_gateway(tmp_path / "nothing")

    def test_external_server_cannot_be_made_durable(self, tmp_path):
        from repro.ml.zoo import default_zoo
        from repro.platform.server import EaseMLServer

        server = EaseMLServer(
            default_zoo().subset(["naive-bayes", "ridge"]),
            runtime_placement="partition",
        )
        with pytest.raises(RecoveryError, match="externally-built"):
            open_gateway(
                tmp_path / "state",
                gateway_factory=lambda _: ServiceGateway(server=server),
            )

    def test_adoption_refused_with_store(self, state_dir):
        gateway = _fresh(state_dir)
        with pytest.raises(ValueError, match="adopt"):
            gateway.create_tenant("eve", apps=["anything"])
        gateway.store.close()

    def test_recovered_config_overrides_kwargs(self, state_dir):
        gateway = _fresh(state_dir, n_gpus=2)
        gateway.create_tenant("alice")
        gateway.store.close()
        recovered, _ = open_gateway(state_dir, **gateway_kwargs(n_gpus=16))
        assert recovered.server.n_gpus == 2
        recovered.store.close()

    def test_bad_in_flight_policy(self, state_dir):
        gateway = _fresh(state_dir)
        gateway.store.close()
        with pytest.raises(ValueError, match="in_flight"):
            recover_gateway(state_dir, in_flight="psychic")

    def test_journal_hygiene_after_torn_tail(self, state_dir):
        gateway = _fresh(state_dir)
        _onboard(gateway)
        gateway.store.close()
        journal = state_dir / "journal.jsonl"
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 77, "typ')
        recovered, report = recover_gateway(state_dir)
        assert report.dropped_tail == 1
        # The torn line was shed: the file validates end to end again.
        records, dropped = read_journal(journal)
        assert dropped == 0
        recovered.store.close()

    @pytest.mark.parametrize("sync", ["fsync", "group"])
    def test_failed_fsync_is_fail_stop(self, state_dir, sync, monkeypatch):
        """A write the disk refused leaves an un-acked line and a
        journal that will not append again — never a second record
        with the same seq."""
        import repro.persist.journal as journal_module

        gateway = _fresh(state_dir, sync=sync)
        gateway.create_tenant("alice")
        real_fsync, armed = journal_module.os.fsync, [True]

        def fsync_fails_once(fd):
            if armed:
                armed.clear()
                raise OSError(5, "Input/output error")
            return real_fsync(fd)

        monkeypatch.setattr(journal_module.os, "fsync", fsync_fails_once)
        with pytest.raises(OSError, match="Input/output"):
            gateway.rotate_token("alice")
        for _ in range(2):
            with pytest.raises(JournalError, match="closed"):
                gateway.rotate_token("alice")
        gateway.store.close()
        # What reached the file is an ordinary tail for the next start.
        records, dropped = read_journal(state_dir / "journal.jsonl")
        assert [r.seq for r in records] == [1, 2] and dropped == 0
        recovered, report = recover_gateway(state_dir)
        assert report.final_seq == 2
        recovered.rotate_token("alice")
        recovered.store.close()

    def test_open_gateway_honours_journal_error_type(self, state_dir):
        gateway = _fresh(state_dir)
        gateway.store.close()
        (state_dir / "config.json").write_text("[1, 2]")
        with pytest.raises(JournalError):
            open_gateway(state_dir, **gateway_kwargs())

    def test_single_writer_lock(self, state_dir):
        gateway = _fresh(state_dir)
        gateway.create_tenant("alice")
        # A second opener (say, `repro state compact` against a live
        # server) must fail fast instead of interleaving seqs.
        with pytest.raises(JournalError, match="locked"):
            recover_gateway(state_dir)
        gateway.store.close()
        recovered, _ = recover_gateway(state_dir)  # lock released
        recovered.store.close()

    def test_torn_effect_record_does_not_poison_the_directory(
        self, state_dir
    ):
        """A torn-off *effect* record is re-journaled by recovery, so
        the directory stays recoverable forever after."""
        gateway = _fresh(state_dir)
        alice = _onboard(gateway)
        handle = gateway.handle(
            SubmitTrainingRequest(auth_token=alice, app="moons", steps=1)
        ).handles[0]
        _poll_to_done(gateway, alice, handle.job_id)
        # A second tenant joins the live run: its submit admits it as
        # a late arrival, which journals an app_admitted effect.
        bob = _onboard(gateway, "bob", "blobs", BLOBS_PROGRAM, "blobs",
                       seed=1)
        gateway.handle(
            SubmitTrainingRequest(auth_token=bob, app="blobs", steps=1)
        )
        gateway.store.close()
        journal = state_dir / "journal.jsonl"
        lines = journal.read_text().splitlines()
        from repro.persist import EFFECT_TYPES

        torn_type = json.loads(lines[-1])["type"]
        assert torn_type in EFFECT_TYPES
        # Crash window: the primary fsynced, its effect record did not.
        journal.write_text("\n".join(lines[:-1]) + "\n")
        first, _ = recover_gateway(state_dir)
        # The replayed effect is back on disk...
        types = [r.type for r in read_journal(journal)[0]]
        assert types[-1] == torn_type
        # ...so further mutations and further recoveries work.
        first.create_tenant("carol")
        digest = state_digest(first)
        first.store.close()
        second, _ = recover_gateway(state_dir)
        assert state_digest(second) == digest
        second.store.close()
