"""Replica promotion: lock arbitration, dispositions, tripwires."""

import json
import shutil
import threading
import time

import pytest

from replica_helpers import MOONS_PROGRAM, onboard, open_writer
from repro.persist import (
    JOURNAL_NAME,
    JournalCorruptionError,
    JournalError,
    read_journal,
    recover_gateway,
    state_digest,
)
from repro.service.api import (
    JobStatusRequest,
    ListJobsRequest,
    RegisterAppRequest,
    SubmitTrainingRequest,
)
from repro.replica import ReadReplica


def follow(state_dir):
    """A caught-up replica, stepped manually (no tail thread)."""
    replica = ReadReplica(state_dir)
    replica._apply(replica.tailer.seed())
    while replica.step():
        pass
    return replica


def poll_to_done(gateway, token, handle_id):
    while True:
        status = gateway.handle(
            JobStatusRequest(auth_token=token, job_id=handle_id)
        )
        if status.done:
            return status


def live_handles(gateway, token):
    return sorted(
        h.job_id
        for h in gateway.handle(ListJobsRequest(auth_token=token)).jobs
        if h.state in ("pending", "running", "preempted")
    )


class TestPromotionBasics:
    def test_promote_preserves_state_and_accepts_writes(self, state_dir):
        gateway, token = open_writer(state_dir)
        onboard(gateway, token)
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=2)
        ).handles
        for handle in handles:
            poll_to_done(gateway, token, handle.job_id)
        pre_kill = state_digest(gateway)
        gateway.store.close()  # writer dies; flock released

        replica = follow(state_dir)
        report = replica.promote()
        assert replica.promoted
        assert report.final_seq == replica.applied_seq
        assert report.recovered == [] and report.lost == []
        assert state_digest(replica.gateway) == pre_kill

        # The promoted replica is a writer: mutations persist.
        replica.gateway.handle(
            RegisterAppRequest(
                auth_token=token, app="after", program=MOONS_PROGRAM
            )
        )
        promoted_digest = state_digest(replica.gateway)
        replica.gateway.store.close()

        # No double-applied records: the rewritten journal is strictly
        # increasing, and a plain recovery agrees with the promoted
        # state byte for byte (the digest tripwire).
        seqs = [r.seq for r in read_journal(state_dir / JOURNAL_NAME)[0]]
        assert seqs == sorted(set(seqs))
        recovered, _ = recover_gateway(state_dir)
        assert state_digest(recovered) == promoted_digest
        recovered.store.close()

    def test_promote_while_writer_alive_is_refused(self, state_dir):
        gateway, token = open_writer(state_dir)
        replica = follow(state_dir)
        with pytest.raises(JournalError, match="lock"):
            replica.promote(lock_timeout=0.2)
        assert not replica.promoted
        gateway.store.close()

    def test_promote_drains_unread_tail(self, state_dir):
        """Records appended after the last poll survive promotion."""
        gateway, token = open_writer(state_dir)
        replica = follow(state_dir)
        # The writer races ahead of the tailer, then dies.
        onboard(gateway, token)
        final = gateway.store.last_seq
        gateway.store.close()
        report = replica.promote()
        assert report.drained_records > 0
        assert replica.applied_seq == final


class TestDispositions:
    def _kill_with_in_flight(self, state_dir):
        gateway, token = open_writer(state_dir)
        onboard(gateway, token)
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=3)
        ).handles
        poll_to_done(gateway, token, handles[0].job_id)
        in_flight = live_handles(gateway, token)
        assert in_flight, "scenario needs at least one in-flight job"
        gateway.store.close()
        return token, in_flight

    def test_requeue_recovers_and_completes(self, state_dir):
        token, in_flight = self._kill_with_in_flight(state_dir)
        replica = follow(state_dir)
        report = replica.promote(in_flight="requeue")
        assert report.recovered == in_flight
        assert report.lost == []
        facade = replica.gateway
        for handle_id in in_flight:
            status = facade.handle(
                JobStatusRequest(auth_token=token, job_id=handle_id)
            )
            assert status.disposition == "recovered"
        # Requeued jobs run to completion on the promoted cluster.
        for handle_id in in_flight:
            status = poll_to_done(facade, token, handle_id)
            assert status.state == "finished"
        replica.gateway.store.close()

    def test_mark_lost_is_journaled(self, state_dir):
        token, in_flight = self._kill_with_in_flight(state_dir)
        replica = follow(state_dir)
        report = replica.promote(in_flight="mark-lost")
        assert report.lost == in_flight
        facade = replica.gateway
        for handle_id in in_flight:
            status = facade.handle(
                JobStatusRequest(auth_token=token, job_id=handle_id)
            )
            assert status.state == "cancelled"
            assert status.disposition == "lost"
        replica.gateway.store.close()
        # The cancellations were journaled: a later recovery agrees
        # instead of resurrecting the jobs.
        again, _ = recover_gateway(state_dir)
        for handle_id in in_flight:
            status = again.handle(
                JobStatusRequest(auth_token=token, job_id=handle_id)
            )
            assert status.state == "cancelled"
        again.store.close()

    def test_bad_policy_rejected(self, state_dir):
        gateway, token = open_writer(state_dir)
        gateway.store.close()
        replica = follow(state_dir)
        with pytest.raises(ValueError, match="in_flight"):
            replica.promote(in_flight="psychic")


class TestParkedWaiters:
    def test_waiter_rides_over_failover(self, state_dir):
        """A long-poll parked on the dying writer is released by the
        frontend's wait-abort, and the re-issued wait completes on the
        promoted replica."""
        gateway, token = open_writer(state_dir)
        onboard(gateway, token)
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=6)
        ).handles
        target = handles[-1].job_id
        # Freeze the writer's cluster so the waiter genuinely parks.
        runtime = gateway.server._runtime_oracle.runtime
        runtime.run_until_next_completion = lambda: []
        abort = threading.Event()
        gateway.add_wait_abort(abort)
        results = {}

        def park():
            results["status"] = gateway.handle(
                JobStatusRequest(auth_token=token, job_id=target, wait=20)
            )

        waiter = threading.Thread(target=park)
        waiter.start()
        time.sleep(0.15)  # let it park on the done event
        # The writer dies: the frontend aborts parked waiters on the
        # way down rather than hanging them for the full wait.
        abort.set()
        waiter.join(timeout=5)
        assert not waiter.is_alive(), "abort did not wake the waiter"
        assert not results["status"].done  # released mid-flight
        gateway.store.close()

        # The client re-issues the same wait against the promoted
        # replica and rides it to a terminal state.
        replica = follow(state_dir)
        replica.promote(in_flight="requeue")
        facade = replica.gateway
        status = facade.handle(
            JobStatusRequest(auth_token=token, job_id=target, wait=30)
        )
        assert status.done
        assert status.state == "finished"
        assert status.disposition == "recovered"
        replica.gateway.store.close()


def _partial_line(journal):
    with open(journal, "ab") as handle:
        handle.write(b'{"seq": 99, "type": "app_clo')


def _non_json_line(journal):
    with open(journal, "ab") as handle:
        handle.write(b"\x00\x00\x00 a block-level tear\n")


def _mid_file_garbage(journal):
    lines = journal.read_bytes().split(b"\n")
    lines[2] = b"not json at all"
    journal.write_bytes(b"\n".join(lines))


def _rewrite_last(journal, edit):
    lines = journal.read_bytes().split(b"\n")
    data = json.loads(lines[-2])
    edit(data)
    lines[-2] = json.dumps(data).encode()
    journal.write_bytes(b"\n".join(lines))


def _bad_crc(journal):
    _rewrite_last(journal, lambda data: data.update(crc="00000000"))


def _seq_gap(journal):
    from repro.persist import record_checksum

    def skip_one(data):
        data["seq"] += 1
        data["crc"] = record_checksum(
            data["seq"], data["type"], data["payload"]
        )

    _rewrite_last(journal, skip_one)


class TestColdStartIsPromotionFromZero:
    """One directory, both drivers: `recover_gateway` and
    `ReadReplica.start(); promote()` must agree on what a damaged tail
    is, what is left of the journal, and the state it rebuilds."""

    @pytest.fixture(scope="class", params=["buffered", "group"])
    def crashed(self, request, tmp_path_factory):
        """A dead writer's directory with jobs still in flight."""
        state_dir = tmp_path_factory.mktemp(request.param) / "state"
        gateway, token = open_writer(state_dir, sync=request.param)
        onboard(gateway, token)
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app="moons", steps=3)
        ).handles
        poll_to_done(gateway, token, handles[0].job_id)
        assert live_handles(gateway, token)
        gateway.store.close()
        return state_dir

    @staticmethod
    def _copies(crashed, tmp_path, damage):
        copies = []
        for name in ("cold", "promoted"):
            shutil.copytree(crashed, tmp_path / name)
            damage(tmp_path / name / JOURNAL_NAME)
            copies.append(tmp_path / name)
        return copies

    @pytest.mark.parametrize(
        "damage, dropped",
        [
            (lambda journal: None, 0),
            (_partial_line, 1),
            (_non_json_line, 1),
            (lambda journal: journal.write_bytes(b""), 0),
        ],
        ids=["clean", "partial-line", "non-json-line", "empty-file"],
    )
    def test_damaged_tail_matrix(self, crashed, tmp_path, damage, dropped):
        cold_dir, promoted_dir = self._copies(crashed, tmp_path, damage)

        cold, cold_report = recover_gateway(cold_dir)
        replica = ReadReplica(promoted_dir)
        replica.start()
        promoted_report = replica.promote()

        assert state_digest(replica.gateway) == state_digest(cold)
        for name in ("final_seq", "dropped_tail", "recovered", "lost"):
            assert getattr(promoted_report, name) == getattr(
                cold_report, name
            ), name
        assert cold_report.dropped_tail == dropped
        cold.store.close()
        replica.gateway.store.close()
        assert (cold_dir / JOURNAL_NAME).read_bytes() == (
            promoted_dir / JOURNAL_NAME
        ).read_bytes()
        for state_dir in (cold_dir, promoted_dir):
            again, report = recover_gateway(state_dir)
            assert report.dropped_tail == 0
            assert report.final_seq == cold_report.final_seq
            again.store.close()

    @pytest.mark.parametrize(
        "damage", [_mid_file_garbage, _bad_crc, _seq_gap]
    )
    def test_real_damage_is_refused_by_both(self, crashed, tmp_path, damage):
        cold_dir, promoted_dir = self._copies(crashed, tmp_path, damage)
        with pytest.raises(JournalCorruptionError):
            recover_gateway(cold_dir)
        with pytest.raises(JournalCorruptionError):
            replica = ReadReplica(promoted_dir)
            replica.start()
            replica.promote()
