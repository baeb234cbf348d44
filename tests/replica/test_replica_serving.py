"""ReadReplica as a standby: follows the writer, reports a dead tail.

A standby serves no client traffic, so what its heartbeat says —
``applied_seq``, ``following`` and the error that ended its tail
loop — is the only sign of its health.  Everything here runs in one
process: the writer gateway, the follower, and the supervisor's
bookkeeping (no child processes).
"""

import time

import pytest

from replica_helpers import MOONS_PROGRAM, open_writer
from repro.replica import ReadReplica, ServingPlane, read_cluster
from repro.replica.supervisor import _Member, _standby_beat
from repro.service.api import (
    AppStatusRequest,
    ListAppsRequest,
    RegisterAppRequest,
)


def register(gateway, token, app):
    gateway.handle(
        RegisterAppRequest(auth_token=token, app=app, program=MOONS_PROGRAM)
    )


@pytest.fixture
def plane(state_dir):
    """In-process writer + caught-up replica; manual stepping."""
    gateway, token = open_writer(state_dir)
    register(gateway, token, "moons")
    replica = ReadReplica(state_dir)
    replica._apply(replica.tailer.seed())
    yield gateway, token, replica
    gateway.store.close()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestReplicaReads:
    def test_reads_match_the_writer(self, plane):
        gateway, token, replica = plane
        mine = replica.gateway.handle(ListAppsRequest(auth_token=token))
        theirs = gateway.handle(ListAppsRequest(auth_token=token))
        assert mine.apps == theirs.apps == ("moons",)
        status = replica.gateway.handle(
            AppStatusRequest(auth_token=token, app="moons")
        )
        assert status.app == "moons"

    def test_new_writes_appear_after_step(self, plane):
        gateway, token, replica = plane
        register(gateway, token, "blobs")
        assert replica.step() > 0
        assert replica.gateway.handle(
            ListAppsRequest(auth_token=token)
        ).apps == ("blobs", "moons")
        assert replica.applied_seq == gateway.store.last_seq


class TestStandbyHealth:
    def test_dead_tail_loop_is_reported(self, state_dir, monkeypatch):
        """A replay failure ends the tail loop: applied_seq and
        lag_records freeze while the writer moves on, and only
        ``following`` and ``error`` say so."""
        gateway, token = open_writer(state_dir)
        try:
            replica = ReadReplica(state_dir, poll_interval=0.01)
            replica.start()
            assert replica.following
            assert _standby_beat(replica)["following"] is True

            def diverge(gateway, records):
                raise RuntimeError("injected replay divergence")

            monkeypatch.setattr(
                "repro.replica.replica.replay_records", diverge
            )
            frozen = replica.applied_seq
            register(gateway, token, "moons")
            assert wait_until(lambda: not replica.following)
            register(gateway, token, "blobs")
            time.sleep(0.05)
            assert replica.applied_seq == frozen < gateway.store.last_seq
            assert isinstance(replica.error, RuntimeError)
            beat = _standby_beat(replica)
            assert beat["following"] is False
            assert beat["error"] == "RuntimeError: injected replay divergence"
            assert beat["applied_seq"] == frozen
            replica.stop()
        finally:
            gateway.store.close()

    def test_cluster_json_carries_each_heartbeat(self, state_dir):
        plane = ServingPlane(state_dir, replicas=1, port=8123)
        standby = _Member(name="standby-0", role="standby", pid=7)
        plane.members.append(standby)
        plane._note(
            standby,
            {
                "event": "heartbeat",
                "applied_seq": 4,
                "lag_records": 2,
                "following": False,
                "error": "RuntimeError: boom",
            },
        )
        state_dir.mkdir()
        plane._publish()
        (member,) = read_cluster(state_dir)["members"]
        assert member == {
            "name": "standby-0",
            "role": "standby",
            "pid": 7,
            "alive": False,
            "applied_seq": 4,
            "lag_records": 2,
            "following": False,
            "error": "RuntimeError: boom",
        }
        assert read_cluster(state_dir)["url"] == "http://127.0.0.1:8123"
        # Unchanged values are not rewritten.
        (state_dir / "cluster.json").unlink()
        plane._publish()
        assert read_cluster(state_dir) is None


class _Alive:
    def is_alive(self):
        return True


class _Pipe:
    """The supervisor's end of a standby's pipe, answering promote."""

    def __init__(self, log, name):
        self.log, self.name, self.replies = log, name, []

    def send(self, msg):
        self.log.append(self.name)
        self.replies.append({"event": "promoted", "final_seq": 9})

    def poll(self, timeout=0.0):
        return bool(self.replies)

    def recv(self):
        return self.replies.pop(0)


class TestElection:
    def test_following_standbys_are_tried_first(self, state_dir):
        plane = ServingPlane(state_dir, replicas=2)
        plane.writer = _Member(name="writer", role="writer")
        asked = []
        ahead_but_dead = _Member(
            name="stuck", role="standby", process=_Alive(),
            conn=_Pipe(asked, "stuck"),
            health={"applied_seq": 12, "following": False},
        )
        behind_but_following = _Member(
            name="live", role="standby", process=_Alive(),
            conn=_Pipe(asked, "live"),
            health={"applied_seq": 9, "following": True},
        )
        plane.members = [plane.writer, ahead_but_dead, behind_but_following]
        state_dir.mkdir()
        plane._promote_best()
        assert asked == ["live"]
        assert plane.writer is behind_but_following
        assert plane.promotions == 1
        assert [m.name for m in plane.members] == ["stuck", "live"]
