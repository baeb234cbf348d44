"""ServingPlane end to end: spawn, follow, SIGKILL the writer, promote.

One deliberately small multiprocess scenario (spawn startup on this
class of host is seconds per child); the fine-grained promotion and
standby-health semantics live in the in-process suites next door.
"""

import multiprocessing
import os
import signal
import socket
import sys
import threading
import time

import pytest

from replica_helpers import MOONS_PROGRAM
from repro.replica import CLUSTER_NAME, ServingPlane, read_cluster
from repro.service.client import EaseMLClient


def wait_until(predicate, timeout, interval=0.2):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def refused(port):
    """Does nothing listen on ``port``?"""
    try:
        socket.create_connection(("127.0.0.1", port), timeout=2).close()
    except ConnectionRefusedError:
        return True
    return False


class TestServingPlane:
    def test_failover_end_to_end(self, state_dir):
        plane = ServingPlane(
            state_dir,
            replicas=1,
            tenants=["acme"],
            sync="buffered",
            heartbeat_interval=0.2,
        )
        plane.start()
        try:
            client = EaseMLClient(plane.url, plane.tokens["acme"])
            client.register_app("moons", MOONS_PROGRAM)

            # One address for the whole plane; the standby binds
            # nothing (the old layout had direct ports at +1 and +2).
            cluster = read_cluster(state_dir)
            assert cluster["url"] == plane.url
            assert "url" not in cluster["members"][1]
            assert (state_dir / CLUSTER_NAME).exists()
            assert refused(plane.port + 1) and refused(plane.port + 2)
            assert wait_until(
                lambda: read_cluster(state_dir)["members"][1].get(
                    "following"
                ),
                timeout=30,
            ), "the standby never reported following"

            # SIGKILL the writer: the same client, on the same address,
            # retries until the promoted standby acks a write.
            os.kill(cluster["writer_pid"], signal.SIGKILL)
            deadline = time.monotonic() + 60
            while True:
                try:
                    client.register_app("after-failover", MOONS_PROGRAM)
                    break
                except (ConnectionError, OSError):
                    assert time.monotonic() < deadline, "no write acked"
                    time.sleep(0.1)
            assert plane.promotions == 1
            assert set(client.list_apps().apps) == {
                "moons", "after-failover"
            }

            # The published topology reflects the new writer.
            assert wait_until(
                lambda: read_cluster(state_dir)["promotions"] == 1,
                timeout=10,
            )
            cluster = read_cluster(state_dir)
            assert cluster["url"] == plane.url
            (member,) = cluster["members"]
            assert member["role"] == "writer"
            assert member["pid"] == cluster["writer_pid"]
            assert refused(plane.port + 1) and refused(plane.port + 2)
        finally:
            plane.stop()

    def test_promotion_starts_at_the_writer_death_not_the_next_tick(
        self, state_dir
    ):
        """The monitor waits on the writer's process sentinel: a kill
        just after a tick starts promotion at once, where a sleeping
        loop would notice it a whole interval later."""
        from repro.replica.supervisor import _Member

        interval = 1.0
        state_dir.mkdir()
        plane = ServingPlane(state_dir, replicas=0, heartbeat_interval=interval)
        ctx = multiprocessing.get_context("spawn")
        conn, child_conn = ctx.Pipe()
        writer = _Member(
            name="writer", role="writer", conn=conn,
            process=ctx.Process(target=time.sleep, args=(60,), daemon=True),
        )
        writer.process.start()
        plane.members.append(writer)
        plane.writer = writer
        ticked = threading.Event()
        rounds = []
        promoting = []
        publish = plane._publish

        def publish_and_tick():
            publish()
            rounds.append(time.monotonic())
            if len(rounds) == 2:  # the first wait timed out: a tick
                ticked.set()

        plane._publish = publish_and_tick
        plane._promote_best = lambda: promoting.append(time.monotonic())
        plane._start_monitor()
        try:
            assert ticked.wait(10 * interval)
            assert rounds[1] - rounds[0] >= interval * 0.9
            killed = time.monotonic()
            os.kill(writer.process.pid, signal.SIGKILL)
            assert wait_until(lambda: promoting, timeout=3 * interval,
                              interval=0.01)
            assert promoting[0] - killed < interval / 4
        finally:
            plane.stop()
            # Held open until now: the writer's pipe reaches EOF only
            # when its sentinel does, as with a real member.
            child_conn.close()

    def test_refuses_to_start_without_flock(self, state_dir, monkeypatch):
        """No flock, no single-writer arbitration, no plane: the
        constructor says so before a single child exists."""
        monkeypatch.setitem(sys.modules, "fcntl", None)
        with pytest.raises(RuntimeError, match="flock") as err:
            ServingPlane(state_dir, replicas=1, tenants=["acme"])
        assert "repro serve" in str(err.value)
        assert multiprocessing.active_children() == []
        assert not state_dir.exists()
