"""ServingPlane end to end: spawn, tail, SIGKILL the writer, promote.

One deliberately small multiprocess scenario (spawn startup on this
class of host is seconds per child); the fine-grained promotion and
staleness semantics live in the in-process suites next door.
"""

import multiprocessing
import os
import signal
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
            token = plane.tokens["acme"]
            writer = EaseMLClient(plane.writer_url, token)
            writer.register_app("moons", MOONS_PROGRAM)

            # The replica tails the WAL and serves the read.
            replica_url = plane.replica_urls()[0]
            replica = EaseMLClient(replica_url, token)
            assert wait_until(
                lambda: "moons" in replica.list_apps().apps, timeout=30
            ), "replica never caught up"
            assert replica.last_replica_lag == 0

            # Topology is published for operators and the CLI.
            cluster = read_cluster(state_dir)
            assert cluster["writer_url"] == plane.writer_url
            assert (state_dir / CLUSTER_NAME).exists()

            # SIGKILL the writer: the supervisor promotes the replica.
            old_writer_url = plane.writer_url
            os.kill(cluster["writer_pid"], signal.SIGKILL)
            assert wait_until(
                lambda: plane.promotions == 1, timeout=60
            ), "writer death did not trigger a promotion"
            assert plane.writer_url == replica_url != old_writer_url

            # The promoted member serves reads AND writes.
            promoted = EaseMLClient(plane.writer_url, token)
            assert "moons" in promoted.list_apps().apps
            promoted.register_app("after-failover", MOONS_PROGRAM)
            assert "after-failover" in promoted.list_apps().apps

            # The published topology reflects the new writer.
            cluster = read_cluster(state_dir)
            assert cluster["writer_url"] == plane.writer_url
            assert cluster["promotions"] == 1
        finally:
            plane.stop()

    def test_refuses_to_start_without_reuse_port(
        self, state_dir, monkeypatch
    ):
        """No SO_REUSEPORT, no plane: the constructor says so before a
        single child exists (there is no userspace front tier)."""
        monkeypatch.setattr(
            "repro.service.http.supports_reuse_port", lambda: False
        )
        with pytest.raises(RuntimeError, match="SO_REUSEPORT") as err:
            ServingPlane(state_dir, replicas=1, tenants=["acme"])
        assert "repro serve" in str(err.value)
        assert multiprocessing.active_children() == []
        assert not state_dir.exists()
