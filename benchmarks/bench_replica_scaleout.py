"""Standby failover: SIGKILL the writer, stopwatch to the first write.

Spins up a real :class:`~repro.replica.ServingPlane` (writer + one
standby that follows the journal, each its own OS process), waits
until the standby reports ``following`` at the writer's sequence, then
SIGKILLs the writer.  One client on the plane's one address retries a
write until it is acked; the report records kill → first acked write
per run, next to ``nproc``.

Replicas serve no reads: the read-scaling table this bench used to
print read 1.02×, 0.83× and 1.16× at 1, 2 and 4 replicas on one core,
and that path was deleted.  Failover is what standbys are for; compare
the numbers here with a cold restart's ``restart_to_ready_s``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_replica_scaleout.py [--quick]
"""

import argparse
import os
import random
import shutil
import signal
import statistics
import tempfile
import time
from pathlib import Path

from conftest import save_report

from repro.ml.data import TaskSpec, make_task
from repro.replica import ServingPlane, read_cluster
from repro.service.client import EaseMLClient
from repro.utils.tables import ascii_table

PROGRAM = "{input: {[Tensor[2]], []}, output: {[Tensor[2]], []}}"
GATEWAY_KWARGS = dict(
    placement="partition", n_gpus=4, min_examples=10, seed=0
)
#: The supervisor's monitor tick: how stale cluster.json may get.  A
#: dead writer wakes the monitor at once (it waits on the process
#: sentinel), so the failover time does not include a tick.
HEARTBEAT = 0.25


def _caught_up(state_dir):
    """Is every standby following at the writer's applied seq?"""
    members = read_cluster(state_dir)["members"]
    writer = next(m for m in members if m["role"] == "writer")
    return all(
        m.get("following") and m.get("applied_seq") == writer.get("applied_seq")
        for m in members
        if m["role"] == "standby"
    )


def run_failover(state_dir):
    """SIGKILL the writer; seconds until a write is acked again."""
    plane = ServingPlane(
        state_dir,
        replicas=1,
        tenants=["bench"],
        sync="buffered",
        gateway_kwargs=dict(GATEWAY_KWARGS),
        heartbeat_interval=HEARTBEAT,
    )
    plane.start()
    try:
        client = EaseMLClient(plane.url, plane.tokens["bench"])
        client.register_app("bench-app", PROGRAM)
        X, y = make_task(TaskSpec("moons", 60, 0.3, seed=0))
        client.feed("bench-app", X.tolist(), [int(v) for v in y])
        deadline = time.monotonic() + 60
        while not _caught_up(state_dir):
            if time.monotonic() > deadline:
                raise RuntimeError("the standby never caught up")
            time.sleep(0.05)
        # cluster.json is rewritten on a monitor tick, so the loop above
        # ends in phase with it; a crash comes at any phase.
        time.sleep(random.uniform(0.0, HEARTBEAT))
        start = time.perf_counter()
        os.kill(read_cluster(state_dir)["writer_pid"], signal.SIGKILL)
        deadline = time.monotonic() + 120
        while True:
            try:
                client.register_app("post-failover", PROGRAM)
                break
            except (ConnectionError, OSError):
                if time.monotonic() > deadline:
                    raise RuntimeError("no write acked after the kill")
                time.sleep(0.01)
        to_write = time.perf_counter() - start
        promoted = plane.promotions
        client.close()
    finally:
        plane.stop()
    if promoted != 1:
        raise RuntimeError(f"expected one promotion, saw {promoted}")
    return to_write


def render(seconds):
    rows = [[i + 1, round(s, 3)] for i, s in enumerate(seconds)]
    rows.append(["median", round(statistics.median(seconds), 3)])
    return ascii_table(
        ["run", "kill to first write (s)"],
        rows,
        title=f"Writer SIGKILL to the first write acked on the same "
        f"port (1 standby; nproc={os.cpu_count()})",
    )


def test_replica_scaleout(once, tmp_path):
    """Pytest entry point: one failover."""
    seconds = [once(run_failover, tmp_path / "failover")]
    save_report("replica_scaleout", render(seconds))
    assert seconds[0] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="time one failover instead of seven")
    args = parser.parse_args(argv)
    runs = 1 if args.quick else 7
    state_root = Path(tempfile.mkdtemp(prefix="bench-replica-"))
    try:
        seconds = [
            run_failover(state_root / f"run-{i}") for i in range(runs)
        ]
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
    save_report("replica_scaleout", render(seconds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
