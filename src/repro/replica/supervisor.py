"""ServingPlane: one writer + N standbys as supervised processes.

The supervisor owns the cluster topology:

* the **writer** child runs ``open_gateway`` (taking the state
  directory's flock) and serves the full API on the plane's one port
  (``port=0`` binds an ephemeral port, which the writer reports);
* each **standby** child runs a :class:`~repro.replica.ReadReplica`
  that follows the journal and binds no socket.

Liveness is heartbeat-over-pipe plus ``Process.is_alive``.  When the
writer dies, the monitor elects a standby — following ones first, then
the highest applied sequence — and sends it ``promote``: it takes the
flock the kernel just released, drains the tail, starts journaling and
binds the plane's port, which the dead writer's socket no longer
holds.  The flock is the only single-writer arbitration, so a platform
without ``flock`` cannot run a plane (:class:`ServingPlane` refuses to
start); plain ``repro serve`` is the single-process alternative.

``cluster.json`` is the on-disk topology document ``repro replica
status`` reads: the plane's address, the promotion count and each
member's last heartbeat, rewritten (by atomic rename) only when a
value in it changed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.persist.journal import canonical_json
from repro.persist.store import has_state

CLUSTER_NAME = "cluster.json"

#: Seconds a child gets to come up before the supervisor gives up on
#: it (cold numpy imports on a loaded box take a while).
READY_TIMEOUT = 120.0

#: Seconds the monitor waits for an elected standby to finish
#: promotion before trying the next one.
PROMOTE_TIMEOUT = 60.0


def read_cluster(
    state_dir: Union[str, Path]
) -> Optional[Dict[str, Any]]:
    """The topology document the supervisor maintains, or None."""
    path = Path(state_dir) / CLUSTER_NAME
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def _write_cluster(
    state_dir: Union[str, Path], document: Dict[str, Any]
) -> None:
    path = Path(state_dir) / CLUSTER_NAME
    tmp = path.with_suffix(".tmp")
    tmp.write_text(canonical_json(document) + "\n", encoding="utf-8")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Child process entry points (module-level: must survive pickling
# under the spawn start method)
# ----------------------------------------------------------------------
def _writer_beat(gateway) -> Dict[str, Any]:
    return {"applied_seq": gateway.store.last_seq if gateway.store else 0}


def _standby_beat(replica) -> Dict[str, Any]:
    if replica.promoted:
        return _writer_beat(replica.gateway)
    error = replica.error
    return {
        "applied_seq": replica.applied_seq,
        "lag_records": replica.lag_records,
        "following": replica.following,
        "error": None if error is None else f"{type(error).__name__}: {error}",
    }


def _writer_main(
    conn,
    state_dir: str,
    host: str,
    port: int,
    tenants: List[str],
    service: Dict[str, Any],
) -> None:
    from repro.obs import MetricsRegistry
    from repro.persist import open_gateway
    from repro.service.http import serve_background

    try:
        gateway, _ = open_gateway(
            state_dir,
            sync=service.get("sync"),
            snapshot_every=service.get("snapshot_every"),
            in_flight=service.get("in_flight", "requeue"),
            metrics=MetricsRegistry(),
            **service.get("gateway_kwargs", {}),
        )
        existing = set(gateway.tenant_names())
        for name in tenants:
            if name not in existing:
                gateway.create_tenant(name)
        tokens = {
            name: gateway.tenant_token(name)
            for name in gateway.tenant_names()
        }
        server, _ = serve_background(gateway, host, port)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        conn.send({"event": "failed", "error": f"{exc}"})
        raise
    conn.send(
        {
            "event": "ready",
            "pid": os.getpid(),
            "port": server.port,
            "tokens": tokens,
        }
    )
    _child_loop(conn, heartbeat=lambda: _writer_beat(gateway))


def _standby_main(
    conn,
    state_dir: str,
    host: str,
    port: int,
    in_flight: str,
) -> None:
    from repro.replica.replica import ReadReplica
    from repro.service.http import serve_background

    try:
        # The writer creates config.json at startup, but this child
        # may win the race to it.
        deadline = time.monotonic() + READY_TIMEOUT
        while not has_state(state_dir):
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{state_dir} never grew a config.json — is the "
                    "writer running?"
                )
            time.sleep(0.05)
        replica = ReadReplica(state_dir)
        replica.start()
    except BaseException as exc:  # noqa: BLE001 - report, then die
        conn.send({"event": "failed", "error": f"{exc}"})
        raise
    conn.send({"event": "ready", "pid": os.getpid()})

    def promote(msg: Dict[str, Any]) -> Dict[str, Any]:
        # A failure here (lock timeout, port taken) ends this process,
        # which releases the flock; the monitor tries the next standby.
        report = replica.promote(in_flight=msg.get("in_flight", in_flight))
        serve_background(replica.gateway, host, port)
        return {
            "event": "promoted",
            "pid": os.getpid(),
            "final_seq": report.final_seq,
            "recovered": report.recovered,
            "lost": report.lost,
            "duration_seconds": report.duration_seconds,
        }

    _child_loop(
        conn, heartbeat=lambda: _standby_beat(replica), promote=promote
    )


def _child_loop(conn, *, heartbeat, promote=None, interval=0.5) -> None:
    """Heartbeat until the parent says shutdown (or disappears)."""
    while True:
        try:
            if not conn.poll(interval):
                conn.send({"event": "heartbeat", **heartbeat()})
                continue
            msg = conn.recv()
        except (EOFError, BrokenPipeError, OSError):
            return  # the supervisor died; daemon servers die with us
        if not isinstance(msg, dict) or msg.get("cmd") == "shutdown":
            return
        if promote is not None and msg.get("cmd") == "promote":
            conn.send(promote(msg))


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
@dataclass
class _Member:
    name: str
    role: str  # "writer" | "standby"
    process: Any = None
    conn: Any = None
    pid: int = 0
    #: The last heartbeat's values (``applied_seq``; a standby adds
    #: ``lag_records``, ``following`` and ``error``).
    health: Dict[str, Any] = field(default_factory=dict)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ServingPlane:
    """Supervise one writer plus N standbys behind one port."""

    def __init__(
        self,
        state_dir: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 1,
        tenants: Optional[List[str]] = None,
        sync: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        in_flight: str = "requeue",
        gateway_kwargs: Optional[Dict[str, Any]] = None,
        heartbeat_interval: float = 0.5,
        auto_promote: bool = True,
        mp_start_method: str = "spawn",
    ) -> None:
        try:
            import fcntl  # noqa: F401 - the single-writer arbiter
        except ImportError:
            # persist.store.acquire_lock takes no lock without fcntl:
            # two members could both promote themselves to writer.
            raise RuntimeError(
                "the serving plane needs flock (promotion takes the "
                "state directory's lock to be its only writer) and "
                "this platform has none; run a single process with "
                "plain `repro serve`"
            ) from None
        if int(replicas) < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        self.state_dir = Path(state_dir)
        self.host = host
        self.port = int(port)
        self.n_replicas = int(replicas)
        self.tenants = list(tenants or ["default"])
        self.service = {
            "sync": sync,
            "snapshot_every": snapshot_every,
            "in_flight": in_flight,
            "gateway_kwargs": dict(gateway_kwargs or {}),
        }
        self.in_flight = in_flight
        self.heartbeat_interval = float(heartbeat_interval)
        self.auto_promote = bool(auto_promote)
        self._mp_start_method = mp_start_method
        self.tokens: Dict[str, str] = {}
        self.members: List[_Member] = []
        self.writer: Optional[_Member] = None
        self.promotions = 0
        self._published: Optional[Dict[str, Any]] = None
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        """The plane's one address: whichever member is the writer."""
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context(self._mp_start_method)

        def spawn(member: _Member, target, *args) -> Dict[str, Any]:
            parent, child = ctx.Pipe()
            member.conn = parent
            member.process = ctx.Process(
                target=target,
                name=f"easeml-{member.name}",
                args=(child, str(self.state_dir), self.host) + args,
                daemon=False,
            )
            member.process.start()
            child.close()
            self.members.append(member)  # stop() reaps it either way
            ready = self._await(member, "ready", READY_TIMEOUT)
            member.pid = ready["pid"]
            return ready

        writer = _Member(name="writer", role="writer")
        ready = spawn(
            writer, _writer_main, self.port, self.tenants, self.service
        )
        self.port = ready["port"]
        self.tokens = dict(ready["tokens"])
        self.writer = writer
        for i in range(self.n_replicas):
            spawn(
                _Member(name=f"standby-{i}", role="standby"),
                _standby_main,
                self.port,
                self.in_flight,
            )
        self._publish()
        self._start_monitor()

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._wake_send.send(None)
            self._monitor.join(timeout=5.0)
            if not self._monitor.is_alive():
                # A monitor still inside a promotion may yet reach its
                # wait; leave the pipe open for it to the collector.
                self._wake_recv.close()
                self._wake_send.close()
            self._monitor = None
        for member in self.members:
            if member.conn is not None:
                try:
                    member.conn.send({"cmd": "shutdown"})
                except (BrokenPipeError, OSError):
                    pass
        for member in self.members:
            if member.process is not None:
                member.process.join(timeout=5.0)
                if member.process.is_alive():
                    member.process.terminate()
                    member.process.join(timeout=5.0)

    # -- internals -----------------------------------------------------
    def _await(
        self, member: _Member, event: str, timeout: float
    ) -> Dict[str, Any]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not member.alive and not member.conn.poll():
                break
            if member.conn.poll(0.1):
                try:
                    msg = member.conn.recv()
                except (EOFError, OSError):
                    break
                if not isinstance(msg, dict):
                    continue
                if msg.get("event") == "failed":
                    raise RuntimeError(
                        f"{member.name} failed to start: {msg.get('error')}"
                    )
                if msg.get("event") == event:
                    return msg
                self._note(member, msg)
        raise RuntimeError(
            f"{member.name} did not report {event!r} within {timeout}s"
        )

    def _note(self, member: _Member, msg: Dict[str, Any]) -> None:
        if msg.get("event") == "heartbeat":
            member.health = {
                k: v for k, v in msg.items() if k != "event"
            }

    def _publish(self) -> None:
        """Rewrite cluster.json if anything in it changed."""
        document = {
            "url": self.url,
            "writer_pid": self.writer.pid if self.writer else 0,
            "promotions": self.promotions,
            "members": [
                {
                    "name": m.name,
                    "role": m.role,
                    "pid": m.pid,
                    "alive": m.alive,
                    **m.health,
                }
                for m in self.members
            ],
        }
        if document != self._published:
            _write_cluster(self.state_dir, document)
            self._published = document

    def _start_monitor(self) -> None:
        from multiprocessing import Pipe

        self._wake_recv, self._wake_send = Pipe(duplex=False)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="plane-monitor", daemon=True
        )
        self._monitor.start()

    def _monitor_loop(self) -> None:
        """Drain heartbeats, promote when the writer dies, publish.

        Between rounds the loop waits, for at most
        ``heartbeat_interval``, on the stop pipe, every live member's
        pipe and the writer's process sentinel: a writer's death wakes
        it when it happens, not at the next tick.  A dead writer no
        standby could replace is left out of the wait (its sentinel,
        ready for good, would spin the loop) and retried each tick.
        """
        from multiprocessing.connection import wait

        while not self._stop.is_set():
            for member in self.members:
                while member.conn is not None and member.conn.poll():
                    try:
                        msg = member.conn.recv()
                    except (EOFError, OSError):
                        break
                    if isinstance(msg, dict):
                        self._note(member, msg)
            writer = self.writer
            stuck = False
            if writer is not None and not writer.alive:
                if self.auto_promote:
                    self._promote_best()
                stuck = self.writer is writer
            self._publish()
            if self._stop.is_set():
                break
            waitables = [self._wake_recv] + [
                member.conn for member in self.members if member.alive
            ]
            writer = self.writer
            sentinel = None
            if writer is not None and writer.process is not None and not stuck:
                sentinel = writer.process.sentinel
                waitables.append(sentinel)
            if sentinel in wait(waitables, timeout=self.heartbeat_interval):
                # Exited, maybe not yet reapable: reap it, so the next
                # round sees it dead instead of spinning.
                writer.process.join(timeout=1.0)

    def _promote_best(self) -> None:
        with self._lock:
            dead = self.writer
            candidates = sorted(
                (m for m in self.members if m.role == "standby" and m.alive),
                key=lambda m: (
                    bool(m.health.get("following")),
                    m.health.get("applied_seq", 0),
                ),
                reverse=True,
            )
            for candidate in candidates:
                try:
                    candidate.conn.send(
                        {"cmd": "promote", "in_flight": self.in_flight}
                    )
                    reply = self._await(
                        candidate, "promoted", PROMOTE_TIMEOUT
                    )
                except (RuntimeError, BrokenPipeError, OSError):
                    continue
                break
            else:
                return  # nothing left to promote; keep watching
            candidate.role = "writer"
            candidate.health = {"applied_seq": reply["final_seq"]}
            self.writer = candidate
            self.promotions += 1
            if dead is not None and dead in self.members:
                self.members.remove(dead)
            self._publish()
