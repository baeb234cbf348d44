"""ServingPlane: one writer + N read replicas as supervised processes.

The supervisor owns the cluster topology:

* the **writer** child runs ``open_gateway`` (taking the state
  directory's flock) and serves the full API on its direct port;
* each **replica** child runs a :class:`~repro.replica.ReadReplica`
  behind a :class:`~repro.replica.ReplicaGateway` facade on its own
  direct port;
* every member *additionally* binds the shared **front port** with
  ``SO_REUSEPORT`` — the kernel spreads incoming connections across
  the live members, replicas absorb the read load, and mutations that
  land on a replica bounce to the writer via the ``NOT_WRITER``
  redirect the SDK follows automatically.  A platform without
  ``SO_REUSEPORT`` cannot run a plane (:class:`ServingPlane` refuses
  to start); plain ``repro serve`` is the single-process alternative.

Liveness is heartbeat-over-pipe plus ``Process.is_alive``.  When the
writer dies, the monitor elects the replica with the highest applied
sequence, sends it ``promote`` (it takes the flock the kernel just
released, drains the tail, and starts journaling), points the other
replicas' redirects at the new writer, and rewrites ``cluster.json`` —
the on-disk topology document ``repro replica status`` reads.

Port layout (``port`` = the front port): writer direct = ``port+1``,
replica *i* direct = ``port+2+i``.
"""

from __future__ import annotations

import json
import os
import socket
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

#: Seconds the monitor waits for an elected replica to finish
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


def free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral port that was free a moment ago (tests/CLI)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# Child process entry points (module-level: must survive pickling
# under the spawn start method)
# ----------------------------------------------------------------------
def _writer_main(
    conn,
    state_dir: str,
    host: str,
    front_port: int,
    direct_port: int,
    tenants: List[str],
    service: Dict[str, Any],
) -> None:
    from repro.obs import MetricsRegistry
    from repro.persist import open_gateway
    from repro.service.http import serve_background

    try:
        gateway, report = open_gateway(
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
        direct, _ = serve_background(gateway, host, direct_port)
        serve_background(gateway, host, front_port, reuse_port=True)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        conn.send({"event": "failed", "error": f"{exc}"})
        raise
    conn.send(
        {
            "event": "ready",
            "role": "writer",
            "pid": os.getpid(),
            "url": direct.url,
            "tokens": tokens,
            "recovered": report is not None,
        }
    )
    _child_loop(
        conn,
        heartbeat=lambda: {
            "role": "writer",
            "seq": gateway.store.last_seq if gateway.store else 0,
        },
    )


def _replica_main(
    conn,
    state_dir: str,
    host: str,
    front_port: int,
    direct_port: int,
    writer_url: str,
    max_lag_records: Optional[int],
    in_flight: str,
) -> None:
    from repro.replica.replica import ReadReplica, ReplicaGateway
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
        facade = ReplicaGateway(
            replica,
            max_lag_records=max_lag_records,
            writer_url=writer_url,
        )
        direct, _ = serve_background(facade, host, direct_port)
        serve_background(facade, host, front_port, reuse_port=True)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        conn.send({"event": "failed", "error": f"{exc}"})
        raise
    conn.send(
        {
            "event": "ready",
            "role": "replica",
            "pid": os.getpid(),
            "url": direct.url,
        }
    )

    def handle(msg: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        if msg.get("cmd") == "promote":
            report = replica.promote(
                in_flight=msg.get("in_flight", in_flight)
            )
            facade.writer_url = direct.url
            return {
                "event": "promoted",
                "url": direct.url,
                "pid": os.getpid(),
                "final_seq": report.final_seq,
                "recovered": report.recovered,
                "lost": report.lost,
                "duration_seconds": report.duration_seconds,
            }
        if msg.get("cmd") == "writer_changed":
            facade.writer_url = msg.get("writer_url")
            return None
        return None

    _child_loop(
        conn,
        heartbeat=lambda: {
            "role": "replica",
            "applied_seq": replica.applied_seq,
            "lag_records": replica.lag_records,
            "promoted": replica.promoted,
        },
        handle=handle,
    )


def _child_loop(conn, *, heartbeat, handle=None, interval=0.5) -> None:
    """Heartbeat until the parent says shutdown (or disappears)."""
    while True:
        try:
            if conn.poll(interval):
                msg = conn.recv()
                if not isinstance(msg, dict) or msg.get("cmd") == "shutdown":
                    return
                if handle is not None:
                    reply = handle(msg)
                    if reply is not None:
                        conn.send(reply)
            else:
                beat = {"event": "heartbeat"}
                beat.update(heartbeat())
                conn.send(beat)
        except (EOFError, BrokenPipeError, OSError):
            return  # the supervisor died; daemon servers die with us


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
@dataclass
class _Member:
    name: str
    role: str  # "writer" | "replica"
    process: Any = None
    conn: Any = None
    url: str = ""
    pid: int = 0
    applied_seq: int = 0
    promoted: bool = False
    last_seen: float = field(default_factory=time.monotonic)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ServingPlane:
    """Supervise one writer plus N replicas over a shared front port."""

    def __init__(
        self,
        state_dir: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 1,
        max_lag_records: Optional[int] = None,
        tenants: Optional[List[str]] = None,
        sync: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        in_flight: str = "requeue",
        gateway_kwargs: Optional[Dict[str, Any]] = None,
        heartbeat_interval: float = 0.5,
        auto_promote: bool = True,
        mp_start_method: str = "spawn",
    ) -> None:
        from repro.service.http import supports_reuse_port

        if not supports_reuse_port():
            # Also the one platform where persist.store.acquire_lock
            # takes no flock, i.e. where promotion has no single-writer
            # arbitration: a plane was never safe there.
            raise RuntimeError(
                "the serving plane needs SO_REUSEPORT (every member "
                "binds the shared front port) and this platform has "
                "none; run a single process with plain `repro serve`"
            )
        if int(replicas) < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        self.state_dir = Path(state_dir)
        self.host = host
        self.front_port = int(port) if int(port) else free_port(host)
        self.n_replicas = int(replicas)
        self.max_lag_records = max_lag_records
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
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- addresses -----------------------------------------------------
    @property
    def front_url(self) -> str:
        return f"http://{self.host}:{self.front_port}"

    @property
    def writer_url(self) -> Optional[str]:
        return self.writer.url if self.writer else None

    def replica_urls(self) -> List[str]:
        return [
            m.url
            for m in self.members
            if m.role == "replica" and not m.promoted and m.alive
        ]

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context(self._mp_start_method)
        writer = _Member(name="writer", role="writer")
        parent, child = ctx.Pipe()
        writer.conn = parent
        writer.process = ctx.Process(
            target=_writer_main,
            name="easeml-writer",
            args=(
                child,
                str(self.state_dir),
                self.host,
                self.front_port,
                self.front_port + 1,
                self.tenants,
                self.service,
            ),
            daemon=False,
        )
        writer.process.start()
        child.close()
        ready = self._await(writer, "ready", READY_TIMEOUT)
        writer.url = ready["url"]
        writer.pid = ready["pid"]
        self.tokens = dict(ready["tokens"])
        self.writer = writer
        self.members.append(writer)

        for i in range(self.n_replicas):
            member = _Member(name=f"replica-{i}", role="replica")
            parent, child = ctx.Pipe()
            member.conn = parent
            member.process = ctx.Process(
                target=_replica_main,
                name=f"easeml-{member.name}",
                args=(
                    child,
                    str(self.state_dir),
                    self.host,
                    self.front_port,
                    self.front_port + 2 + i,
                    writer.url,
                    self.max_lag_records,
                    self.in_flight,
                ),
                daemon=False,
            )
            member.process.start()
            child.close()
            ready = self._await(member, "ready", READY_TIMEOUT)
            member.url = ready["url"]
            member.pid = ready["pid"]
            self.members.append(member)

        self._write_topology()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="plane-monitor", daemon=True
        )
        self._monitor.start()

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
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
        member.last_seen = time.monotonic()
        if "applied_seq" in msg:
            member.applied_seq = int(msg["applied_seq"])
        if "seq" in msg:
            member.applied_seq = int(msg["seq"])
        if msg.get("promoted"):
            member.promoted = True

    def _write_topology(self) -> None:
        _write_cluster(
            self.state_dir,
            {
                "front_url": self.front_url,
                "writer_url": self.writer_url,
                "writer_pid": self.writer.pid if self.writer else 0,
                "promotions": self.promotions,
                "members": [
                    {
                        "name": m.name,
                        "role": (
                            "writer"
                            if m is self.writer or m.promoted
                            else m.role
                        ),
                        "url": m.url,
                        "pid": m.pid,
                        "alive": m.alive,
                    }
                    for m in self.members
                ],
            },
        )

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            for member in self.members:
                while member.conn is not None and member.conn.poll():
                    try:
                        msg = member.conn.recv()
                    except (EOFError, OSError):
                        break
                    if isinstance(msg, dict):
                        self._note(member, msg)
            writer = self.writer
            if (
                writer is not None
                and not writer.alive
                and self.auto_promote
            ):
                self._promote_best()

    def _promote_best(self) -> None:
        with self._lock:
            dead = self.writer
            candidates = sorted(
                (
                    m
                    for m in self.members
                    if m.role == "replica" and m.alive and not m.promoted
                ),
                key=lambda m: m.applied_seq,
                reverse=True,
            )
            promoted = None
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
                candidate.promoted = True
                candidate.url = reply.get("url", candidate.url)
                promoted = candidate
                break
            if promoted is None:
                return  # nothing left to promote; keep watching
            self.writer = promoted
            self.promotions += 1
            if dead is not None and dead in self.members:
                self.members.remove(dead)
            for member in self.members:
                if member.role == "replica" and member is not promoted:
                    try:
                        member.conn.send(
                            {
                                "cmd": "writer_changed",
                                "writer_url": promoted.url,
                            }
                        )
                    except (BrokenPipeError, OSError):
                        pass
            self._write_topology()
