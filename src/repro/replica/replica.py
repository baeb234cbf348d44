"""ReadReplica: serve reads off a tailed WAL; promote on writer death.

A replica is recovery run *continuously*: it builds the same follower
gateway a cold start does (same config, same seeded RNG, same zoo
subset) via :func:`~repro.persist.recovery.build_follower_gateway`,
then applies journal records through
:func:`~repro.persist.recovery.replay_records` as the tailer surfaces
them.  Applying records never re-journals and replay-fired effects are
byte-verified against the writer's effect records — a replica that
diverges fails loudly instead of serving wrong answers.

:class:`ReplicaGateway` is the serving facade: it exposes the exact
duck type the HTTP frontend drives (``is_read`` / ``handle``;
``add_wait_abort``, ``metrics`` and the rest pass through), serves
every read route from the follower gateway, and answers mutations with
``NOT_WRITER`` carrying the writer's address so the SDK can re-issue
them there.  Reads beyond the configured staleness bound come back
``UNAVAILABLE_RECOVERING`` instead of silently stale.

:meth:`ReadReplica.promote` is a cold start that skips the part this
process already did: take the flock (the dead writer's OS-released
lock), follow the tail to its end, and hand the gateway to
:func:`~repro.persist.recovery.become_writer`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ApiError, ApiErrorCode
from repro.persist.journal import JournalError
from repro.persist.recovery import (
    IN_FLIGHT_POLICIES,
    become_writer,
    build_follower_gateway,
    replay_records,
)
from repro.persist.store import acquire_lock, read_config
from repro.replica.tailer import TailBatch, WalTailer
from repro.service.api import Request
from repro.service.http import REPLICA_LAG_HEADER

#: How often an idle replica re-checks the journal for new records.
DEFAULT_POLL_INTERVAL = 0.05


@dataclass
class PromotionReport:
    """What a promotion found and did; ``describe()`` renders it."""

    state_dir: str
    final_seq: int
    recovered: List[str] = field(default_factory=list)
    lost: List[str] = field(default_factory=list)
    drained_records: int = 0
    dropped_tail: int = 0
    duration_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"promoted replica to writer for {self.state_dir}\n"
            f"  final seq: {self.final_seq} "
            f"({self.drained_records} records drained, "
            f"{self.dropped_tail} torn tail dropped at promotion)\n"
            f"  job handles: {len(self.recovered)} requeued, "
            f"{len(self.lost)} lost\n"
            f"  took {self.duration_seconds * 1e3:.1f} ms"
        )


class ReadReplica:
    """One follower applying a writer's WAL into a live gateway.

    Parameters
    ----------
    state_dir:
        The *writer's* state directory (shared filesystem).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` the replica
        exports its staleness gauges into (and the follower gateway
        its request metrics).
    poll_interval:
        Idle sleep between journal polls, seconds.
    gateway_factory:
        Forwarded to recovery's gateway construction (tests and
        embedders that need a custom backend shape).
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        *,
        metrics=None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        gateway_factory=None,
    ) -> None:
        self.state_dir = Path(state_dir)
        config = read_config(self.state_dir)
        if config is None:
            raise JournalError(
                f"{self.state_dir} has no config.json — the writer "
                "must serve (and take its first request) before a "
                "replica can follow it"
            )
        self.config: Dict[str, Any] = config
        self.gateway = build_follower_gateway(
            config, metrics=metrics, gateway_factory=gateway_factory
        )
        self.tailer = WalTailer(self.state_dir)
        self.poll_interval = float(poll_interval)
        self.promoted = False
        self.applied_seq = 0
        self._target_seq = 0
        self._behind_since: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._bind_metrics(self.gateway.metrics)

    def _bind_metrics(self, registry) -> None:
        self._m_applied = registry.gauge(
            "replica_applied_seq",
            "Highest journal sequence number applied by this replica.",
        )
        self._m_lag_records = registry.gauge(
            "replica_lag_records",
            "Journal records observed on disk but not yet applied.",
        )
        self._m_lag_seconds = registry.gauge(
            "replica_lag_seconds",
            "Seconds this replica has been behind the observed tail "
            "(0 when caught up).",
        )
        self._m_is_writer = registry.gauge(
            "replica_is_writer",
            "1 once this process promoted itself to writer, else 0.",
        )
        self._m_is_writer.set(0.0)

    # ------------------------------------------------------------------
    # Staleness
    # ------------------------------------------------------------------
    @property
    def lag_records(self) -> int:
        """Records known to exist on disk but not yet applied here."""
        return max(0, self._target_seq - self.applied_seq)

    @property
    def lag_seconds(self) -> float:
        if self._behind_since is None:
            return 0.0
        return max(0.0, time.monotonic() - self._behind_since)

    def _publish_lag(self) -> None:
        lag = self.lag_records
        if lag <= 0:
            self._behind_since = None
        elif self._behind_since is None:
            self._behind_since = time.monotonic()
        self._m_applied.set(float(self.applied_seq))
        self._m_lag_records.set(float(lag))
        self._m_lag_seconds.set(self.lag_seconds)

    # ------------------------------------------------------------------
    # The tail loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Seed synchronously (caller returns caught-up), then follow."""
        self._apply(self.tailer.seed())
        self._publish_lag()
        self._thread = threading.Thread(
            target=self._run, name="wal-tailer", daemon=True
        )
        self._thread.start()

    def step(self) -> int:
        """One poll+apply cycle (tests and embedders); records applied."""
        batch = self.tailer.poll()
        n = len(batch.records)
        if batch:
            self._apply(batch)
        self._publish_lag()
        return n

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.is_set():
            if self.promoted:
                return
            # An uncaught exception here (corrupt directory, replay
            # divergence) kills the tail loop: the gauges freeze at
            # the last applied seq and lag grows — exactly the signal
            # the supervisor and the staleness bound act on.
            applied = self.step()
            if not applied:
                self._stop.wait(self.poll_interval)

    def _apply(self, batch: TailBatch) -> None:
        """Apply one batch through the recovery replay path."""
        if not batch.records:
            return
        self._target_seq = self.tailer.emitted_seq
        self._publish_lag()
        apply_started = time.perf_counter()
        with self.gateway._lock:
            replay_records(self.gateway, batch.records)
        apply_duration = time.perf_counter() - apply_started
        self._record_apply_spans(batch.records, apply_duration)
        self.applied_seq = batch.records[-1].seq
        self._publish_lag()

    def _record_apply_spans(
        self, records, duration: float
    ) -> None:
        """Join replica-side apply time to the writer's traces.

        Primary WAL records carry the ``request_id`` of the request
        that produced them (stamped by the gateway), and the tracer's
        ``trace_id`` *is* that id — so a replica apply span lands in
        this replica's ring under the same id the writer's trace
        kept, and a cross-process waterfall is one ring lookup per
        side.  The whole batch replays under one lock hold, so each
        joined record reports the batch duration with the batch size
        attached.
        """
        tracer = getattr(self.gateway, "tracer", None)
        if tracer is None or not tracer.enabled:
            return
        for record in records:
            request_id = record.payload.get("request_id")
            if not request_id:
                continue
            tracer.record_remote(
                str(request_id),
                "replica.apply",
                duration,
                seq=record.seq,
                type=record.type,
                batch=len(records),
            )

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------
    def promote(
        self,
        *,
        in_flight: str = "requeue",
        lock_timeout: float = 10.0,
    ) -> PromotionReport:
        """Take over the write path after the writer died.

        Acquires the directory's flock (retrying up to
        ``lock_timeout`` seconds — the kernel releases the dead
        writer's lock, but not instantly), stops the tail thread,
        follows the remaining tail to its end — shedding a torn final
        line, which only the lock holder may — and becomes the writer:
        crash recovery from this replica's frontier instead of from
        offset zero.
        """
        if in_flight not in IN_FLIGHT_POLICIES:
            raise ValueError(
                f"in_flight must be one of {IN_FLIGHT_POLICIES}, "
                f"got {in_flight!r}"
            )
        if self.promoted:
            raise RuntimeError("this replica already promoted itself")
        started = time.perf_counter()
        deadline = time.monotonic() + float(lock_timeout)
        while True:
            try:
                lock_handle = acquire_lock(self.state_dir)
                break
            except JournalError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        try:
            # Stop the background tail loop before mutating shared
            # state (promote may be called from any thread).
            self._stop.set()
            if (
                self._thread is not None
                and self._thread is not threading.current_thread()
            ):
                self._thread.join(timeout=5.0)
            with self.gateway._lock:
                # The writer is dead and we hold its lock, so the
                # journal is no longer moving: one poll reaches its end.
                batch = self.tailer.poll(shed_torn_tail=True)
                self._apply(batch)
                final_seq, recovered, lost = become_writer(
                    self.gateway,
                    self.state_dir,
                    self.config,
                    lock_handle,
                    seq=self.applied_seq,
                    checkpoint_seq=self.tailer.checkpoint_seq,
                    in_flight=in_flight,
                )
        except BaseException:
            lock_handle.close()
            raise
        self.promoted = True
        self._m_is_writer.set(1.0)
        self._publish_lag()
        return PromotionReport(
            state_dir=str(self.state_dir),
            final_seq=final_seq,
            recovered=recovered,
            lost=lost,
            drained_records=len(batch.records),
            dropped_tail=batch.dropped,
            duration_seconds=time.perf_counter() - started,
        )


class ReplicaGateway:
    """The serving facade the frontend drives instead of a ServiceGateway.

    Reads flow to the follower gateway (subject to the staleness
    bound); mutations come back ``NOT_WRITER`` with the writer's
    address in the error details.  After :meth:`ReadReplica.promote`
    the facade becomes transparent — every request flows through to
    the (now writing) gateway.
    """

    def __init__(
        self,
        replica: ReadReplica,
        *,
        max_lag_records: Optional[int] = None,
        writer_url: Optional[str] = None,
    ) -> None:
        self.replica = replica
        self.max_lag_records = (
            None if max_lag_records is None else int(max_lag_records)
        )
        self.writer_url = writer_url

    # -- staleness contract -------------------------------------------
    def extra_response_headers(self) -> Dict[str, str]:
        """Stamped on every HTTP response by the frontend."""
        return {REPLICA_LAG_HEADER: str(self.replica.lag_records)}

    def _check_staleness(self) -> None:
        lag = self.replica.lag_records
        if (
            self.max_lag_records is not None
            and lag > self.max_lag_records
        ):
            raise ApiError(
                ApiErrorCode.UNAVAILABLE_RECOVERING,
                f"replica is {lag} records behind the writer "
                f"(bound: {self.max_lag_records}); retry here "
                "shortly or read from the writer",
                replica_lag_records=lag,
                writer_url=self.writer_url,
            )

    def _not_writer(self) -> ApiError:
        return ApiError(
            ApiErrorCode.NOT_WRITER,
            "this endpoint is a read replica; send mutations to the "
            "writer",
            writer_url=self.writer_url,
            replica_lag_records=self.replica.lag_records,
        )

    # -- the frontend duck type ---------------------------------------
    def is_read(self, request) -> bool:
        return self.replica.gateway.is_read(request)

    def handle(self, request, *, may_block: bool = True):
        gateway = self.replica.gateway
        if self.replica.promoted:
            return gateway.handle(request, may_block=may_block)
        if not isinstance(request, Request):
            return gateway.handle(request)  # proper INVALID_ARGUMENT
        if gateway.is_read(request):
            self._check_staleness()
            return gateway.handle(request)
        raise self._not_writer()

    def __getattr__(self, name: str) -> Any:
        # Everything else (metrics, add_wait_abort, tracing
        # attributes) behaves exactly like the underlying gateway.
        return getattr(self.replica.gateway, name)
