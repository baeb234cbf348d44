"""ReadReplica: a standby that follows a writer's WAL; promote on death.

A replica is recovery run *continuously*: it builds the same follower
gateway a cold start does (same config, same seeded RNG, same zoo
subset) via :func:`~repro.persist.recovery.build_follower_gateway`,
then applies journal records through
:func:`~repro.persist.recovery.replay_records` as the tailer surfaces
them.  Applying records never re-journals and replay-fired effects are
byte-verified against the writer's effect records — a replica that
diverges stops following (and says why) instead of being promoted
with wrong state.  A replica serves no client traffic.

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

from repro.persist.journal import JournalError
from repro.persist.recovery import (
    IN_FLIGHT_POLICIES,
    become_writer,
    build_follower_gateway,
    replay_records,
)
from repro.persist.store import acquire_lock, read_config
from repro.replica.tailer import TailBatch, WalTailer

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
        The follower gateway's :class:`~repro.obs.metrics.MetricsRegistry`
        (default: a fresh one); it is the writer's after a promotion.
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
        #: The exception that ended the tail loop, if one did.
        self.error: Optional[BaseException] = None
        self._target_seq = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def lag_records(self) -> int:
        """Records known to exist on disk but not yet applied here."""
        return max(0, self._target_seq - self.applied_seq)

    @property
    def following(self) -> bool:
        """Is the tail loop running (neither stopped nor failed)?"""
        return (
            self.error is None
            and self._thread is not None
            and self._thread.is_alive()
        )

    # ------------------------------------------------------------------
    # The tail loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Seed synchronously (caller returns caught-up), then follow."""
        self._apply(self.tailer.seed())
        self._thread = threading.Thread(
            target=self._run, name="wal-tailer", daemon=True
        )
        self._thread.start()

    def step(self) -> int:
        """One poll+apply cycle (tests and embedders); records applied."""
        batch = self.tailer.poll()
        self._apply(batch)
        return len(batch.records)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        try:
            while not self._stop.is_set() and not self.promoted:
                if not self.step():
                    self._stop.wait(self.poll_interval)
        except Exception as exc:  # noqa: BLE001 - kept for the heartbeat
            # A corrupt directory or a replay divergence ends the loop:
            # applied_seq and lag_records freeze where they were, so
            # only ``following`` and ``error`` tell a dead standby
            # from a caught-up one.
            self.error = exc

    def _apply(self, batch: TailBatch) -> None:
        """Apply one batch through the recovery replay path."""
        if not batch.records:
            return
        self._target_seq = self.tailer.emitted_seq
        with self.gateway._lock:
            replay_records(self.gateway, batch.records)
        self.applied_seq = batch.records[-1].seq

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
        return PromotionReport(
            state_dir=str(self.state_dir),
            final_seq=final_seq,
            recovered=recovered,
            lost=lost,
            drained_records=len(batch.records),
            dropped_tail=batch.dropped,
            duration_seconds=time.perf_counter() - started,
        )
