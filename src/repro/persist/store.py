"""StateStore: one state directory = config + one append-only journal.

The store owns the on-disk layout::

    <state_dir>/
        config.json            backend shape (placement, seed, zoo, ...)
        journal.jsonl          every record since seq 1, never rewritten

and the checkpoint cadence: every ``snapshot_every`` appended records —
checked only at operation-group boundaries, so a checkpoint never
splits a primary record from its effect records — a ``checkpoint``
record carrying a digest of the live gateway state is appended to the
journal.  That is all a "snapshot" is: one constant-size record, so the
write path costs the same at record 10 and at record 10 million, and
the store keeps nothing per record in memory.

The config document pins everything recovery needs to rebuild an
identical backend: replaying the journal against a differently-shaped
server (another seed, pool size, or zoo) would diverge immediately, so
``repro serve --state-dir`` always honours the stored config over its
command-line flags when recovering.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs.metrics import NULL_REGISTRY
from repro.persist.journal import (
    CHECKPOINT,
    JOURNAL_NAME,
    Journal,
    JournalError,
    JournalRecord,
    SYNC_MODES,
    canonical_json,
)

CONFIG_NAME = "config.json"

#: Token-file permissions: the journal carries tenant auth tokens.
_PRIVATE_MODE = 0o600


def write_config(state_dir: Union[str, Path], config: Dict[str, Any]) -> Path:
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / CONFIG_NAME
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(config) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_config(state_dir: Union[str, Path]) -> Optional[Dict[str, Any]]:
    path = Path(state_dir) / CONFIG_NAME
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:
        raise JournalError(
            f"cannot read {path}: {exc}; the state directory is "
            "damaged — restore config.json or start a fresh directory"
        ) from None
    if not isinstance(config, dict):
        raise JournalError(f"{path} is not a config document")
    return config


def has_state(state_dir: Union[str, Path]) -> bool:
    """Does this directory hold a durable control plane to recover?"""
    return (Path(state_dir) / CONFIG_NAME).exists()


def refuse_legacy_layout(state_dir: Union[str, Path]) -> None:
    """Refuse a directory written by the snapshot-file format.

    That format truncated ``journal.jsonl`` past every
    ``snapshot-<seq>.json``, so its journal alone is not the history;
    replaying it would silently rebuild the wrong state.
    """
    legacy = sorted(Path(state_dir).glob("snapshot-*.json"))
    if legacy:
        raise JournalError(
            f"{state_dir} holds {legacy[-1].name}: it was written by "
            "the snapshot-file format (journal truncated past each "
            "snapshot), which this build does not read — start a "
            "fresh state directory"
        )


def acquire_lock(state_dir: Union[str, Path]):
    """Take the directory's exclusive single-writer lock.

    Returns the open lock handle (closing it releases the lock).
    Raises :class:`JournalError` when another process holds it.
    """
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    handle = open(state_dir / "lock", "a+")
    try:
        import fcntl

        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except ImportError:  # pragma: no cover - non-posix fallback
        pass
    except OSError:
        handle.close()
        raise JournalError(
            f"state directory {state_dir} is locked by another "
            "process (a running `repro serve`?); exactly one writer "
            "may own a journal"
        ) from None
    return handle


class StateStore:
    """The gateway's handle on its durable state directory.

    Parameters
    ----------
    state_dir:
        Directory to own (created if missing).
    sync:
        Journal durability mode (``"fsync"``, ``"buffered"``, or
        ``"group"`` — deferred fsync shared per commit convoy).
    snapshot_every:
        Append a checkpoint after this many records.  ``0`` disables
        automatic checkpoints — ``repro state compact`` still appends
        manual ones.
    start_seq:
        Sequence number the journal continues from.
    checkpoint_seq:
        Sequence number of the newest checkpoint already in the
        journal (0 when there is none).
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        *,
        sync: str = "fsync",
        snapshot_every: int = 256,
        start_seq: int = 0,
        checkpoint_seq: int = 0,
        lock_handle=None,
    ) -> None:
        if sync not in SYNC_MODES:
            raise ValueError(
                f"sync must be one of {SYNC_MODES}, got {sync!r}"
            )
        if int(snapshot_every) < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.snapshot_every = int(snapshot_every)
        self.checkpoint_seq = int(checkpoint_seq)
        # Single-writer guard: two processes appending to one journal
        # interleave sequence numbers and corrupt the directory beyond
        # recovery, so the second opener must fail fast (this also
        # stops `repro state compact` against a live server).  A
        # caller that already locked the directory (recovery locks
        # before it reads) hands its handle over.
        self._lock_handle = (
            lock_handle
            if lock_handle is not None
            else acquire_lock(self.state_dir)
        )
        self.journal = Journal(
            self.journal_path, sync=sync, start_seq=start_seq
        )
        self.bind_metrics(NULL_REGISTRY)
        try:  # best-effort: tokens live in this file
            os.chmod(self.journal_path, _PRIVATE_MODE)
        except OSError:  # pragma: no cover - permissions are advisory
            pass

    def bind_metrics(self, registry) -> None:
        """Report journal/checkpoint activity into ``registry``.

        The gateway calls this from ``attach_store``.
        """
        self.journal.bind_metrics(registry)
        self._m_snapshots = registry.counter(
            "journal_snapshots_total",
            "Checkpoints appended (automatic cadence plus manual "
            "`state compact` runs).",
        )
        self._m_snapshot_seconds = registry.histogram(
            "journal_snapshot_seconds",
            "Latency of appending one checkpoint record.",
        )

    @property
    def journal_path(self) -> Path:
        return self.state_dir / JOURNAL_NAME

    @property
    def last_seq(self) -> int:
        return self.journal.last_seq

    def append(self, rtype: str, payload: Dict[str, Any]) -> JournalRecord:
        return self.journal.append(rtype, payload)

    def commit(self) -> None:
        """Group-commit barrier (see :meth:`Journal.commit`).

        The gateway runs this outside its lock before acking a
        mutation; a no-op unless the store was opened with
        ``sync="group"``.
        """
        self.journal.commit()

    @property
    def records_since_checkpoint(self) -> int:
        return self.last_seq - self.checkpoint_seq

    def due_for_snapshot(self) -> bool:
        return (
            self.snapshot_every > 0
            and self.records_since_checkpoint >= self.snapshot_every
        )

    def snapshot(self, state_digest: str) -> JournalRecord:
        """Append a checkpoint: the digest of the state so far.

        O(1) whatever the history: one journal record, riding the
        journal's own fsync / group-commit discipline — so the mark
        can never be durable ahead of the records it covers, and
        tailing replicas see it in order like any other record.
        """
        started = time.perf_counter()
        record = self.journal.append(
            CHECKPOINT, {"state_digest": state_digest}
        )
        self.checkpoint_seq = record.seq
        self._m_snapshots.inc()
        self._m_snapshot_seconds.observe(time.perf_counter() - started)
        return record

    def close(self) -> None:
        self.journal.close()
        if self._lock_handle is not None:
            self._lock_handle.close()  # releases the flock
            self._lock_handle = None
