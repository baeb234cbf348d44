"""The write-ahead journal: an append-only, checksummed JSONL log.

Every control-plane mutation the gateway performs lands here as one
:class:`JournalRecord` — a monotonically increasing sequence number, a
type from the *closed* :data:`RECORD_TYPES` registry, and a JSON-safe
payload — protected by a CRC32 over the record's canonical JSON form.
The file format is one JSON object per line::

    {"seq": 7, "type": "job_submitted", "payload": {...}, "crc": "9a1b2c3d"}

Durability discipline
---------------------
``sync="fsync"`` flushes *and* fsyncs after every append (a record is
on disk before the gateway acks the request — the WAL guarantee);
``sync="buffered"`` flushes to the OS after every append but leaves the
fsync to the kernel (a host crash may lose the tail, a process crash
does not); ``sync="group"`` flushes per append but defers the fsync to
the :meth:`Journal.commit` barrier the gateway runs before each ack —
the first committer in becomes the convoy leader and fsyncs once for
every record flushed so far, and committers whose records that flush
already covered return without touching the disk.  Group commit keeps
the full WAL guarantee (nothing is acked before a covering fsync)
while paying one fsync per *convoy* instead of one per record.  The
trade-offs are measured in ``benchmarks/bench_persist_overhead.py``.

Append-only for life
--------------------
The file is never rewritten, rotated or compacted: it starts at seq 1
and only grows, so a reader holding a byte offset (a replica's WAL
tailer) can trust that offset forever.  Every ``snapshot_every``
records the writer appends a ``checkpoint`` record carrying the
``state_digest`` of the state the records before it produce — a
constant-size mark replay *verifies* and never applies.  The one
in-place edit is shedding a torn tail (below), which only ever removes
bytes no reader consumed.

Crash tolerance on read
-----------------------
There is one reader, :func:`read_journal_from`, behind both the
whole-file :func:`read_journal` and a replica's incremental tailer,
and one torn-tail rule.  A *torn tail* is the final line when it is
incomplete (no newline yet) or not JSON (a block-level tear) — what a
process dying mid-write leaves behind; the request it belonged to was
never acked, so it is never a record.  What a reader does about it
depends on which side of the directory's flock it stands: the holder
(cold start, a promoting replica) sheds it in place so appends resume
after the last whole record; a reader without the lock (a live
follower, ``state inspect``) leaves it unconsumed, because it cannot
tell a dead writer's tear from a live writer's half-flushed line — and
refuses it the moment anything follows it.  Everything else — a bad
checksum, an out-of-order sequence number, an unknown record type,
damage before the final line — means the file was corrupted after the
fact, and every reader refuses it with a
:class:`JournalCorruptionError` naming the offending line.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import jsonify
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.tracing import add_span

#: File name of the live journal inside a state directory.
JOURNAL_NAME = "journal.jsonl"

#: The mark the writer appends every ``snapshot_every`` records at an
#: operation-group boundary: ``{"state_digest": ...}`` of the state
#: that replaying every record before it produces.  Replay verifies
#: it and never applies it.
CHECKPOINT = "checkpoint"

#: The closed registry of record types the journal accepts.  Primary
#: records are written by the gateway's mutating operations; *effect*
#: records (see :data:`EFFECT_TYPES`) describe deterministic
#: side-effects fired while a primary executed, and are verified —
#: not re-driven — during replay.
RECORD_TYPES = frozenset(
    {
        # Operator-side tenant lifecycle.
        "tenant_created",
        "tenant_retired",
        "token_rotated",
        "quota_changed",
        # App lifecycle through the request API.
        "app_registered",
        "app_closed",
        # Example-store mutations.
        "examples_fed",
        "example_toggled",
        # Async training.
        "job_submitted",
        "job_completed",
        "job_cancelled",
        # Scheduler-membership effects (emitted by the platform
        # server's admit/retire hooks).
        "app_admitted",
        "app_retired",
        CHECKPOINT,
    }
)

#: Record types that describe side-effects of a primary operation.
#: ``job_completed`` additionally appears at the top level when a job
#: poll advanced the simulated cluster, and ``job_cancelled`` when
#: recovery marked an in-flight job lost.
EFFECT_TYPES = frozenset(
    {"app_admitted", "app_retired", "job_completed", "job_cancelled"}
)

#: Journal sync modes (``"off"`` means "no journal at all" and is only
#: meaningful to the benchmark; a constructed Journal is never off).
#: ``"group"`` defers fsync to the :meth:`Journal.commit` ack barrier.
SYNC_MODES = ("fsync", "buffered", "group")


class JournalError(Exception):
    """Base class for persistence failures."""


class JournalCorruptionError(JournalError):
    """The journal file fails validation (checksum, order, registry)."""


def canonical_json(value: Any) -> str:
    """The one serialisation used for checksums and digests.

    Sorted keys and minimal separators make the byte form a pure
    function of the value, so equal records always hash equal.
    """
    return json.dumps(jsonify(value), sort_keys=True, separators=(",", ":"))


def record_checksum(seq: int, rtype: str, payload: Dict[str, Any]) -> str:
    """CRC32 (hex) over the record's canonical JSON form."""
    blob = canonical_json({"seq": seq, "type": rtype, "payload": payload})
    return f"{zlib.crc32(blob.encode('utf-8')) & 0xFFFFFFFF:08x}"


@dataclass(frozen=True)
class JournalRecord:
    """One journaled control-plane mutation."""

    seq: int
    type: str
    payload: Dict[str, Any]

    def __post_init__(self) -> None:
        if self.type not in RECORD_TYPES:
            raise JournalError(
                f"record type {self.type!r} is not in the closed "
                f"registry; known types: {sorted(RECORD_TYPES)}"
            )

    @property
    def crc(self) -> str:
        return record_checksum(self.seq, self.type, self.payload)

    def to_line(self) -> str:
        return canonical_json(
            {
                "seq": self.seq,
                "type": self.type,
                "payload": self.payload,
                "crc": self.crc,
            }
        )

    @classmethod
    def from_wire(cls, data: Dict[str, Any], *, line_no: int) -> "JournalRecord":
        try:
            seq = int(data["seq"])
            rtype = str(data["type"])
            payload = dict(data["payload"])
            crc = str(data["crc"])
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalCorruptionError(
                f"journal line {line_no} is not a record "
                f"({type(exc).__name__}: {exc})"
            ) from None
        if rtype not in RECORD_TYPES:
            raise JournalCorruptionError(
                f"journal line {line_no} has unknown record type "
                f"{rtype!r}; this journal was written by a newer (or "
                f"foreign) server — known types: {sorted(RECORD_TYPES)}"
            )
        expected = record_checksum(seq, rtype, payload)
        if crc != expected:
            raise JournalCorruptionError(
                f"journal line {line_no} (seq {seq}, type {rtype!r}) "
                f"fails its checksum: recorded {crc}, computed "
                f"{expected} — the file was modified or damaged after "
                "it was written; restore from a backup"
            )
        return cls(seq=seq, type=rtype, payload=payload)


class Journal:
    """Append-only writer over the journal file.

    Appends are thread-safe and sequenced; the caller (the gateway)
    serialises them anyway under its global lock, which is what makes
    the journal a total order over control-plane mutations.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        sync: str = "fsync",
        start_seq: int = 0,
    ) -> None:
        if sync not in SYNC_MODES:
            raise ValueError(
                f"sync must be one of {SYNC_MODES}, got {sync!r}"
            )
        self.path = Path(path)
        self.sync = sync
        self._seq = int(start_seq)
        self._lock = threading.Lock()
        #: Highest sequence number known to be on disk (group mode);
        #: guarded by ``_flush_lock`` — the convoy gate.
        self._flushed_seq = int(start_seq)
        self._flush_lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self.bind_metrics(NULL_REGISTRY)

    def bind_metrics(self, registry) -> None:
        """Report append/fsync/commit timings into ``registry``.

        Unbound journals report into the shared disabled registry
        (every instrument a no-op), so the hot path never branches on
        whether observability is on.  The gateway binds its registry
        via :meth:`StateStore.bind_metrics` when a store is attached.
        """
        self._m_append_seconds = registry.histogram(
            "journal_append_seconds",
            "Latency of one journal append (serialise + write + "
            "flush, + fsync in fsync mode).",
        )
        self._m_records = registry.counter(
            "journal_records_total",
            "Records appended to the journal, by type.",
            ["type"],
        )
        self._m_bytes = registry.counter(
            "journal_bytes_total",
            "Bytes appended to the journal.",
        )
        self._m_fsync_seconds = registry.histogram(
            "journal_fsync_seconds",
            "Latency of one journal fsync (per-append or convoy).",
        )
        self._m_fsyncs = registry.counter(
            "journal_fsyncs_total",
            "Journal fsyncs issued.",
        )
        self._m_commit_seconds = registry.histogram(
            "journal_commit_seconds",
            "Latency of one group-commit barrier (leaders only).",
        )
        self._m_commit_rides = registry.counter(
            "journal_commit_rides_total",
            "Group commits satisfied by another convoy's fsync.",
        )
        self._m_flush_lag = registry.gauge(
            "journal_flush_lag_records",
            "Appended records not yet covered by an fsync "
            "(last_seq - flushed_seq).",
        )

    @property
    def last_seq(self) -> int:
        return self._seq

    @property
    def flushed_seq(self) -> int:
        """Highest seq covered by an fsync (only tracked in group mode)."""
        return self._flushed_seq

    def append(self, rtype: str, payload: Dict[str, Any]) -> JournalRecord:
        """Append one record; returns it with its sequence.

        In ``fsync`` mode the record is durable on return; in
        ``group`` mode the caller must run :meth:`commit` before
        acking whatever the record describes.
        """
        started = time.perf_counter()
        with self._lock:
            if self._handle is None:
                raise JournalError("journal is closed")
            record = JournalRecord(
                seq=self._seq + 1, type=rtype, payload=jsonify(payload)
            )
            # ``record.to_line()`` in one serialisation: the checksum
            # covers the canonical {payload, seq, type} object, and
            # "crc" sorts in front of all three, so it is spliced into
            # that same text instead of dumping the record again.
            blob = json.dumps(
                {
                    "payload": record.payload,
                    "seq": record.seq,
                    "type": rtype,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            # json.dumps escapes non-ASCII: one character, one byte.
            crc = zlib.crc32(blob.encode("ascii")) & 0xFFFFFFFF
            line = f'{{"crc":"{crc:08x}",{blob[1:]}\n'
            try:
                self._handle.write(line)
                self._handle.flush()
                if self.sync == "fsync":
                    self._fsync(self._handle.fileno())
                    self._flushed_seq = record.seq
            except BaseException:
                # The line may already be in the file, but it was never
                # acked and ``_seq`` has not moved: another append would
                # reuse its seq and poison the directory.  Fail stop.
                self._abandon()
                raise
            self._seq = record.seq
        ended = time.perf_counter()
        self._m_append_seconds.observe(ended - started)
        add_span("journal.append", started, ended, type=rtype,
                 seq=record.seq)
        self._m_records.labels(rtype).inc()
        self._m_bytes.inc(len(line))
        if self.sync != "fsync":
            self._m_flush_lag.set(self._seq - self._flushed_seq)
        return record

    def commit(self, upto: Optional[int] = None) -> None:
        """Group-commit barrier: records up to ``upto`` are on disk.

        Only ``sync="group"`` does work here (``fsync`` is already
        durable per append; ``buffered`` deliberately leaves fsync to
        the kernel).  Concurrent committers convoy on the flush lock:
        the leader fsyncs once for every record flushed to the fd so
        far, and followers whose records that flush covered return
        without issuing their own.  ``upto`` defaults to the last
        appended record.
        """
        if self.sync != "group":
            return
        target = self._seq if upto is None else int(upto)
        if self._flushed_seq >= target:
            self._m_commit_rides.inc()
            return  # a previous convoy's flush already covered us
        started = time.perf_counter()
        with self._flush_lock:
            if self._flushed_seq >= target:
                self._m_commit_rides.inc()
                # Rode an earlier convoy: the barrier still cost the
                # queueing time, so the trace shows it.
                add_span("journal.commit", started,
                         time.perf_counter(), rode=True)
                return  # the leader's flush covered us while we queued
            with self._lock:
                if self._handle is None:
                    raise JournalError("journal is closed")
                fd = self._handle.fileno()
                # Everything appended so far is flushed to the fd, so
                # one fsync covers through the current tail — not just
                # our own record.
                cover = self._seq
            try:
                self._fsync(fd)
            except BaseException:
                with self._lock:
                    self._abandon()
                raise
            self._flushed_seq = cover
        ended = time.perf_counter()
        self._m_commit_seconds.observe(ended - started)
        add_span("journal.commit", started, ended, rode=False)
        self._m_flush_lag.set(self._seq - self._flushed_seq)

    def _fsync(self, fd: int) -> None:
        """One fsync, timed into the metrics and the ambient trace."""
        started = time.perf_counter()
        os.fsync(fd)
        ended = time.perf_counter()
        self._m_fsync_seconds.observe(ended - started)
        self._m_fsyncs.inc()
        add_span("journal.fsync", started, ended)

    def _abandon(self) -> None:
        """Fail stop (caller holds ``_lock``): drop the handle for good.

        After a failed write or fsync nothing is known about the tail,
        so every later :meth:`append` / :meth:`commit` raises
        :class:`JournalError`; whatever reached the file is an ordinary
        un-acked tail for the next recovery.
        """
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass  # the failure being reported is the caller's

    def close(self) -> None:
        # Same lock order as commit (flush -> append), so a close
        # cannot interleave with a leader mid-fsync and yank the fd.
        with self._flush_lock:
            with self._lock:
                if self._handle is not None:
                    if self.sync == "group":
                        # Flush the tail: close must not silently drop
                        # records a commit barrier never covered.
                        self._handle.flush()
                        os.fsync(self._handle.fileno())
                        self._flushed_seq = self._seq
                    self._handle.close()
                    self._handle = None


def parse_line(line: bytes, line_no: int) -> JournalRecord:
    """One journal line -> its validated record.

    Raises :class:`ValueError` when the line is not a JSON object (what
    a torn write looks like) and :class:`JournalCorruptionError` when it
    is one but fails record validation.
    """
    data = json.loads(line.decode("utf-8"))
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    return JournalRecord.from_wire(data, line_no=line_no)


def truncate_journal(path: Union[str, Path], size: int) -> None:
    """Cut the journal back to ``size`` bytes in place, durably.

    Only ever used to shed a torn tail before a new writer appends:
    the bytes removed were never a complete record, so no reader's
    offset can point past ``size``, and the inode stays the same.
    """
    with open(path, "r+b") as handle:
        handle.truncate(int(size))
        os.fsync(handle.fileno())


def read_journal_from(
    path: Union[str, Path],
    offset: int,
    after_seq: int,
    *,
    shed_torn_tail: bool = False,
) -> Tuple[List[JournalRecord], int, int]:
    """The one journal reader: validated records past a frontier.

    Reads from byte ``offset`` — a record boundary whose last record
    was ``after_seq``; ``(0, 0)`` is the whole file — to the end, and
    returns ``(records, end_offset, dropped)``: the whole records
    found, the offset just past the last of them, and whether a torn
    tail follows (0 or 1: only the final line may legally be torn — a
    partial line, which was never acked even when it parses, or a
    complete line that is not JSON).  ``shed_torn_tail`` says the
    caller holds the directory's flock, so the torn bytes are also
    truncated off the file and appends can resume at ``end_offset``;
    without it they are left unconsumed.  Raises
    :class:`JournalCorruptionError` for anything worse.  Nothing the
    caller holds moves on a raise, so a damaged journal fails every
    read the same way.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        size = 0  # the writer has not journaled anything yet
    if size < offset:
        raise JournalCorruptionError(
            f"journal shrank to {size} bytes below the reader's "
            f"offset {offset} (frontier seq {after_seq}) — an "
            "append-only journal never loses complete records"
        )
    if size == offset:
        return [], offset, 0
    with open(path, "rb") as handle:
        handle.seek(offset)
        lines = handle.read().split(b"\n")
    dropped = 1 if lines.pop() else 0  # bytes past the last newline
    records: List[JournalRecord] = []
    seq, end = after_seq, offset
    for index, line in enumerate(lines):
        line_no = seq + 1  # contiguous from seq 1: line n holds seq n
        try:
            record = parse_line(line, line_no)
        except ValueError:
            if index == len(lines) - 1 and not dropped:
                dropped = 1  # torn tail: the process died mid-write
                break
            raise JournalCorruptionError(
                f"journal line {line_no} is not valid JSON but is not "
                "the final line — the file is damaged beyond a torn "
                "tail; restore from a backup"
            ) from None
        if record.seq != seq + 1:
            raise JournalCorruptionError(
                f"journal line {line_no} has seq {record.seq} but the "
                f"previous record was seq {seq}; records must be "
                "contiguous from seq 1 (the journal is never truncated)"
            )
        records.append(record)
        seq = record.seq
        end += len(line) + 1
    if dropped and shed_torn_tail:
        truncate_journal(path, end)
    return records, end, dropped


def read_journal(
    path: Union[str, Path], *, shed_torn_tail: bool = False
) -> Tuple[List[JournalRecord], int]:
    """Load and validate a whole journal file: ``(records, dropped)``.

    :func:`read_journal_from` offset zero; ``shed_torn_tail`` is only
    for a caller holding the directory's writer lock.
    """
    records, _, dropped = read_journal_from(
        path, 0, 0, shed_torn_tail=shed_torn_tail
    )
    return records, dropped


def last_checkpoint(
    records: List[JournalRecord],
) -> Optional[JournalRecord]:
    """The newest ``checkpoint`` record in ``records``, or None."""
    return next(
        (r for r in reversed(records) if r.type == CHECKPOINT), None
    )
