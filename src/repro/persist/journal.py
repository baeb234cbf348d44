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
A *torn tail* — the final line is incomplete or unparseable because the
process died mid-write — is expected and silently dropped (the request
it belonged to was never acked); the next writer truncates the file
back to its last complete record before appending.  Anything else — a
bad checksum, an out-of-order sequence number, an unknown record type —
means the file was corrupted after the fact, and :func:`read_journal`
refuses to load it with a :class:`JournalCorruptionError` naming the
offending line.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

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
            line = record.to_line() + "\n"
            self._handle.write(line)
            self._handle.flush()
            if self.sync == "fsync":
                fsync_started = time.perf_counter()
                os.fsync(self._handle.fileno())
                fsync_ended = time.perf_counter()
                self._m_fsync_seconds.observe(fsync_ended - fsync_started)
                self._m_fsyncs.inc()
                add_span("journal.fsync", fsync_started, fsync_ended)
                self._flushed_seq = record.seq
            self._seq = record.seq
        ended = time.perf_counter()
        self._m_append_seconds.observe(ended - started)
        add_span("journal.append", started, ended, type=rtype,
                 seq=record.seq)
        self._m_records.labels(rtype).inc()
        self._m_bytes.inc(len(line.encode("utf-8")))
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
            fsync_started = time.perf_counter()
            os.fsync(fd)
            fsync_ended = time.perf_counter()
            self._m_fsync_seconds.observe(fsync_ended - fsync_started)
            self._m_fsyncs.inc()
            add_span("journal.fsync", fsync_started, fsync_ended)
            self._flushed_seq = cover
        ended = time.perf_counter()
        self._m_commit_seconds.observe(ended - started)
        add_span("journal.commit", started, ended, rode=False)
        self._m_flush_lag.set(self._seq - self._flushed_seq)

    def records_from(self, since_seq: int) -> Iterator[JournalRecord]:
        """Validated records after ``since_seq``, read back off disk.

        The public tailing surface: a reader (a replica's WAL tailer,
        an operator tool) iterates records strictly greater than its
        frontier without taking the writer's flock — appends are
        whole-line writes, so a concurrent reader only ever sees
        complete records plus at most one torn final line, which is
        skipped exactly like crash recovery skips it.
        """
        return read_records_from(self.path, since_seq)

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


def read_journal(
    path: Union[str, Path], *, shed_torn_tail: bool = False
) -> Tuple[List[JournalRecord], int]:
    """Load and validate a journal file.

    Returns ``(records, dropped)`` where ``dropped`` counts torn tail
    lines discarded (0 or 1 — only the final line may legally be
    torn; a final line without its newline was never acked and counts
    as torn even when it parses).  With ``shed_torn_tail`` the torn
    bytes are also truncated off the file, so the caller (who must
    hold the directory's writer lock) can append after the last
    record.  Raises :class:`JournalCorruptionError` for anything worse.
    """
    path = Path(path)
    records: List[JournalRecord] = []
    if not path.exists():
        return records, 0
    lines = path.read_bytes().split(b"\n")
    dropped = 1 if lines.pop() else 0  # bytes past the last newline
    valid_bytes = 0
    for line_no, line in enumerate(lines, start=1):
        try:
            record = parse_line(line, line_no)
        except ValueError:
            if line_no == len(lines) and not dropped:
                dropped = 1  # torn tail: the process died mid-write
                break
            raise JournalCorruptionError(
                f"journal line {line_no} is not valid JSON but is not "
                "the final line — the file is damaged beyond a torn "
                "tail; restore from a backup"
            ) from None
        previous = records[-1].seq if records else 0
        if record.seq != previous + 1:
            raise JournalCorruptionError(
                f"journal line {line_no} has seq {record.seq} but the "
                f"previous record was seq {previous}; records must be "
                "contiguous from seq 1 (the journal is never truncated)"
            )
        records.append(record)
        valid_bytes += len(line) + 1
    if dropped and shed_torn_tail:
        truncate_journal(path, valid_bytes)
    return records, dropped


def read_records_from(
    path: Union[str, Path], since_seq: int
) -> Iterator[JournalRecord]:
    """Yield validated records with seq > ``since_seq`` from a journal.

    Safe against a *live* journal: appends are whole-line writes, so a
    concurrent reader sees complete records plus at most one torn
    final line, which is skipped exactly like crash recovery skips it.
    """
    since_seq = int(since_seq)
    for record in read_journal(path)[0]:
        if record.seq > since_seq:
            yield record


def last_checkpoint(
    records: List[JournalRecord],
) -> Optional[JournalRecord]:
    """The newest ``checkpoint`` record in ``records``, or None."""
    return next(
        (r for r in reversed(records) if r.type == CHECKPOINT), None
    )
