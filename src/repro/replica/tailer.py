"""Incremental WAL tailer: follow a live journal without the lock.

A :class:`WalTailer` reads the *writer's* state directory while the
writer keeps appending to it.  It follows ``journal.jsonl`` from a
byte offset, consuming only complete (newline-terminated) lines — a
half-flushed final line is left in place and picked up once the writer
finishes it.

The journal is append-only for the life of its directory (checkpoints
are records in it, not rewrites of it), so the offset never goes stale:
the only in-place edit a writer ever makes is cutting a torn tail back
to the last complete record, which removes bytes the tailer never
consumed.  Anything else the tailer observes — the file shorter than
its offset, a complete line that does not parse, a sequence number that
is not the next one — is damage, and surfaces at once as
:class:`~repro.persist.journal.JournalCorruptionError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Union

from repro.persist.journal import (
    JOURNAL_NAME,
    JournalCorruptionError,
    JournalRecord,
    last_checkpoint,
    parse_line,
)
from repro.persist.store import refuse_legacy_layout


@dataclass
class TailBatch:
    """One poll's worth of new records, in apply order."""

    records: List[JournalRecord] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.records)


class WalTailer:
    """Follow one state directory's journal past a moving frontier.

    Single-consumer: not thread-safe, call :meth:`poll` from one
    thread.  The tailer never takes the directory's flock — it is a
    pure reader and must stay one.
    """

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.state_dir = Path(state_dir)
        self.journal_path = self.state_dir / JOURNAL_NAME
        #: Highest sequence number handed to the consumer.
        self.emitted_seq = 0
        #: Sequence number of the newest checkpoint handed over.
        self.checkpoint_seq = 0
        #: Bytes of journal consumed (complete lines only): where a
        #: promoted replica cuts the file before it starts appending.
        self.offset = 0
        self._seeded = False

    def seed(self) -> TailBatch:
        """Initial catch-up: the whole journal as it stands."""
        if self._seeded:
            raise RuntimeError("seed() may only be called once")
        refuse_legacy_layout(self.state_dir)
        self._seeded = True
        return self.poll()

    def poll(self) -> TailBatch:
        """Non-blocking: whatever complete new records landed since.

        Returns an empty (falsy) batch when nothing new arrived.
        Raises :class:`JournalCorruptionError` when the journal is
        damaged (see the module docstring).
        """
        if not self._seeded:
            raise RuntimeError("call seed() before poll()")
        try:
            size = self.journal_path.stat().st_size
        except FileNotFoundError:
            size = 0  # the writer has not journaled anything yet
        if size < self.offset:
            raise JournalCorruptionError(
                f"journal shrank to {size} bytes below the tailer's "
                f"offset {self.offset} (frontier seq "
                f"{self.emitted_seq}) — an append-only journal never "
                "loses complete records"
            )
        if size == self.offset:
            return TailBatch()
        with open(self.journal_path, "rb") as handle:
            handle.seek(self.offset)
            blob = handle.read()
        # Frontier state moves only once the whole read validated, so
        # a damaged journal fails every poll the same way.
        records: List[JournalRecord] = []
        seq, start = self.emitted_seq, 0
        while True:
            newline = blob.find(b"\n", start)
            if newline < 0:
                break  # trailing partial line: leave it unconsumed
            try:
                record = parse_line(blob[start:newline], seq + 1)
            except ValueError as exc:
                raise JournalCorruptionError(
                    f"unparseable journal line at offset "
                    f"{self.offset + start}: {exc}"
                ) from None
            if record.seq != seq + 1:
                raise JournalCorruptionError(
                    f"journal jumped from seq {seq} to {record.seq} "
                    f"at offset {self.offset + start}"
                )
            records.append(record)
            seq = record.seq
            start = newline + 1
        self.emitted_seq = seq
        self.offset += start
        mark = last_checkpoint(records)
        if mark is not None:
            self.checkpoint_seq = mark.seq
        return TailBatch(records=records)
