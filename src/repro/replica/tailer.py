"""Incremental WAL tailer: follow a live journal past a byte offset.

A :class:`WalTailer` is the frontier — byte offset, last sequence
number, newest checkpoint — over the journal's one reader,
:func:`~repro.persist.journal.read_journal_from`, pointed at the
*writer's* state directory while the writer keeps appending to it.

The journal is append-only for the life of its directory (checkpoints
are records in it, not rewrites of it), so the offset never goes stale:
the only in-place edit a lock holder ever makes is cutting a torn tail
back to the last complete record, which removes bytes the tailer never
consumed.  While it follows without the flock a torn final line is
left in place and picked up once the writer finishes it; once its
owner holds the flock (promotion) the same poll sheds it.  Anything
else the tailer observes — the file shorter than its offset, damage
before the final line, a sequence number that is not the next one — is
refused at once with
:class:`~repro.persist.journal.JournalCorruptionError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Union

from repro.persist.journal import (
    JOURNAL_NAME,
    JournalRecord,
    last_checkpoint,
    read_journal_from,
)
from repro.persist.store import refuse_legacy_layout


@dataclass
class TailBatch:
    """One poll's worth of new records, in apply order."""

    records: List[JournalRecord] = field(default_factory=list)
    #: Torn final lines past ``records`` (0 or 1): shed when the
    #: poller holds the flock, otherwise still in the file.
    dropped: int = 0

    def __bool__(self) -> bool:
        return bool(self.records)


class WalTailer:
    """Follow one state directory's journal past a moving frontier.

    Single-consumer: not thread-safe, call :meth:`poll` from one
    thread.  The tailer never takes the directory's flock itself.
    """

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.state_dir = Path(state_dir)
        self.journal_path = self.state_dir / JOURNAL_NAME
        #: Highest sequence number handed to the consumer.
        self.emitted_seq = 0
        #: Sequence number of the newest checkpoint handed over.
        self.checkpoint_seq = 0
        #: Bytes of journal consumed (whole records only).
        self.offset = 0
        self._seeded = False

    def seed(self) -> TailBatch:
        """Initial catch-up: the whole journal as it stands."""
        if self._seeded:
            raise RuntimeError("seed() may only be called once")
        refuse_legacy_layout(self.state_dir)
        self._seeded = True
        return self.poll()

    def poll(self, *, shed_torn_tail: bool = False) -> TailBatch:
        """Non-blocking: whatever complete new records landed since.

        Returns an empty (falsy) batch when nothing new arrived.
        ``shed_torn_tail`` is for a caller that holds the directory's
        flock (the promotion drain): a torn final line is cut off the
        file and counted in the batch instead of left for the writer
        to finish.  Raises
        :class:`~repro.persist.journal.JournalCorruptionError` when
        the journal is damaged; the frontier does not move.
        """
        if not self._seeded:
            raise RuntimeError("call seed() before poll()")
        records, self.offset, dropped = read_journal_from(
            self.journal_path,
            self.offset,
            self.emitted_seq,
            shed_torn_tail=shed_torn_tail,
        )
        if records:
            self.emitted_seq = records[-1].seq
        mark = last_checkpoint(records)
        if mark is not None:
            self.checkpoint_seq = mark.seq
        return TailBatch(records=records, dropped=dropped)
