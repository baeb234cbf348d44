"""The write-ahead journal: format, checksums, crash tolerance."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.persist import (
    Journal,
    JournalCorruptionError,
    JournalError,
    JournalRecord,
    RECORD_TYPES,
    read_journal,
    read_journal_from,
    record_checksum,
)


@pytest.fixture
def journal_path(tmp_path):
    return tmp_path / "journal.jsonl"


class TestAppendAndRead:
    def test_round_trip(self, journal_path):
        journal = Journal(journal_path, sync="buffered")
        first = journal.append("tenant_created", {"name": "a", "token": "t"})
        second = journal.append("app_registered", {"app": "m"})
        journal.close()
        assert (first.seq, second.seq) == (1, 2)
        records, dropped = read_journal(journal_path)
        assert dropped == 0
        assert [r.type for r in records] == [
            "tenant_created", "app_registered",
        ]
        assert records[0].payload == {"name": "a", "token": "t"}

    def test_sequencing_continues_from_start_seq(self, journal_path):
        journal = Journal(journal_path, sync="buffered", start_seq=41)
        assert journal.append("app_closed", {}).seq == 42

    def test_fsync_mode_appends(self, journal_path):
        journal = Journal(journal_path, sync="fsync")
        journal.append("quota_changed", {"name": "a"})
        journal.close()
        records, _ = read_journal(journal_path)
        assert len(records) == 1

    def test_missing_file_reads_empty(self, tmp_path):
        records, dropped = read_journal(tmp_path / "nope.jsonl")
        assert records == [] and dropped == 0

    def test_closed_registry_rejects_unknown_type(self, journal_path):
        journal = Journal(journal_path, sync="buffered")
        with pytest.raises(JournalError, match="closed"):
            journal.append("psychic_event", {})
        assert "psychic_event" not in RECORD_TYPES

    def test_invalid_sync_mode(self, journal_path):
        with pytest.raises(ValueError, match="sync"):
            Journal(journal_path, sync="psychic")

    def test_append_after_close_fails(self, journal_path):
        journal = Journal(journal_path, sync="buffered")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append("app_closed", {})


#: JSON-safe leaves plus what ``jsonify`` exists for: numpy scalars.
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),  # non-ASCII included: the line escapes it
    st.integers(-(2**31), 2**31 - 1).map(np.int64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(
        np.float32
    ),
    st.booleans().map(np.bool_),
)
_payloads = st.dictionaries(
    st.text(),
    st.recursive(
        _leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(), inner, max_size=4),
        ),
        max_leaves=12,
    ),
    max_size=6,
)


class TestOnePassLine:
    """``append`` serialises a record once; ``to_line`` is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        payloads=st.lists(_payloads, min_size=1, max_size=3),
        rtype=st.sampled_from(sorted(RECORD_TYPES)),
        start_seq=st.integers(0, 10**9),
    )
    def test_written_lines_equal_to_line(self, payloads, rtype, start_seq):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "journal.jsonl"
            journal = Journal(path, sync="buffered", start_seq=start_seq)
            records = [journal.append(rtype, p) for p in payloads]
            journal.close()
            written = path.read_bytes()
        expected = "".join(r.to_line() + "\n" for r in records)
        assert written == expected.encode("utf-8")
        assert written.isascii()

    def test_byte_counter_counts_the_written_bytes(self, journal_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        journal = Journal(journal_path, sync="buffered")
        journal.bind_metrics(registry)
        journal.append("tenant_created", {"name": "zoë", "token": "t"})
        journal.append("examples_fed", {"x": np.arange(3), "y": np.float64(1)})
        journal.close()
        assert (
            registry.get("journal_bytes_total").value
            == journal_path.stat().st_size
        )


class TestCrashTolerance:
    def _write(self, journal_path, n=3):
        journal = Journal(journal_path, sync="buffered")
        for i in range(n):
            journal.append("example_toggled", {"i": i})
        journal.close()

    def test_torn_tail_record_is_dropped(self, journal_path):
        self._write(journal_path)
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "type": "app_clo')
        records, dropped = read_journal(journal_path)
        assert dropped == 1
        assert [r.seq for r in records] == [1, 2, 3]

    def test_bad_checksum_refuses_to_load(self, journal_path):
        self._write(journal_path)
        lines = journal_path.read_text().splitlines()
        data = json.loads(lines[1])
        data["payload"]["i"] = 99  # tamper without fixing the crc
        lines[1] = json.dumps(data)
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError, match="checksum"):
            read_journal(journal_path)

    def test_mid_file_garbage_refuses_to_load(self, journal_path):
        self._write(journal_path)
        lines = journal_path.read_text().splitlines()
        lines[0] = "not json at all"
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError, match="not the final"):
            read_journal(journal_path)

    def test_sequence_gap_refuses_to_load(self, journal_path):
        self._write(journal_path)
        lines = journal_path.read_text().splitlines()
        data = json.loads(lines[2])
        data["seq"] = 9
        data["crc"] = record_checksum(9, data["type"], data["payload"])
        lines[2] = json.dumps(data)
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError, match="contiguous"):
            read_journal(journal_path)

    def test_unknown_type_on_disk_refuses_to_load(self, journal_path):
        self._write(journal_path, n=1)
        lines = journal_path.read_text().splitlines()
        data = json.loads(lines[0])
        data["type"] = "from_the_future"
        data["crc"] = record_checksum(
            data["seq"], data["type"], data["payload"]
        )
        lines[0] = json.dumps(data)
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError, match="unknown record"):
            read_journal(journal_path)


    def test_final_line_without_newline_is_torn_even_if_it_parses(
        self, journal_path
    ):
        """A record is a *terminated* line: the newline was part of the
        write the ack waited for, and appending after an unterminated
        line would fuse two records into one corrupt line."""
        self._write(journal_path)
        journal_path.write_bytes(journal_path.read_bytes()[:-1])
        records, dropped = read_journal(journal_path, shed_torn_tail=True)
        assert dropped == 1
        assert [r.seq for r in records] == [1, 2]
        assert journal_path.read_bytes().endswith(b"\n")

    def test_non_json_final_line_is_a_torn_tail(self, journal_path):
        """A block-level tear: reported by any reader, shed only by the
        one that holds the lock, damage once anything follows it."""
        self._write(journal_path)
        whole = journal_path.read_bytes()
        journal_path.write_bytes(whole + b"\x00\x00 not json\n")
        records, dropped = read_journal(journal_path)
        assert dropped == 1 and [r.seq for r in records] == [1, 2, 3]
        assert journal_path.read_bytes() != whole  # reading sheds nothing
        with open(journal_path, "ab") as handle:
            handle.write(b'{"seq": 4, "typ')
        with pytest.raises(JournalCorruptionError, match="not the final"):
            read_journal(journal_path, shed_torn_tail=True)
        journal_path.write_bytes(whole + b"\x00\x00 not json\n")
        records, dropped = read_journal(journal_path, shed_torn_tail=True)
        assert dropped == 1 and len(records) == 3
        assert journal_path.read_bytes() == whole

    def test_read_from_a_frontier(self, journal_path):
        self._write(journal_path, n=5)
        lines = journal_path.read_bytes().splitlines(keepends=True)
        offset, size = len(b"".join(lines[:3])), len(b"".join(lines))
        records, end, dropped = read_journal_from(journal_path, offset, 3)
        assert [r.seq for r in records] == [4, 5]
        assert (end, dropped) == (size, 0)
        assert read_journal_from(journal_path, size, 5) == ([], size, 0)
        with pytest.raises(JournalCorruptionError, match="contiguous"):
            read_journal_from(journal_path, offset, 2)
        with pytest.raises(JournalCorruptionError, match="shrank"):
            read_journal_from(journal_path, size + 1, 5)

    def test_journal_must_start_at_seq_one(self, journal_path):
        """Nothing truncates the journal any more, so a file whose
        first record is not seq 1 has lost history."""
        journal = Journal(journal_path, sync="buffered", start_seq=10)
        journal.append("tenant_created", {})
        journal.close()
        with pytest.raises(JournalCorruptionError, match="from seq 1"):
            read_journal(journal_path)


class TestRewrite:
    """Nothing rewrites the journal; the one edit is made in place."""

    _write = TestCrashTolerance._write

    def test_torn_tail_is_shed_in_place(self, journal_path):
        """The one in-place edit: same inode, only torn bytes go."""
        self._write(journal_path)
        whole = journal_path.read_bytes()
        inode = journal_path.stat().st_ino
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "type": "app_clo')
        assert read_journal(journal_path)[1] == 1  # reading sheds nothing
        assert journal_path.read_bytes() != whole
        records, dropped = read_journal(journal_path, shed_torn_tail=True)
        assert dropped == 1 and len(records) == 3
        assert journal_path.read_bytes() == whole
        assert journal_path.stat().st_ino == inode
        journal = Journal(journal_path, sync="buffered", start_seq=3)
        journal.append("app_closed", {})
        journal.close()
        records, dropped = read_journal(journal_path)
        assert dropped == 0 and [r.seq for r in records] == [1, 2, 3, 4]

    def test_checkpoint_is_a_registered_type(self, journal_path):
        from repro.persist import CHECKPOINT, EFFECT_TYPES, last_checkpoint

        assert CHECKPOINT in RECORD_TYPES and CHECKPOINT not in EFFECT_TYPES
        journal = Journal(journal_path, sync="buffered")
        journal.append("tenant_created", {"name": "a"})
        assert last_checkpoint(read_journal(journal_path)[0]) is None
        journal.append(CHECKPOINT, {"state_digest": "d1"})
        journal.append("app_closed", {})
        journal.append(CHECKPOINT, {"state_digest": "d2"})
        journal.close()
        mark = last_checkpoint(read_journal(journal_path)[0])
        assert (mark.seq, mark.payload) == (4, {"state_digest": "d2"})

    def test_record_checksum_is_payload_sensitive(self):
        a = record_checksum(1, "app_closed", {"app": "x"})
        b = record_checksum(1, "app_closed", {"app": "y"})
        assert a != b
        record = JournalRecord(seq=1, type="app_closed", payload={"app": "x"})
        assert record.crc == a


class TestGroupCommit:
    """``sync="group"``: deferred fsync shared per commit convoy."""

    def test_records_land_and_commit_is_idempotent(self, journal_path):
        journal = Journal(journal_path, sync="group")
        journal.append("tenant_created", {"name": "a", "token": "t"})
        journal.append("app_registered", {"app": "m"})
        journal.commit()
        assert journal.flushed_seq == 2
        journal.commit()  # covered: must not fsync again
        journal.close()
        records, dropped = read_journal(journal_path)
        assert dropped == 0
        assert [r.seq for r in records] == [1, 2]

    def test_append_defers_fsync_to_commit(self, journal_path, monkeypatch):
        import os as os_module

        import repro.persist.journal as journal_module

        calls = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync",
            lambda fd: (calls.append(fd), real_fsync(fd)),
        )
        journal = Journal(journal_path, sync="group")
        for i in range(5):
            journal.append("example_toggled", {"i": i})
        assert calls == []  # appends alone never touch the disk
        journal.commit()
        assert len(calls) == 1  # one fsync covers all five records
        assert journal.flushed_seq == 5

    def test_convoy_shares_one_fsync(self, journal_path, monkeypatch):
        """N concurrent append+commit cycles fsync far fewer than N times."""
        import threading

        import repro.persist.journal as journal_module

        fsyncs = []
        slow = threading.Event()

        def counting_fsync(fd):
            fsyncs.append(fd)
            slow.wait(0.05)  # stretch the leader so followers convoy

        monkeypatch.setattr(journal_module.os, "fsync", counting_fsync)
        journal = Journal(journal_path, sync="group")
        n = 16

        def mutate(i):
            record = journal.append("example_toggled", {"i": i})
            journal.commit(record.seq)

        threads = [
            threading.Thread(target=mutate, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert journal.flushed_seq == n
        # Every commit was covered by *some* fsync, but convoying means
        # far fewer fsyncs than mutations (the close adds one more).
        assert 1 <= len(fsyncs) < n
        monkeypatch.setattr(journal_module.os, "fsync", lambda fd: None)
        journal.close()
        records, dropped = read_journal(journal_path)
        assert dropped == 0
        assert len(records) == n

    def test_fsync_mode_tracks_flushed_seq_per_append(self, journal_path):
        journal = Journal(journal_path, sync="fsync")
        journal.append("app_closed", {})
        assert journal.flushed_seq == 1
        journal.commit()  # a no-op outside group mode
        journal.close()

    def test_commit_after_close_fails(self, journal_path):
        journal = Journal(journal_path, sync="group")
        journal.append("app_closed", {})
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.commit(99)
