"""``StateStore.snapshot``: a checkpoint is one journal record."""

import json
import shutil

import pytest

from persist_helpers import gateway_kwargs

from repro.persist import (
    CHECKPOINT,
    RecoveryError,
    StateStore,
    last_checkpoint,
    open_gateway,
    read_journal,
    recover_gateway,
    state_digest,
)
from repro.persist.journal import record_checksum


def _store(path, n=4):
    store = StateStore(path, sync="buffered", snapshot_every=0)
    for i in range(n):
        store.append("example_toggled", {"i": i})
    return store


class TestWriteAndLoad:
    def test_round_trip(self, tmp_path):
        store = _store(tmp_path)
        before = store.journal_path.stat().st_size
        mark = store.snapshot("abc")
        assert (mark.seq, mark.type) == (5, CHECKPOINT)
        assert store.checkpoint_seq == 5
        assert store.records_since_checkpoint == 0
        store.append("example_toggled", {"i": 4})
        assert store.records_since_checkpoint == 1
        store.close()
        records, dropped = read_journal(store.journal_path)
        assert dropped == 0
        loaded = last_checkpoint(records)
        assert loaded == mark
        assert loaded.payload == {"state_digest": "abc"}
        # Nothing was rewritten: the four records are still in front.
        assert [r.payload for r in records[:4]] == [
            {"i": i} for i in range(4)
        ]
        assert store.journal_path.stat().st_size > before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "journal.jsonl", "lock",
        ]

    def test_no_snapshots_returns_none(self, tmp_path, state_dir):
        store = _store(tmp_path)
        store.close()
        assert last_checkpoint(read_journal(store.journal_path)[0]) is None
        assert last_checkpoint([]) is None
        # ...and recovery of a checkpoint-free directory says so.
        gateway, _ = open_gateway(state_dir, **gateway_kwargs())
        gateway.create_tenant("alice")
        gateway.store.close()
        recovered, report = recover_gateway(state_dir)
        assert report.checkpoint_seq == 0 and not report.digest_verified
        assert "checkpoint: seq 0 (digest absent)" in report.describe()
        recovered.store.close()

    def test_identical_records_write_identical_bytes(self, tmp_path):
        journals = []
        for name in ("a", "b"):
            store = _store(tmp_path / name)
            store.snapshot("d")
            store.close()
            journals.append(store.journal_path.read_bytes())
        assert journals[0] == journals[1]


class TestValidation:
    def test_corrupt_latest_falls_back_to_previous(self, state_dir, tmp_path):
        """A crash can tear the newest mark; the one before it is then
        the newest *complete* checkpoint and is what recovery verifies."""
        gateway, _ = open_gateway(state_dir, **gateway_kwargs())
        gateway.create_tenant("alice")
        first = gateway.store.snapshot(state_digest(gateway))
        gateway.create_tenant("bob")
        second = gateway.store.snapshot(state_digest(gateway))
        gateway.store.close()

        whole = tmp_path / "whole"
        shutil.copytree(state_dir, whole)
        recovered, report = recover_gateway(whole)
        assert report.checkpoint_seq == second.seq and report.digest_verified
        recovered.store.close()

        journal = state_dir / "journal.jsonl"
        journal.write_bytes(journal.read_bytes()[:-40])
        recovered, report = recover_gateway(state_dir)
        assert report.dropped_tail == 1
        assert report.checkpoint_seq == first.seq and report.digest_verified
        assert sorted(recovered._tenant_names) == ["alice", "bob"]
        recovered.store.close()

    def test_tampered_record_rejected(self, state_dir):
        """The mark itself is a record: a digest edited in place (CRC
        re-sealed, so the line still validates) is refused — and an
        older mark that would still verify is no fallback for it."""
        gateway, _ = open_gateway(state_dir, **gateway_kwargs())
        gateway.create_tenant("alice")
        gateway.store.snapshot(state_digest(gateway))
        gateway.create_tenant("bob")
        gateway.store.snapshot(state_digest(gateway))
        gateway.store.close()
        journal = state_dir / "journal.jsonl"
        lines = journal.read_text().splitlines()
        mark = json.loads(lines[-1])
        assert mark["type"] == CHECKPOINT
        mark["payload"]["state_digest"] = "0" * 64
        mark["crc"] = record_checksum(
            mark["seq"], mark["type"], mark["payload"]
        )
        lines[-1] = json.dumps(mark)
        journal.write_text("\n".join(lines) + "\n")
        assert read_journal(journal)[1] == 0  # the file itself is valid
        with pytest.raises(RecoveryError, match="state digest"):
            recover_gateway(state_dir)
