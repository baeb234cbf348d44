"""WalTailer: seeding, following, torn tails, checkpoints, damage."""

import pytest

from replica_helpers import MOONS_PROGRAM, open_writer
from repro.persist import (
    JOURNAL_NAME,
    Journal,
    JournalCorruptionError,
    JournalError,
    read_records_from,
)
from repro.persist.digest import state_digest
from repro.replica import WalTailer


def make_journal(tmp_path, n=5):
    journal = Journal(tmp_path / JOURNAL_NAME, sync="buffered")
    for i in range(n):
        journal.append("tenant_created", {"i": i})
    return journal


class TestReadRecordsFrom:
    """The public incremental read API on Journal."""

    def test_reads_past_the_frontier(self, tmp_path):
        journal = make_journal(tmp_path, n=5)
        assert [r.seq for r in journal.records_from(0)] == [1, 2, 3, 4, 5]
        assert [r.seq for r in journal.records_from(3)] == [4, 5]
        assert [r.seq for r in journal.records_from(5)] == []
        journal.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = make_journal(tmp_path, n=3)
        journal.close()
        path = tmp_path / JOURNAL_NAME
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "type": "tenant_cre')
        assert [r.seq for r in read_records_from(path, 0)] == [1, 2, 3]

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = make_journal(tmp_path, n=3)
        journal.close()
        path = tmp_path / JOURNAL_NAME
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-4] + 'xxx"'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError):
            list(read_records_from(path, 0))

    def test_missing_file_is_empty(self, tmp_path):
        assert list(read_records_from(tmp_path / "nope.jsonl", 0)) == []


class TestTailerFollow:
    def test_seed_then_follow(self, state_dir):
        gateway, token = open_writer(state_dir)
        tailer = WalTailer(state_dir)
        batch = tailer.seed()
        assert [r.seq for r in batch.records] == [1]
        assert tailer.emitted_seq == 1

        from repro.service.api import RegisterAppRequest

        gateway.handle(
            RegisterAppRequest(
                auth_token=token, app="m", program=MOONS_PROGRAM
            )
        )
        batch = tailer.poll()
        assert batch.records
        assert tailer.emitted_seq == gateway.store.last_seq
        assert not tailer.poll()  # idle poll is falsy
        gateway.store.close()

    def test_partial_line_left_unconsumed(self, state_dir):
        gateway, token = open_writer(state_dir)
        tailer = WalTailer(state_dir)
        tailer.seed()
        path = state_dir / JOURNAL_NAME
        whole = (
            '{"seq": 2, "type": "tenant_created", "payload": '
            '{"name": "x", "quota": null, "token": "t"}, "crc": 0}\n'
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(whole[:30])
            handle.flush()
            assert not tailer.poll()  # incomplete line: no progress
        gateway.store.close()

    def test_seed_twice_rejected(self, state_dir):
        open_writer(state_dir)[0].store.close()
        tailer = WalTailer(state_dir)
        tailer.seed()
        with pytest.raises(RuntimeError):
            tailer.seed()
        fresh = WalTailer(state_dir)
        with pytest.raises(RuntimeError):
            fresh.poll()  # poll before seed


class TestCompactionRace:
    """What used to be a race: a snapshot landing mid-tail truncated
    the journal under the tailer.  A checkpoint is now one more record
    in the same file, so there is nothing to re-seed from — and
    anything that is not a clean append is damage, reported at once."""

    def test_checkpoint_mid_tail_is_just_another_record(self, state_dir):
        gateway, token = open_writer(state_dir)
        tailer = WalTailer(state_dir)
        tailer.seed()
        inode = (state_dir / JOURNAL_NAME).stat().st_ino
        offset = tailer.offset

        for _ in range(6):
            gateway.rotate_token("acme")
        mark = gateway.store.snapshot(state_digest(gateway))
        gateway.rotate_token("acme")

        batch = tailer.poll()
        assert [r.seq for r in batch.records] == list(range(2, 10))
        assert batch.records[-2] == mark
        assert tailer.checkpoint_seq == mark.seq == 8
        assert tailer.emitted_seq == gateway.store.last_seq
        assert tailer.offset > offset
        assert (state_dir / JOURNAL_NAME).stat().st_ino == inode
        gateway.store.close()

    def test_truly_corrupt_journal_raises(self, state_dir):
        gateway, token = open_writer(state_dir)
        tailer = WalTailer(state_dir)
        tailer.seed()
        for _ in range(2):
            gateway.rotate_token("acme")
        path = state_dir / JOURNAL_NAME
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("token_rotated", "token_rotatex")
        path.write_text("\n".join(lines) + "\n")
        for _ in range(2):  # the same answer every time, no progress
            with pytest.raises(JournalCorruptionError, match="line 2"):
                tailer.poll()
            assert tailer.emitted_seq == 1
        gateway.store.close()

    def test_shrunk_journal_raises(self, state_dir):
        gateway, token = open_writer(state_dir)
        gateway.rotate_token("acme")
        tailer = WalTailer(state_dir)
        tailer.seed()
        gateway.store.close()
        (state_dir / JOURNAL_NAME).write_text("")
        with pytest.raises(JournalCorruptionError, match="shrank"):
            tailer.poll()

    def test_legacy_snapshot_directory_is_refused(self, state_dir):
        open_writer(state_dir)[0].store.close()
        (state_dir / "snapshot-000000000004.json").write_text("{}")
        with pytest.raises(JournalError, match="snapshot-file format"):
            WalTailer(state_dir).seed()
