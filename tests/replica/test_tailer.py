"""WalTailer: seeding, following, torn tails, checkpoints, damage."""

import pytest

from replica_helpers import MOONS_PROGRAM, open_writer
from repro.persist import (
    JOURNAL_NAME,
    JournalCorruptionError,
    JournalError,
    JournalRecord,
)
from repro.persist.digest import state_digest
from repro.replica import WalTailer


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

    def test_torn_final_line_waits_for_the_lock_holder(self, state_dir):
        """A complete non-JSON final line is a block-level tear: left
        alone without the flock, shed with it, damage once buried."""
        gateway, token = open_writer(state_dir)
        tailer = WalTailer(state_dir)
        tailer.seed()
        gateway.store.close()
        path = state_dir / JOURNAL_NAME
        whole = path.read_bytes()
        path.write_bytes(whole + b"\x00\x00 not json\n")
        for _ in range(2):
            batch = tailer.poll()
            assert not batch and batch.dropped == 1
            assert tailer.offset == len(whole)
        assert path.read_bytes() != whole  # reading sheds nothing
        batch = tailer.poll(shed_torn_tail=True)
        assert not batch and batch.dropped == 1
        assert path.read_bytes() == whole
        # Buried under a later record, the same line is plain damage.
        record = JournalRecord(seq=2, type="app_closed", payload={})
        path.write_bytes(
            whole + b"not json\n" + record.to_line().encode() + b"\n"
        )
        with pytest.raises(JournalCorruptionError, match="not the final"):
            tailer.poll(shed_torn_tail=True)
        assert tailer.emitted_seq == 1

    def test_missing_journal_is_empty(self, tmp_path):
        tailer = WalTailer(tmp_path)
        assert not tailer.seed() and not tailer.poll()
        assert (tailer.emitted_seq, tailer.offset) == (0, 0)

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
