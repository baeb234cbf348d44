"""Checkpoints under crash: a cut at every byte, tampering, old layouts.

The journal is the only durable artefact, so "crash mid-write" means
exactly one thing: the file ends at an arbitrary byte.  These tests cut
a journal at *every* byte offset of its last operation group and the
checkpoint mark behind it, and require recovery to land on the last
whole record every time.
"""

import json

import pytest

from persist_helpers import MOONS_PROGRAM, gateway_kwargs, task_payload

from repro.persist import (
    CHECKPOINT,
    JOURNAL_NAME,
    JournalError,
    RecoveryError,
    open_gateway,
    read_journal,
    recover_gateway,
    state_digest,
)
from repro.persist.journal import record_checksum
from repro.service.api import (
    CloseAppRequest,
    FeedRequest,
    JobStatusRequest,
    RegisterAppRequest,
    SetExampleEnabledRequest,
    SubmitTrainingRequest,
)


def build_history(state_dir, sync):
    """A journal crossing three checkpoints (cadence 4); the last op
    group is a primary, its effect record, and the mark behind them."""
    gateway, _ = open_gateway(
        state_dir, sync=sync, snapshot_every=4, **gateway_kwargs()
    )
    token = gateway.create_tenant("alice")
    gateway.handle(
        RegisterAppRequest(auth_token=token, app="moons",
                           program=MOONS_PROGRAM)
    )
    inputs, outputs = task_payload("moons", n=16)
    gateway.handle(
        FeedRequest(auth_token=token, app="moons", inputs=inputs,
                    outputs=outputs)
    )
    for i in range(6):
        gateway.handle(
            SetExampleEnabledRequest(
                auth_token=token, app="moons", example_id=i,
                enabled=bool(i % 2),
            )
        )
    gateway.handle(
        SubmitTrainingRequest(auth_token=token, app="moons", steps=1)
    )
    gateway.handle(CloseAppRequest(auth_token=token, app="moons"))
    gateway._commit()
    gateway.store.close()
    records = read_journal(state_dir / JOURNAL_NAME)[0]
    assert [r.type for r in records[-3:]] == [
        "app_closed", "app_retired", CHECKPOINT,
    ]
    assert sum(r.type == CHECKPOINT for r in records) == 3
    return records


@pytest.mark.parametrize("sync", ["group", "buffered"])
def test_cut_at_every_byte_of_the_last_group_and_its_mark(
    state_dir, tmp_path, sync
):
    records = build_history(state_dir, sync)
    config = (state_dir / "config.json").read_bytes()
    blob = (state_dir / JOURNAL_NAME).read_bytes()
    ends, position = [], 0  # byte offset one past each record's newline
    for line in blob.splitlines(keepends=True):
        position += len(line)
        ends.append(position)
    assert position == len(blob)
    group_start = ends[-4]  # the last group: three records

    for cut in range(group_start, len(blob) + 1):
        crashed = tmp_path / f"cut-{cut}"
        crashed.mkdir()
        (crashed / "config.json").write_bytes(config)
        journal = crashed / JOURNAL_NAME
        journal.write_bytes(blob[:cut])
        inode = journal.stat().st_ino
        whole = [r for r, end in zip(records, ends) if end <= cut]
        marks = [r for r in whole if r.type == CHECKPOINT]

        gateway, report = recover_gateway(crashed)
        assert report.n_journal_records == len(whole), cut
        assert report.dropped_tail == (0 if cut in ends else 1), cut
        # Two earlier marks always survive, so a digest is always
        # verified — at the newest mark that is still whole.
        assert report.digest_verified, cut
        assert report.checkpoint_seq == marks[-1].seq, cut
        closed = any(r.type == "app_closed" for r in whole)
        assert gateway.server.get_app("moons").closed is closed, cut
        # An effect record torn off behind its primary is re-journaled.
        torn_effect = whole[-1].type == "app_closed"
        assert report.final_seq == len(whole) + torn_effect, cut

        # Appends resume on the same file, right after the last record.
        gateway.create_tenant("bob")
        digest = state_digest(gateway)
        gateway.store.close()
        assert journal.stat().st_ino == inode, cut
        resumed, dropped = read_journal(journal)  # enforces contiguity
        assert dropped == 0, cut
        assert resumed[: len(whole)] == whole, cut
        appended = resumed[report.final_seq]  # the first new record
        assert appended.type == "tenant_created", cut
        assert appended.seq == report.final_seq + 1, cut

        again, second = recover_gateway(crashed)
        assert state_digest(again) == digest, cut
        assert second.dropped_tail == 0, cut
        assert second.checkpoint_seq >= report.checkpoint_seq, cut
        again.store.close()


def test_checksum_consistent_tamper_before_the_mark_is_refused(state_dir):
    records = build_history(state_dir, "buffered")
    journal = state_dir / JOURNAL_NAME
    lines = journal.read_text().splitlines()
    # Flip one refine toggle and re-seal its CRC: every line still
    # validates, replay runs clean, and only the digest can tell.
    index = next(
        i for i, r in enumerate(records) if r.type == "example_toggled"
    )
    record = json.loads(lines[index])
    record["payload"]["enabled"] = not record["payload"]["enabled"]
    record["crc"] = record_checksum(
        record["seq"], record["type"], record["payload"]
    )
    lines[index] = json.dumps(record)
    journal.write_text("\n".join(lines) + "\n")
    read_journal(journal)  # the file itself is valid
    with pytest.raises(RecoveryError, match="state digest"):
        recover_gateway(state_dir)


def test_mark_inside_an_operation_group_is_refused(state_dir):
    """A checkpoint must sit on a group boundary: one wedged between a
    primary and its effect record means the log was spliced."""
    records = build_history(state_dir, "buffered")
    journal = state_dir / JOURNAL_NAME
    lines = journal.read_text().splitlines()
    mark, effect = json.loads(lines[-1]), json.loads(lines[-2])
    mark["seq"], effect["seq"] = effect["seq"], mark["seq"]
    for record in (mark, effect):
        record["crc"] = record_checksum(
            record["seq"], record["type"], record["payload"]
        )
    lines[-2:] = [json.dumps(mark), json.dumps(effect)]
    journal.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecoveryError, match="splits an operation group"):
        recover_gateway(state_dir)


def test_legacy_snapshot_directory_is_refused(state_dir):
    """The old format truncated the journal past each snapshot file, so
    its journal alone is not the history: never replay it."""
    build_history(state_dir, "buffered")
    (state_dir / "snapshot-000000000010.json").write_text("{}")
    with pytest.raises(JournalError, match="snapshot-file format") as info:
        recover_gateway(state_dir)
    assert "\n" not in str(info.value)
    assert "snapshot-000000000010.json" in str(info.value)

    from repro.replica import ReadReplica

    with pytest.raises(JournalError, match="snapshot-file format"):
        ReadReplica(state_dir).start()
    # The refusal released the writer lock it had taken.
    (state_dir / "snapshot-000000000010.json").unlink()
    recover_gateway(state_dir)[0].store.close()


@pytest.mark.parametrize("stored", [True, False])
def test_stored_shard_read_locks_key_is_ignored(state_dir, stored):
    """Every directory written before the lock-discipline toggle was
    removed carries its key in config.json: recovery and a follower
    ignore it — same history, same digest."""
    build_history(state_dir, "buffered")
    gateway, report = recover_gateway(state_dir)
    gateway.store.close()
    before = state_digest(gateway)
    assert report.digest_verified

    path = state_dir / "config.json"
    config = json.loads(path.read_text())
    assert "shard_read_locks" not in config
    config["shard_read_locks"] = stored
    path.write_text(json.dumps(config))

    gateway, report = recover_gateway(state_dir)
    gateway.store.close()
    assert "digest verified" in report.describe()
    assert state_digest(gateway) == before

    from repro.replica import ReadReplica

    replica = ReadReplica(state_dir)
    replica._apply(replica.tailer.seed())
    assert state_digest(replica.gateway) == before


def test_a_mark_behind_every_operation_group_verifies_on_a_follower(
    state_dir,
):
    """Cadence 1 puts a checkpoint behind every group — feeds, submits,
    polls that complete jobs, a close, a retirement — and a replica
    that steps after each one verifies every digest at its own seq:
    the live state at an op boundary is exactly what replay reaches."""
    from repro.replica import ReadReplica

    gateway, _ = open_gateway(
        state_dir, sync="buffered", snapshot_every=1, **gateway_kwargs()
    )
    replica = ReadReplica(state_dir)
    replica._apply(replica.tailer.seed())

    def follow():
        while replica.step():  # replay raises on any digest mismatch
            pass
        assert replica.tailer.checkpoint_seq == gateway.store.last_seq
        assert state_digest(replica.gateway) == state_digest(gateway)

    tokens = {}
    for tenant, app in (("alice", "moons"), ("bob", "moons-b")):
        tokens[tenant] = token = gateway.create_tenant(tenant)
        follow()
        gateway.handle(
            RegisterAppRequest(auth_token=token, app=app,
                               program=MOONS_PROGRAM)
        )
        follow()
        inputs, outputs = task_payload("moons", n=20)
        gateway.handle(
            FeedRequest(auth_token=token, app=app, inputs=inputs,
                        outputs=outputs)
        )
        follow()
    for tenant, app in (("alice", "moons"), ("bob", "moons-b")):
        token = tokens[tenant]
        handles = gateway.handle(
            SubmitTrainingRequest(auth_token=token, app=app, steps=2)
        ).handles
        follow()
        for handle in handles:
            while not gateway.handle(
                JobStatusRequest(auth_token=token, job_id=handle.job_id)
            ).done:
                follow()
            follow()
    gateway.handle(CloseAppRequest(auth_token=tokens["bob"], app="moons-b"))
    follow()
    gateway.retire_tenant("alice")
    follow()
    gateway.store.close()
    types = {r.type for r in read_journal(state_dir / JOURNAL_NAME)[0]}
    assert {"job_completed", "app_retired", "tenant_retired"} <= types
