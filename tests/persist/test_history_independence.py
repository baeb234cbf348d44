"""The write path does not depend on history (no wall clock needed).

Regression for the defect the benchmark found: a "snapshot" used to
re-serialise every record ever journaled, so each one cost more than
the last.  Here 2 000 records cross 100+ checkpoints and every
checkpoint must cost the same bytes, in the same file, with nothing
held per record — and the readers of that file (tailer, replica,
recovery, promotion) must follow it the whole way.
"""

from persist_helpers import MOONS_PROGRAM, gateway_kwargs, task_payload

from repro.persist import (
    CHECKPOINT,
    JOURNAL_NAME,
    open_gateway,
    read_journal,
    recover_gateway,
    state_digest,
)
from repro.replica import ReadReplica, WalTailer
from repro.service.api import (
    FeedRequest,
    RegisterAppRequest,
    SetExampleEnabledRequest,
)

N_RECORDS = 2000
CADENCE = 16


def test_two_thousand_records_one_file_constant_checkpoints(state_dir):
    gateway, _ = open_gateway(
        state_dir, sync="buffered", snapshot_every=CADENCE,
        **gateway_kwargs(),
    )
    store = gateway.store
    journal = state_dir / JOURNAL_NAME
    inode = journal.stat().st_ino

    tailer = WalTailer(state_dir)
    assert not tailer.seed()  # started at record 0
    replica = ReadReplica(state_dir)
    replica._apply(replica.tailer.seed())

    # Measure each automatic checkpoint from outside the store.
    checkpoint_bytes = []
    take = store.snapshot

    def measured(digest):
        before = journal.stat().st_size
        mark = take(digest)
        checkpoint_bytes.append(journal.stat().st_size - before)
        return mark

    store.snapshot = measured

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
    size = journal.stat().st_size
    tailed = 0
    while store.last_seq < N_RECORDS:
        i = store.last_seq
        if i % 7 == 0:
            token = gateway.rotate_token("alice")
        else:
            gateway.handle(
                SetExampleEnabledRequest(
                    auth_token=token, app="moons", example_id=i % 16,
                    enabled=bool(i % 3),
                )
            )
        grown = journal.stat().st_size
        assert grown > size  # never shrinks, never stalls
        size = grown
        if i % 97 == 0:  # followers keep up through the marks
            tailed += len(tailer.poll().records)
            replica.step()
    assert journal.stat().st_ino == inode
    assert sorted(p.name for p in state_dir.iterdir()) == [
        "config.json", JOURNAL_NAME, "lock",
    ]

    # O(1) checkpoints: the hundredth costs what the first did (the
    # seq grew by three digits; one record is ~125 bytes).
    assert len(checkpoint_bytes) >= 100
    assert abs(checkpoint_bytes[-1] - checkpoint_bytes[0]) <= 4
    assert max(checkpoint_bytes) < 160
    # ...and nothing accumulates per record in the writer.
    for holder in (store, store.journal):
        for name, value in vars(holder).items():
            assert not isinstance(value, (list, tuple, dict, set)), name

    live = state_digest(gateway)
    last_seq = store.last_seq
    store.close()

    tailed += len(tailer.poll().records)
    assert tailed == tailer.emitted_seq == last_seq
    records = read_journal(journal)[0]
    marks = [r.seq for r in records if r.type == CHECKPOINT]
    assert len(marks) == len(checkpoint_bytes)
    assert tailer.checkpoint_seq == marks[-1]

    recovered, report = recover_gateway(state_dir)
    assert report.digest_verified and report.checkpoint_seq == marks[-1]
    assert state_digest(recovered) == live
    recovered.store.close()

    while replica.step():
        pass
    assert replica.applied_seq == last_seq
    assert state_digest(replica.gateway) == live
    assert not hasattr(replica, "_history")

    # Promotion opens the same file for append at the frontier.
    replica.promote()
    replica.gateway.create_tenant("bob")
    promoted = state_digest(replica.gateway)
    replica.gateway.store.close()
    assert journal.stat().st_ino == inode
    assert journal.stat().st_size > size
    assert read_journal(journal)[0][:last_seq] == records
    again, _ = recover_gateway(state_dir)
    assert state_digest(again) == promoted
    again.store.close()
