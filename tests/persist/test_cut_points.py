"""Property: a crash at any record boundary rebuilds one state, whoever
rebuilds it.

Short random op sequences run against a ``buffered`` store; the journal
is then cut after every record, and on each prefix a cold start
(`recover_gateway`) and a follower that seeds and promotes must agree
with each other, with the live gateway wherever the cut falls on an
operation boundary, and with the next cold start of what they left on
disk.
"""

import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from persist_helpers import MOONS_PROGRAM, gateway_kwargs, task_payload

from repro.persist import (
    CHECKPOINT,
    JOURNAL_NAME,
    open_gateway,
    read_journal,
    recover_gateway,
    state_digest,
)
from repro.replica import ReadReplica
from repro.service import ApiError
from repro.service.api import (
    CloseAppRequest,
    FeedRequest,
    JobStatusRequest,
    RegisterAppRequest,
    SetExampleEnabledRequest,
    SubmitTrainingRequest,
)

KINDS = ("tenant", "register", "feed", "toggle", "submit", "poll", "close")


class Driver:
    """Runs generated ops; each one sets up whatever it needs first."""

    def __init__(self, gateway):
        self.gateway = gateway
        self.tokens = {}
        self.apps = []  # open (tenant, app) pairs
        self.examples = {}  # app -> [[example id, enabled], ...]
        self.handles = []  # (tenant, handle id)
        self.n_apps = 0
        #: journal seq at each operation boundary -> live state digest
        self.marks = {0: state_digest(gateway)}

    def _call(self, tenant, request_type, **fields):
        try:
            return self.gateway.handle(
                request_type(auth_token=self.tokens[tenant], **fields)
            )
        except ApiError:
            return None  # quota, too few examples: a refused op is fine
        finally:
            self._mark()

    def _mark(self):
        self.marks[self.gateway.store.last_seq] = state_digest(self.gateway)

    def tenant(self, arg):
        name = f"t{arg % 2}"
        if name in self.tokens:
            self.tokens[name] = self.gateway.rotate_token(name)
        else:
            self.tokens[name] = self.gateway.create_tenant(name)
        self._mark()
        return name

    def register(self, arg):
        name = f"t{arg % 2}"
        if name not in self.tokens:
            self.tenant(arg)
        app = f"app{self.n_apps}"
        self.n_apps += 1
        if self._call(
            name, RegisterAppRequest, app=app, program=MOONS_PROGRAM
        ):
            self.apps.append((name, app))

    def _app(self, arg, fed=False):
        """An open app (fed, if asked), or None when quotas refuse one."""
        if not self.apps:
            self.register(arg)
        if not self.apps:
            return None
        name, app = self.apps[arg % len(self.apps)]
        if fed and app not in self.examples:
            self._feed(name, app, arg)
        return (name, app) if not fed or app in self.examples else None

    def _feed(self, name, app, arg):
        inputs, outputs = task_payload("moons", n=12, seed=arg)
        fed = self._call(
            name, FeedRequest, app=app, inputs=inputs, outputs=outputs
        )
        if fed is not None:
            self.examples.setdefault(app, []).extend(
                [example_id, True] for example_id in fed.example_ids
            )

    def feed(self, arg):
        target = self._app(arg)
        if target:
            self._feed(*target, arg)

    def toggle(self, arg):
        target = self._app(arg, fed=True)
        if target:
            name, app = target
            example = self.examples[app][arg % len(self.examples[app])]
            example[1] = not example[1]
            self._call(
                name,
                SetExampleEnabledRequest,
                app=app,
                example_id=example[0],
                enabled=example[1],
            )

    def submit(self, arg):
        target = self._app(arg, fed=True)
        if target:
            response = self._call(
                target[0],
                SubmitTrainingRequest,
                app=target[1],
                steps=1 + arg % 2,
            )
            if response is not None:
                self.handles.extend(
                    (target[0], h.job_id) for h in response.handles
                )

    def poll(self, arg):
        if self.handles:
            name, handle = self.handles[arg % len(self.handles)]
            self._call(name, JobStatusRequest, job_id=handle)

    def close(self, arg):
        target = self._app(arg)
        if target:
            self.apps.remove(target)
            self._call(target[0], CloseAppRequest, app=target[1])


# ~5 s of tier-1 wall time: every example replays its journal four
# times per record boundary.
@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 7)),
        min_size=2,
        max_size=8,
    )
)
def test_every_record_boundary_is_a_safe_crash_point(tmp_path_factory, ops):
    root = tmp_path_factory.mktemp("cuts")
    live = root / "live"
    gateway, _ = open_gateway(
        live, sync="buffered", snapshot_every=5, **gateway_kwargs()
    )
    driver = Driver(gateway)
    for kind, arg in ops:
        getattr(driver, kind)(arg)
    gateway.store.close()
    records, dropped = read_journal(live / JOURNAL_NAME)
    assert dropped == 0
    marks = driver.marks
    for record in records:  # a checkpoint changes no state
        if record.type == CHECKPOINT and record.seq in marks:
            marks.setdefault(record.seq - 1, marks[record.seq])
    lines = (live / JOURNAL_NAME).read_bytes().splitlines(keepends=True)

    for cut in range(len(records) + 1):
        prefix = b"".join(lines[:cut])
        cold_dir, promoted_dir = root / f"cold-{cut}", root / f"promoted-{cut}"
        for state_dir in (cold_dir, promoted_dir):
            state_dir.mkdir()
            shutil.copy(live / "config.json", state_dir)
            (state_dir / JOURNAL_NAME).write_bytes(prefix)

        cold, report = recover_gateway(cold_dir)
        replica = ReadReplica(promoted_dir)
        replica.start()
        promotion = replica.promote()
        digest = state_digest(cold)
        assert state_digest(replica.gateway) == digest, cut
        assert promotion.final_seq == report.final_seq >= cut, cut
        assert report.n_journal_records == cut, cut
        assert report.dropped_tail == promotion.dropped_tail == 0, cut
        if cut in marks:  # an operation boundary: nothing acked is lost
            assert digest == marks[cut], cut
            assert report.final_seq == cut, cut
        cold.store.close()
        replica.gateway.store.close()

        for state_dir in (cold_dir, promoted_dir):
            blob = (state_dir / JOURNAL_NAME).read_bytes()
            assert blob.startswith(prefix), cut
            again, second = recover_gateway(state_dir)
            assert state_digest(again) == digest, cut
            assert second.final_seq == report.final_seq, cut
            again.store.close()
            assert (state_dir / JOURNAL_NAME).read_bytes() == blob, cut
