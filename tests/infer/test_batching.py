"""The work-conserving coalescing convoy.

None of these tests depends on how long anything takes: concurrency is
staged with a gated ``execute`` (it blocks on an event the test
releases) and by watching riders park, never by sleeping.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ApiError, ApiErrorCode
from repro.infer import BatchQueue, batching
from repro.service.http import error_headers

META = {"model": "m", "model_version": "v1"}
#: Upper bound on every join/park wait below; reaching it is a failure.
PATIENCE = 30.0


def row_sums(X):
    return X.sum(axis=1).astype(np.int64)


class Staged:
    """An ``execute`` whose flushes the test gates one by one.

    Records every flush's rows and the highest number of flushes that
    ever ran at once; ``gated`` flush indices block until ``release``;
    ``failing`` ones raise after their gate.
    """

    def __init__(self, gated=(), failing=()):
        self.calls = []
        self.gates = {i: threading.Event() for i in gated}
        self.failing = set(failing)
        self.running = 0
        self.max_running = 0
        self._lock = threading.Lock()

    def __call__(self, X):
        with self._lock:
            index = len(self.calls)
            self.calls.append(np.array(X))
            self.running += 1
            self.max_running = max(self.max_running, self.running)
        try:
            gate = self.gates.get(index)
            if gate is not None:
                assert gate.wait(PATIENCE), "test never released the gate"
            if index in self.failing:
                raise RuntimeError(f"model fell over in flush {index}")
            return row_sums(X), dict(META)
        finally:
            with self._lock:
                self.running -= 1

    def release(self, index):
        self.gates[index].set()


class Riders:
    """Request threads against one queue, started one at a time."""

    def __init__(self, queue):
        self.queue = queue
        self.threads = []
        self.results = {}
        self.errors = {}

    def start(self, name, X):
        def run():
            try:
                self.results[name] = self.queue.submit(X)
            except BaseException as exc:  # noqa: BLE001 - asserted on
                self.errors[name] = exc

        thread = threading.Thread(target=run)
        thread.start()
        self.threads.append(thread)

    def join(self):
        for thread in self.threads:
            thread.join(PATIENCE)
            assert not thread.is_alive(), "a rider never came back"


def wait_until(condition):
    deadline = time.monotonic() + PATIENCE
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def one_row(i):
    return np.array([[float(i), 1.0]])


def stage_convoy(queue, execute, n_parked):
    """A leader blocked in flush 0 with ``n_parked`` riders behind it."""
    riders = Riders(queue)
    riders.start(0, one_row(0))
    wait_until(lambda: execute.running == 1)
    for i in range(1, n_parked + 1):
        riders.start(i, one_row(i))
    wait_until(lambda: len(queue._parked) == n_parked)
    return riders


class TestConvoy:
    def test_idle_queue_flushes_alone_without_a_timer(self, monkeypatch):
        class NoWaiting(threading.Event):
            def wait(self, timeout=None):
                raise AssertionError("the default mode waited on an event")

        class Threading:
            Lock = threading.Lock
            Event = NoWaiting

        monkeypatch.setattr(batching, "threading", Threading)
        execute = Staged()
        queue = BatchQueue(execute)
        predictions, meta = queue.submit(
            np.array([[1.0, 2.0], [3.0, 4.0]])
        )
        assert predictions.tolist() == [3, 7]
        assert meta["batch_rows"] == 2
        assert meta["batch_requests"] == 1
        assert meta["waited"] >= 0.0
        assert meta["model_version"] == "v1"
        assert len(execute.calls) == 1

    def test_one_flush_in_flight_and_the_next_takes_every_rider(self):
        n = 9
        execute = Staged(gated=[0])
        queue = BatchQueue(execute)
        riders = stage_convoy(queue, execute, n - 1)
        # Nothing but the leader's own flush started while it ran.
        assert len(execute.calls) == 1
        execute.release(0)
        riders.join()
        assert not riders.errors
        assert execute.max_running == 1
        assert [len(c) for c in execute.calls] == [1, n - 1]
        for i in range(n):
            predictions, meta = riders.results[i]
            assert predictions.tolist() == [i + 1]
            assert meta["batch_requests"] == (1 if i == 0 else n - 1)
        assert not queue._in_flight and not queue._parked

    def test_failed_flush_fails_only_its_own_batch(self):
        execute = Staged(gated=[0], failing=[0])
        queue = BatchQueue(execute)
        riders = stage_convoy(queue, execute, 2)
        execute.release(0)
        riders.join()
        # The leader's flush raised; the riders parked behind it were
        # not part of it and ride the next, healthy flush.
        assert list(riders.errors) == [0]
        assert "flush 0" in str(riders.errors[0])
        assert riders.results[1][0].tolist() == [2]
        assert riders.results[2][0].tolist() == [3]
        assert execute.max_running == 1

    def test_every_rider_of_a_failed_flush_gets_its_own_error(self):
        execute = Staged(gated=[0], failing=[1])
        queue = BatchQueue(execute)
        riders = stage_convoy(queue, execute, 3)
        execute.release(0)
        riders.join()
        assert riders.results[0][0].tolist() == [1]
        assert sorted(riders.errors) == [1, 2, 3]
        errors = list(riders.errors.values())
        assert len({id(e) for e in errors}) == 3
        assert all(type(e) is RuntimeError for e in errors)
        assert all("flush 1" in str(e) for e in errors)
        # A raising execute never wedges the app.
        predictions, _ = queue.submit(one_row(5))
        assert predictions.tolist() == [6]

    def test_api_error_copies_keep_code_and_details(self):
        error = ApiError(
            ApiErrorCode.FAILED_PRECONDITION, "no model", app="a"
        )
        clone = batching._own_copy(error)
        assert clone is not error
        assert clone.code is ApiErrorCode.FAILED_PRECONDITION
        assert clone.details == {"app": "a"}
        assert str(clone) == "no model"

    def test_depth_bound_refuses_with_retry_after(self, monkeypatch):
        monkeypatch.setattr(batching, "MAX_PARKED", 3)
        execute = Staged(gated=[1])
        queue = BatchQueue(execute)
        queue.submit(one_row(9))  # flush 0: measures a flush time
        riders = Riders(queue)
        riders.start(0, one_row(0))
        wait_until(lambda: execute.running == 1)
        for i in range(1, 4):
            riders.start(i, one_row(i))
        wait_until(lambda: len(queue._parked) == 3)
        with pytest.raises(ApiError) as err:
            queue.submit(one_row(4))
        assert err.value.code is ApiErrorCode.QUOTA_EXCEEDED
        assert err.value.http_status == 429
        assert err.value.details["retry_after"] == round(
            queue._last_flush_seconds, 3
        )
        assert int(error_headers(err.value)["Retry-After"]) >= 1
        # Shedding cost the admitted riders nothing.
        execute.release(1)
        riders.join()
        assert not riders.errors
        assert sorted(riders.results) == [0, 1, 2, 3]

    def test_rider_gives_up_on_a_flush_that_never_returns(
        self, monkeypatch
    ):
        monkeypatch.setattr(batching, "FOLLOWER_TIMEOUT", 0.05)
        execute = Staged(gated=[0])
        queue = BatchQueue(execute)
        riders = Riders(queue)
        riders.start(0, one_row(0))
        wait_until(lambda: execute.running == 1)
        with pytest.raises(ApiError) as err:
            queue.submit(one_row(1))
        assert err.value.code is ApiErrorCode.INTERNAL
        assert err.value.http_status == 500
        assert not queue._parked  # withdrawn: nobody flushes a ghost
        execute.release(0)
        riders.join()
        assert riders.results[0][0].tolist() == [1]
        assert len(execute.calls) == 1

    @settings(max_examples=20, deadline=None)
    @given(
        row_counts=st.lists(
            st.integers(min_value=1, max_value=6), min_size=1, max_size=12
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_rider_gets_exactly_its_own_predictions(
        self, row_counts, seed
    ):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=3)

        def execute(X):
            return np.floor(X @ weights * 1e6).astype(np.int64), dict(META)

        matrices = [rng.normal(size=(k, 3)) for k in row_counts]
        queue = BatchQueue(execute)
        riders = Riders(queue)
        for i, X in enumerate(matrices):
            riders.start(i, X)
        riders.join()
        assert not riders.errors
        for i, X in enumerate(matrices):
            predictions, _ = riders.results[i]
            assert np.array_equal(predictions, execute(X)[0])


class TestExplicitTimer:
    def test_row_target_ends_the_timer_early(self):
        execute = Staged()
        n = 8
        # Only all n riders together reach the row target, so the one
        # flush proves both that the leader waited for company and
        # that the target (not the 60 s timer) ended the wait.
        queue = BatchQueue(execute, window=60.0, max_batch=n)
        riders = Riders(queue)
        for i in range(n):
            riders.start(i, one_row(i))
        riders.join()
        assert not riders.errors
        assert [len(c) for c in execute.calls] == [n]
        for i in range(n):
            assert riders.results[i][0].tolist() == [i + 1]


class TestNonBlockingSubmit:
    """``submit(X, may_block=False)``: lead a flush on the calling
    thread only when it cannot wait on anything, else return None
    without touching the queue.  The budget is monkeypatched to either
    extreme, so no outcome depends on how long a flush takes."""

    @pytest.fixture
    def cheap(self, monkeypatch):
        monkeypatch.setattr(batching, "INLINE_FLUSH_SECONDS", 1e9)

    @staticmethod
    def timed(queue):
        """Run one blocking flush so the queue has a cost estimate."""
        predictions, _ = queue.submit(one_row(0))
        assert predictions.tolist() == [1]

    def test_untimed_queue_refuses_without_touching_it(self, cheap):
        execute = Staged()
        queue = BatchQueue(execute)
        assert queue.submit(one_row(1), may_block=False) is None
        assert execute.calls == []
        assert not queue._in_flight and not queue._parked

    def test_timed_cheap_flush_leads_on_the_caller(self, cheap):
        flushes = []
        execute = Staged()
        queue = BatchQueue(
            execute, on_flush=lambda **kw: flushes.append(kw["requests"])
        )
        self.timed(queue)
        predictions, meta = queue.submit(one_row(4), may_block=False)
        assert predictions.tolist() == [5]
        assert meta["batch_requests"] == 1
        assert flushes == [1, 1]  # metrics as for any other flush
        assert not queue._in_flight

    def test_refuses_behind_a_flush_in_flight(self, cheap):
        execute = Staged(gated=[1])
        queue = BatchQueue(execute)
        self.timed(queue)
        riders = Riders(queue)
        riders.start("leader", one_row(1))
        wait_until(lambda: execute.running == 1)
        assert queue.submit(one_row(2), may_block=False) is None
        assert queue._parked == []
        execute.release(1)
        riders.join()
        assert [len(c) for c in execute.calls] == [1, 1]

    def test_refuses_over_budget(self, monkeypatch):
        monkeypatch.setattr(batching, "INLINE_FLUSH_SECONDS", -1.0)
        execute = Staged()
        queue = BatchQueue(execute)
        self.timed(queue)
        assert queue.submit(one_row(1), may_block=False) is None
        assert len(execute.calls) == 1

    def test_refuses_with_a_timer(self, cheap):
        execute = Staged()
        queue = BatchQueue(execute, window=60.0, max_batch=1)
        self.timed(queue)  # one row reaches the target: no timer wait
        assert queue.submit(one_row(1), may_block=False) is None
        assert len(execute.calls) == 1

    def test_forgotten_cost_is_not_rearmed_by_an_older_flush(self, cheap):
        execute = Staged(gated=[1])
        queue = BatchQueue(execute)
        self.timed(queue)
        riders = Riders(queue)
        riders.start("old model", one_row(1))
        wait_until(lambda: execute.running == 1)
        queue.forget_cost()  # a promotion while flush 1 runs
        execute.release(1)
        riders.join()
        # Flush 1 started before the promotion: its time says nothing
        # about the new model.  The next blocking flush re-arms.
        assert queue.submit(one_row(2), may_block=False) is None
        self.timed(queue)
        predictions, _ = queue.submit(one_row(3), may_block=False)
        assert predictions.tolist() == [4]
