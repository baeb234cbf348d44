"""Cross-request coalescing: a work-conserving convoy per app.

The journal's group-commit idea applied to predict.  Per app at most
one flush is in flight.  A request that finds the app idle flushes at
once; requests that arrive while a flush runs park, and the first of
them leads the next flush the moment the running one finishes, taking
*every* parked entry as one vectorized predict.  Batch size is
therefore arrival rate x predict time by construction: a request
never waits on a clock, an idle app adds no latency at all, and under
load the added latency is bounded by one predict.

An operator may still put an explicit timer in front of the convoy
(``window`` > 0): a leader then waits until its own request is
``window`` seconds old — or ``max_batch`` rows are parked — before it
flushes.  ``max_batch`` is that early-flush trigger, not a cap: a
flush always takes every parked entry (a partial take would strand the
remainder with no leader thread to flush it).

The queue is bounded: past :data:`MAX_PARKED` parked requests
``submit`` refuses with ``QUOTA_EXCEEDED`` (HTTP 429 + ``Retry-After``)
instead of letting a slow model grow the convoy without limit.

A caller that must not park (the HTTP frontend's event loop) submits
with ``may_block=False``: the request then leads a flush on the
calling thread only when that flush cannot wait on anything — no timer,
no flush in flight, and a cost estimate from the last flush saying the
predict fits :data:`INLINE_FLUSH_SECONDS` — and ``submit`` returns
None otherwise, before touching the queue.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ApiError, ApiErrorCode

__all__ = ["BatchQueue"]

#: A parked rider gives up after this long; the leader answering every
#: rider (with predictions or the flush's error) makes this unreachable
#: in practice — it guards against a flush that never returns.
FOLLOWER_TIMEOUT = 60.0

#: Requests one app may have parked (the leader included) before
#: ``submit`` sheds load; far above what the frontend's worker pools
#: can park, so only a stalled model reaches it.
MAX_PARKED = 256

#: The longest predict (estimated from the last flush's seconds per
#: row) that ``submit(..., may_block=False)`` runs on the calling
#: thread.  A predict this cheap delays the loop's other connections
#: less than the loop -> worker -> loop round trip it saves (about
#: 0.5 ms: two thread wake-ups and two GIL hand-offs).
INLINE_FLUSH_SECONDS = 0.001


def _own_copy(exc: BaseException) -> BaseException:
    """A rider's own instance of the flush's failure.

    N threads re-raising one object would race on its traceback and on
    the ``request_id`` the frontend stamps on an :class:`ApiError`.
    """
    clone = type(exc).__new__(type(exc))
    clone.args = exc.args
    clone.__dict__.update(exc.__dict__)
    return clone


class _Entry:
    """One parked request: its rows, and the flush's answer for them."""

    __slots__ = ("rows", "arrived", "result", "meta", "error", "lead", "ready")

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self.arrived = time.perf_counter()
        self.result: Optional[np.ndarray] = None
        self.meta: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None
        #: Set (with ``ready``) when this parked rider inherits the lead.
        self.lead = False
        self.ready = threading.Event()


class BatchQueue:
    """Single-flight coalescing convoy for one app.

    ``execute`` is the vectorized predict: ``execute(X) ->
    (predictions, meta)`` where ``meta`` is a dict (at least ``model``
    and ``model_version``); the queue adds ``batch_rows`` /
    ``batch_requests`` and each request's own ``waited`` seconds
    (arrival to the start of the flush that answered it) before handing
    the request its slice.
    """

    def __init__(
        self,
        execute: Callable[[np.ndarray], Tuple[np.ndarray, Dict[str, Any]]],
        *,
        window: float = 0.0,
        max_batch: int = 64,
        on_flush: Optional[Callable[..., None]] = None,
    ) -> None:
        self._execute = execute
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._on_flush = on_flush
        self._lock = threading.Lock()
        self._parked: List[_Entry] = []
        self._parked_rows = 0
        #: True from the moment a leader is chosen until its flush has
        #: finished and found nobody parked behind it.
        self._in_flight = False
        self._full = threading.Event()
        self._last_flush_seconds = 0.0
        #: Seconds per row of the last flush; None until a flush of
        #: the served model has been timed (see :meth:`forget_cost`).
        self._seconds_per_row: Optional[float] = None
        #: Bumped by :meth:`forget_cost`, so a flush that started
        #: before it cannot re-arm the estimate afterwards.
        self._cost_epoch = 0

    def submit(
        self, X: np.ndarray, *, may_block: bool = True
    ) -> Optional[Tuple[np.ndarray, Dict[str, Any]]]:
        """Answer ``X`` (one request's rows) with its predictions.

        Called from the request's own thread (the HTTP frontend gives
        each infer request one); the thread leads a flush at once when
        the app is idle, else parks until a flush answers it or hands
        it the lead.

        With ``may_block=False`` it returns None instead of parking —
        and instead of leading a flush that could wait on a timer or
        that has no measured cost under :data:`INLINE_FLUSH_SECONDS`.
        """
        entry = _Entry(X)
        with self._lock:
            if not may_block and (
                self.window > 0.0
                or self._in_flight
                or self._seconds_per_row is None
                or self._seconds_per_row * len(X) > INLINE_FLUSH_SECONDS
            ):
                return None
            if len(self._parked) >= MAX_PARKED:
                raise ApiError(
                    ApiErrorCode.QUOTA_EXCEEDED,
                    f"infer queue is full ({MAX_PARKED} requests parked "
                    "behind a running predict); retry shortly",
                    parked=len(self._parked),
                    retry_after=round(self._last_flush_seconds, 3),
                )
            self._parked.append(entry)
            self._parked_rows += len(X)
            lead = not self._in_flight
            if lead:
                self._in_flight = True
            elif self._parked_rows >= self.max_batch:
                self._full.set()  # enough rows: end a timer wait early
        if lead:
            return self._lead(entry)
        if not entry.ready.wait(timeout=FOLLOWER_TIMEOUT):
            with self._lock:
                # Handing over the lead happens under this lock, so an
                # unset event here means nobody is counting on us.
                if not entry.ready.is_set():
                    if entry in self._parked:
                        self._parked.remove(entry)
                        self._parked_rows -= len(X)
                    raise ApiError(
                        ApiErrorCode.INTERNAL,
                        "coalesced infer batch was not flushed within "
                        f"{FOLLOWER_TIMEOUT:g}s; retry the request",
                    )
        if entry.error is not None:
            raise _own_copy(entry.error)
        if entry.lead:
            return self._lead(entry)
        return entry.result, entry.meta

    def _lead(
        self, own: _Entry
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        if self.window > 0.0:
            remaining = own.arrived + self.window - time.perf_counter()
            if remaining > 0.0 and self._parked_rows < self.max_batch:
                self._full.wait(timeout=remaining)
        with self._lock:
            batch, self._parked = self._parked, []
            self._parked_rows = 0
            self._full.clear()
            epoch = self._cost_epoch
        started = time.perf_counter()
        try:
            if len(batch) == 1:
                X_all = batch[0].rows
            else:
                X_all = np.concatenate([e.rows for e in batch], axis=0)
            predictions, meta = self._execute(X_all)
        except BaseException as exc:
            for e in batch:
                if e is not own:
                    e.error = exc
                    e.ready.set()
            raise
        finally:
            # Whatever execute did, the app must not stay marked busy:
            # the first rider parked meanwhile leads the next flush.
            with self._lock:
                if self._parked:
                    self._parked[0].lead = True
                    self._parked[0].ready.set()
                else:
                    self._in_flight = False
        duration = time.perf_counter() - started
        self._last_flush_seconds = duration
        with self._lock:
            if epoch == self._cost_epoch:
                self._seconds_per_row = duration / max(len(X_all), 1)
        waits = [started - e.arrived for e in batch]
        offset = 0
        for e, waited in zip(batch, waits):
            k = len(e.rows)
            e.result = predictions[offset:offset + k]
            e.meta = dict(
                meta,
                batch_rows=len(X_all),
                batch_requests=len(batch),
                waited=waited,
            )
            offset += k
            if e is not own:
                e.ready.set()
        if self._on_flush is not None:
            self._on_flush(
                rows=len(X_all),
                requests=len(batch),
                seconds=duration,
                waits=waits,
            )
        return own.result, own.meta

    def forget_cost(self) -> None:
        """Drop the cost estimate (the served model changed): the next
        flush is timed on a thread that may block before any caller
        that may not is let lead one."""
        with self._lock:
            self._seconds_per_row = None
            self._cost_epoch += 1
