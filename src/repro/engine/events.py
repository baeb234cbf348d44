"""Typed event log for simulation runs.

Every notable simulator action (job submitted / started / finished,
model returned to a user, scheduler switches strategy, …) is appended
as an :class:`Event`; experiments and tests query the log instead of
scraping stdout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)


class EventKind(str, Enum):
    """The vocabulary of simulator events."""

    JOB_SUBMITTED = "job_submitted"
    JOB_STARTED = "job_started"
    JOB_FINISHED = "job_finished"
    JOB_FAILED = "job_failed"
    JOB_PREEMPTED = "job_preempted"
    JOB_REQUEUED = "job_requeued"
    USER_ARRIVED = "user_arrived"
    USER_DEPARTED = "user_departed"
    MODEL_RETURNED = "model_returned"
    USER_PICKED = "user_picked"
    STRATEGY_SWITCHED = "strategy_switched"
    FEED = "feed"
    REFINE = "refine"
    INFER = "infer"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Event:
    """One timestamped event with a free-form payload."""

    time: float
    kind: EventKind
    payload: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event(t={self.time:.4g}, {self.kind.value}, {self.payload})"


class EventLog:
    """Append-only, time-ordered event store.

    ``capacity`` bounds the log to its newest ``capacity`` events, a
    ring in which each append past the bound drops the oldest event; a
    long-running service keeps its log this way.  ``None`` (the
    default) keeps every event, as traces and their goldens need.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: Union[List[Event], Deque[Event]] = (
            [] if capacity is None else deque(maxlen=capacity)
        )

    def append(
        self,
        time: float,
        kind: EventKind,
        **payload: Any,
    ) -> Event:
        """Record an event; time must not precede the last event."""
        if self._events and time < self._events[-1].time - 1e-12:
            raise ValueError(
                f"event at t={time} precedes the last event at "
                f"t={self._events[-1].time}"
            )
        event = Event(float(time), EventKind(kind), dict(payload))
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._scan())

    def _scan(self) -> Union[List[Event], tuple]:
        """The events to scan while another thread may append.

        A list iterator tolerates appends, but a deque iterator raises
        once the deque changes, so a ring is first copied to a tuple
        (one C call, no Python code in between).
        """
        if self.capacity is None:
            return self._events
        return tuple(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def of_kind(self, kind: EventKind) -> List[Event]:
        """All events of one kind, in time order."""
        return self.filter(kind)

    def filter(
        self,
        kind: Union[EventKind, str, Iterable[EventKind], None] = None,
        *,
        predicate: Optional[Callable[[Event], bool]] = None,
        **payload: Any,
    ) -> List[Event]:
        """Events matching a kind (or several), payload values and predicate.

        ``kind`` may be a single :class:`EventKind` (or its string
        value) or an iterable of them; keyword arguments must match the
        event payload exactly (``log.filter(EventKind.JOB_FINISHED,
        user=3)``).  The trace tooling in :mod:`repro.runtime.trace`
        uses this to slice execution logs before serialising them.
        """
        if kind is None:
            kinds = None
        elif isinstance(kind, (EventKind, str)):
            kinds = {EventKind(kind)}
        else:
            kinds = {EventKind(k) for k in kind}
        out = []
        for event in self._scan():
            if kinds is not None and event.kind not in kinds:
                continue
            if any(
                key not in event.payload or event.payload[key] != value
                for key, value in payload.items()
            ):
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def between(
        self, start: float, end: float, kind: Optional[EventKind] = None
    ) -> List[Event]:
        """Events with ``start <= time < end``, optionally filtered."""
        out = [e for e in self._scan() if start <= e.time < end]
        if kind is not None:
            kind = EventKind(kind)
            out = [e for e in out if e.kind is kind]
        return out

    def last(self, kind: Optional[EventKind] = None) -> Optional[Event]:
        """Most recent event (of a kind), or ``None``."""
        if kind is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._scan()):
            if event.kind is EventKind(kind):
                return event
        return None
