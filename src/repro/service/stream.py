"""Server-push event streaming (the SSE backend).

:class:`EventBroker` is a tiny fan-out hub the gateway publishes
serving-plane notifications into — job completions and model
promotions today; anything else tomorrow.  Each subscriber owns a
bounded queue; a slow consumer loses its *oldest* pending events
(counted per subscription) rather than stalling the publisher, which
may be holding the gateway lock.

Transport lives elsewhere: the HTTP frontend drains a
:class:`Subscription` from a worker thread and writes
``text/event-stream`` frames (``GET /v1/events?stream=1``).
"""

from __future__ import annotations

import json
import queue
import threading
from typing import Any, Dict, List, Optional

__all__ = ["EventBroker", "Subscription", "sse_frame"]

#: Pending events one subscriber may buffer before drop-oldest kicks
#: in; SSE consumers that fall further behind than this are browsing,
#: not listening.
SUBSCRIPTION_BUFFER = 256


class Subscription:
    """One subscriber's bounded event queue."""

    def __init__(
        self, broker: "EventBroker", tenant: Optional[str], buffer: int
    ) -> None:
        self._broker = broker
        #: When set, only events for this tenant (or with no tenant at
        #: all) are delivered.
        self.tenant = tenant
        self._queue: "queue.Queue[Dict[str, Any]]" = queue.Queue(
            maxsize=buffer
        )
        self.dropped = 0
        self.closed = False

    def _offer(self, event: Dict[str, Any]) -> None:
        while True:
            try:
                self._queue.put_nowait(event)
                return
            except queue.Full:
                try:
                    self._queue.get_nowait()
                    self.dropped += 1
                except queue.Empty:  # pragma: no cover - racing consumer
                    pass

    def get(self, timeout: float = 1.0) -> Optional[Dict[str, Any]]:
        """Next event, or None after ``timeout`` seconds of silence
        (the SSE loop uses the None beat to emit keep-alives and check
        for shutdown)."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        self.closed = True
        self._broker._unsubscribe(self)


class EventBroker:
    """Publish/subscribe hub for server-push notifications."""

    def __init__(self, buffer: int = SUBSCRIPTION_BUFFER) -> None:
        self._buffer = int(buffer)
        self._lock = threading.Lock()
        self._subscriptions: List[Subscription] = []
        #: Monotonic sequence number stamped on every event.
        self._seq = 0

    def subscribe(self, tenant: Optional[str] = None) -> Subscription:
        """Open a subscription; ``tenant`` scopes delivery to that
        tenant's events (plus tenant-less broadcasts)."""
        sub = Subscription(self, tenant, self._buffer)
        with self._lock:
            self._subscriptions.append(sub)
        return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            try:
                self._subscriptions.remove(sub)
            except ValueError:
                pass

    @property
    def n_subscribers(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    def publish(self, event_type: str, **payload: Any) -> int:
        """Fan an event out to every matching subscription; returns the
        number of subscribers offered the event.  Never blocks — safe
        to call while holding the gateway lock."""
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "event": event_type, **payload}
            targets = [
                s
                for s in self._subscriptions
                if s.tenant is None
                or payload.get("tenant") is None
                or s.tenant == payload.get("tenant")
            ]
        for sub in targets:
            sub._offer(event)
        return len(targets)


def sse_frame(event: Dict[str, Any]) -> bytes:
    """Encode one event as a Server-Sent Events frame."""
    body = json.dumps(event, separators=(",", ":"), sort_keys=True)
    return (
        f"id: {event.get('seq', 0)}\n"
        f"event: {event.get('event', 'message')}\n"
        f"data: {body}\n\n"
    ).encode("utf-8")
