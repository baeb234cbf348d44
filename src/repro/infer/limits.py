"""Per-tenant admission control for the inference data plane.

A classic token bucket, counted in *rows* (a 64-row ``infer_batch``
spends 64 tokens): ``rate`` tokens refill per second up to ``burst``.
A request that cannot be covered right now is refused outright — the
gateway surfaces that as ``QUOTA_EXCEEDED`` (HTTP 429) with a
``retry_after`` hint computed from the refill rate, so well-behaved
SDKs back off for exactly as long as the deficit takes to refill
instead of hammering the endpoint.  A request larger than the whole
burst never reaches the bucket: no wait could cover it, so the
inference plane refuses it as ``INVALID_ARGUMENT`` (HTTP 400) and
asks for the batch to be split.

The bucket never *parks* a request: admission control exists to keep
one tenant's flood from growing every other tenant's coalescing queue,
and a parked request would occupy the very worker thread the plane is
trying to protect.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

__all__ = ["TokenBucket"]


class TokenBucket:
    """Thread-safe token bucket (tokens are inference rows)."""

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        #: Default burst: one second's worth of rows, but never less
        #: than a single row (a rate of 0.5 must still admit one).
        self.burst = float(burst if burst is not None else max(rate, 1.0))
        if self.burst < 1.0:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        self.clock = clock
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._refilled = clock()

    def try_acquire(self, n: int = 1) -> float:
        """Spend ``n`` tokens; returns 0.0 on success, else the number
        of seconds until the deficit refills (the Retry-After hint).

        A request larger than the whole burst can never succeed; its
        hint is the time to refill the full shortfall from empty.
        Callers refuse such a request before charging it (see the
        module docstring).
        """
        n = max(1, int(n))
        with self._lock:
            now = self.clock()
            self._tokens = min(
                self.burst,
                self._tokens + (now - self._refilled) * self.rate,
            )
            self._refilled = now
            if self._tokens >= n:
                self._tokens -= n
                return 0.0
            return (n - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Current token balance (refilled to now); for tests/metrics."""
        with self._lock:
            now = self.clock()
            self._tokens = min(
                self.burst,
                self._tokens + (now - self._refilled) * self.rate,
            )
            self._refilled = now
            return self._tokens
