"""The inference data plane: admission -> cache -> coalescing queue.

One :class:`InferPlane` hangs off the service gateway and owns, per
app, a :class:`~repro.infer.batching.BatchQueue` (the work-conserving
convoy) plus one shared :class:`~repro.infer.cache.PredictionCache`
and per-tenant :class:`~repro.infer.limits.TokenBucket` rate limits.
The gateway's ``_infer`` hands it validated ``(B, n)`` batches.

An infer has two halves, split by whether they can block:

* :meth:`InferPlane.admit` and :meth:`InferPlane.probe` are pure CPU
  behind short critical sections — the token bucket, one peek at the
  served ``(model, version)``, one cache lookup.  The HTTP frontend
  runs them on its event loop; when every row hits, the request is
  answered there and never costs a thread hop.
* :meth:`InferPlane.predict` with a miss may park behind a running
  flush and runs the single vectorized predict under the gateway lock.
  With ``may_block=False`` it flushes on the calling thread only when
  the app's convoy is idle and its last flush was timed cheap (see
  :meth:`BatchQueue.submit <repro.infer.batching.BatchQueue.submit>`),
  and otherwise returns None, so the request goes to a worker thread.
  It takes the probe's products (hit/miss split, row keys, peeked
  version) instead of looking up again: one lookup per request,
  whichever thread finishes it.  A promotion (:meth:`invalidate_app`)
  drops the cost estimate with the cached rows, so every model
  version's first flush runs where it may block.

The plane is configured once at construction and reconfigured whole
(:meth:`ServiceGateway.configure_infer_plane`) rather than mutated
knob-by-knob, so a running server's queues never see half-applied
settings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from threading import Lock
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ApiError, ApiErrorCode
from repro.infer.batching import BatchQueue
from repro.infer.cache import PredictionCache
from repro.infer.limits import TokenBucket
from repro.obs.tracing import add_span

__all__ = ["InferPlane", "InferPlaneConfig", "parse_batch_window"]

#: Rows-per-flush histogram bounds (powers of two; flushes are small).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
#: Requests coalesced per flush.
QUEUE_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)
#: Queue-wait bounds (sub-millisecond matters here; the top end is a
#: request parked behind a slow predict).
QUEUE_WAIT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.5,
)


@dataclass(frozen=True)
class InferPlaneConfig:
    """Operator-facing knobs for the inference data plane."""

    #: ``"adaptive"`` (the work-conserving convoy: batch whatever
    #: arrived while the previous predict ran, never wait on a clock),
    #: ``"fixed"`` (an explicit timer in front of the same convoy), or
    #: ``"off"`` (vectorized predict, no cross-request coalescing).
    mode: str = "adaptive"
    #: Fixed-mode timer: how old a leader's request gets before it
    #: flushes.  Ignored in the other modes.
    window: float = 0.002
    #: Fixed-mode early-flush row target (ends the timer early).
    max_batch: int = 64
    #: Prediction-cache capacity in rows; 0 disables the cache.
    cache_rows: int = 4096
    #: Default per-tenant rate limit (rows/second) applied when the
    #: tenant's quota carries none; None = unlimited.
    default_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in ("adaptive", "fixed", "off"):
            raise ValueError(
                f"mode must be adaptive/fixed/off, got {self.mode!r}"
            )
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.cache_rows < 0:
            raise ValueError(f"cache_rows must be >= 0, got {self.cache_rows}")


def parse_batch_window(text: str) -> Tuple[str, float]:
    """Parse a ``--infer-batch-window`` value into ``(mode, window)``.

    Accepts ``"off"``, ``"adaptive"`` (the convoy; the window is then
    unused), or a timer in seconds (fixed mode); raises ``ValueError``
    with a pointed message otherwise.
    """
    text = str(text).strip().lower()
    if text in ("off", "none", "0"):
        return "off", 0.0
    if text == "adaptive":
        return "adaptive", InferPlaneConfig.window
    try:
        window = float(text)
    except ValueError:
        raise ValueError(
            f"--infer-batch-window must be 'off', 'adaptive', or a "
            f"window in seconds, got {text!r}"
        ) from None
    if not 0.0 < window <= 1.0:
        raise ValueError(
            f"a fixed batch window must be in (0, 1] seconds, got {window}"
        )
    return "fixed", window


class _Probe(NamedTuple):
    """What :meth:`InferPlane.probe` found: the ``(model, version)``
    it peeked, and :meth:`PredictionCache.lookup`'s split of the batch
    at that version."""

    model: Any
    version: Any
    hits: Dict[int, int]
    misses: List[int]
    keys: List[bytes]


class InferPlane:
    """Per-gateway inference data plane (see module docstring)."""

    def __init__(
        self,
        *,
        config: Optional[InferPlaneConfig] = None,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or InferPlaneConfig()
        self.clock = clock
        self.cache = PredictionCache(
            self.config.cache_rows, metrics=metrics
        )
        self._lock = Lock()
        self._queues: Dict[str, BatchQueue] = {}
        #: tenant -> (bucket, rate, burst); rebuilt when the quota's
        #: rate changes (set_quota takes effect on the next request).
        self._buckets: Dict[str, Tuple[TokenBucket, float, float]] = {}
        if metrics is not None:
            self._m_batch_size = metrics.histogram(
                "infer_batch_size",
                "Rows per coalesced predict flush.",
                buckets=BATCH_SIZE_BUCKETS,
            )
            self._m_queue_depth = metrics.histogram(
                "infer_queue_depth",
                "Requests coalesced into one flush.",
                buckets=QUEUE_DEPTH_BUCKETS,
            )
            self._m_queue_wait = metrics.histogram(
                "infer_queue_wait_seconds",
                "Per request: arrival at the coalescing queue to the "
                "start of the flush that answered it.",
                buckets=QUEUE_WAIT_BUCKETS,
            )
            self._m_flush_seconds = metrics.histogram(
                "infer_batch_seconds",
                "Latency of one vectorized predict flush.",
            )
            self._m_rate_limited = metrics.counter(
                "infer_rate_limited_total",
                "Infer requests refused by the per-tenant token "
                "bucket, by tenant.",
                ["tenant"],
            )
        else:
            self._m_batch_size = self._m_queue_depth = None
            self._m_queue_wait = self._m_flush_seconds = None
            self._m_rate_limited = None

    # -- admission -----------------------------------------------------
    def admit(self, tenant: str, rate_limit, rows: int) -> None:
        """Charge ``rows`` against the tenant's token bucket.

        ``rate_limit`` is ``(rows_per_second, burst_rows)`` off the
        tenant's quota (either may be None).  Raises ``QUOTA_EXCEEDED``
        with a ``retry_after`` detail — the HTTP frontend turns that
        into a 429 with a ``Retry-After`` header.  A batch larger than
        the whole burst could never be admitted, however long the
        tenant waited: it is ``INVALID_ARGUMENT`` (400), with no
        ``retry_after``.
        """
        rate, burst = rate_limit
        if rate is None:
            rate = self.config.default_rate
        if rate is None:
            return
        bucket = self._bucket(tenant, float(rate), burst)
        if rows > bucket.burst:
            raise ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                f"a {rows}-row infer batch exceeds tenant {tenant!r}'s "
                f"burst of {bucket.burst:g} rows (infer_burst_rows); "
                "split the batch",
                rows=int(rows),
                burst_rows=bucket.burst,
            )
        wait = bucket.try_acquire(rows)
        if wait > 0.0:
            if self._m_rate_limited is not None:
                self._m_rate_limited.labels(tenant).inc()
            raise ApiError(
                ApiErrorCode.QUOTA_EXCEEDED,
                f"tenant {tenant!r} exceeded its inference rate "
                f"({rate:g} rows/s); retry in {wait:.3f}s",
                rate_rows_per_second=float(rate),
                rows=int(rows),
                retry_after=round(float(wait), 3),
            )

    def _bucket(
        self, tenant: str, rate: float, burst
    ) -> TokenBucket:
        burst = float(burst) if burst is not None else None
        with self._lock:
            held = self._buckets.get(tenant)
            if held is not None and held[1] == rate and held[2] == burst:
                return held[0]
            bucket = TokenBucket(rate, burst, clock=self.clock)
            self._buckets[tenant] = (bucket, rate, burst)
            return bucket

    # -- the predict path ----------------------------------------------
    def probe(
        self,
        app: str,
        X: np.ndarray,
        peek: Callable[[], Tuple[Any, Any]],
    ) -> Optional[_Probe]:
        """The half of :meth:`predict` that cannot block: split ``X``
        against the cache at the currently served version.

        ``peek`` reads the served ``(model, model_version)`` without a
        lock.  Returns None when there is nothing to look up (cache
        disabled, or no model served yet); a probe whose ``misses`` is
        empty is a complete answer — :meth:`predict` returns it without
        touching the queue.
        """
        if not self.cache.capacity:
            return None
        model, version = peek()
        if version is None:
            return None
        return _Probe(model, version, *self.cache.lookup(app, version, X))

    def predict(
        self,
        app: str,
        X: np.ndarray,
        execute: Callable[[np.ndarray], Tuple[np.ndarray, Dict[str, Any]]],
        *,
        probe: Optional[_Probe] = None,
        may_block: bool = True,
    ) -> Optional[Tuple[np.ndarray, Dict[str, Any], int]]:
        """Answer one validated ``(B, n)`` batch.

        ``execute`` runs the vectorized predict (under the gateway
        lock) and returns ``(predictions, meta)`` with ``model`` /
        ``model_version`` in ``meta``.  ``probe`` is what
        :meth:`probe` returned for this ``X`` — possibly on another
        thread, a moment ago; None sends every row to the model and
        caches nothing.  Returns ``(predictions, meta,
        rows_from_cache)`` — or, with ``may_block=False``, None when
        the misses cannot be flushed without a chance of waiting (see
        :meth:`BatchQueue.submit`; ``off`` mode always says None).
        """
        started = time.perf_counter()
        if probe is None:
            version0 = keys = None
            hits: Dict[int, int] = {}
            miss_idx = list(range(len(X)))
            X_miss = X
        else:
            model0, version0, hits, miss_idx, keys = probe
            if not miss_idx:
                # ``hits`` was filled in row order.
                predictions = np.fromiter(
                    hits.values(), dtype=np.int64, count=len(X)
                )
                add_span(
                    "batch.coalesce",
                    started,
                    time.perf_counter(),
                    rows=int(len(X)),
                    cached=int(len(X)),
                )
                meta = {"model": model0, "model_version": version0}
                return predictions, meta, len(X)
            X_miss = X[miss_idx]

        if not may_block:
            # ``off`` mode has no queues, and an app without one never
            # had a flush timed: either way the flush goes elsewhere.
            queue = self._queues.get(app)
            flushed = (
                None
                if queue is None
                else queue.submit(X_miss, may_block=False)
            )
            if flushed is None:
                return None
            miss_predictions, meta = flushed
        elif self.config.mode == "off":
            flush_started = time.perf_counter()
            miss_predictions, meta = execute(X_miss)
            self._observe_flush(
                rows=len(X_miss),
                requests=1,
                seconds=time.perf_counter() - flush_started,
                waits=(0.0,),
            )
            meta = dict(meta)
        else:
            miss_predictions, meta = self._queue_for(
                app, execute
            ).submit(X_miss)

        version = meta.get("model_version")
        if hits and version != version0:
            # The model was promoted between the cache read and the
            # flush: the hit rows answered with the old model.  Re-run
            # the whole batch against the new one — correctness over
            # the (rare) double predict.
            miss_predictions, meta = execute(X)
            meta = dict(meta)
            hits, miss_idx = {}, list(range(len(X)))
            version = meta.get("model_version")
        elif keys is not None and version is not None:
            self.cache.store(
                app, version, keys, miss_idx, miss_predictions
            )

        predictions = np.empty(len(X), dtype=np.int64)
        predictions[miss_idx] = np.asarray(
            miss_predictions, dtype=np.int64
        )
        for i, value in hits.items():
            predictions[i] = value
        add_span(
            "batch.coalesce",
            started,
            time.perf_counter(),
            rows=int(len(X)),
            cached=int(len(hits)),
            batch_rows=int(meta.get("batch_rows", len(miss_idx))),
            batch_requests=int(meta.get("batch_requests", 1)),
            waited_ms=round(1e3 * meta.get("waited", 0.0), 3),
        )
        return predictions, meta, len(hits)

    def _queue_for(self, app: str, execute) -> BatchQueue:
        queue = self._queues.get(app)
        if queue is not None:
            return queue
        with self._lock:
            queue = self._queues.get(app)
            if queue is None:
                fixed = self.config.mode == "fixed"
                queue = BatchQueue(
                    execute,
                    window=self.config.window if fixed else 0.0,
                    max_batch=self.config.max_batch,
                    on_flush=self._observe_flush,
                )
                self._queues[app] = queue
            return queue

    def _observe_flush(
        self, *, rows: int, requests: int, seconds: float, waits
    ) -> None:
        if self._m_batch_size is None:
            return
        self._m_batch_size.observe(rows)
        self._m_queue_depth.observe(requests)
        self._m_flush_seconds.observe(seconds)
        for waited in waits:
            self._m_queue_wait.observe(waited)

    # -- promotion hook ------------------------------------------------
    def invalidate_app(self, app: str) -> int:
        """Drop the app's cached predictions and its flush-cost
        estimate (model promotion): the new model's first flush runs
        where it may block."""
        queue = self._queues.get(app)
        if queue is not None:
            queue.forget_cost()
        return self.cache.invalidate_app(app)
