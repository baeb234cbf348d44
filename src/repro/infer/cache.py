"""The prediction cache: LRU over canonical input rows.

Inference is read-heavy and repetitive — the same feature vector asks
the same model the same question until a promotion changes the model.
The cache keys each answer by ``(app, model_version,
canonical-row-bytes)``: the version stamp makes stale entries
unreachable the instant a better model is promoted, and an explicit
:meth:`PredictionCache.invalidate_app` (wired to the gateway's
promotion hook) reclaims their memory instead of waiting for LRU
pressure.

Canonical row bytes are the C-order ``float64`` buffer of the row with
negative zeros collapsed (``-0.0 + 0.0 == 0.0``), so two requests that
mean the same point hit the same entry regardless of the JSON shape
they arrived in.  Non-finite rows are rejected upstream (the gateway's
vectorized validator), so NaN's ``x != x`` identity never poisons a
key.

A lookup is pure CPU behind one short critical section — it never
waits on the model or the gateway lock — which is what lets the HTTP
frontend run it on its event loop and answer a full hit without a
worker thread.  A partial hit's misses are flushed on the loop too
when the app is idle and its model measured cheap, else on a worker
(see :mod:`repro.infer.plane`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["PredictionCache", "canonical_row_bytes"]


def canonical_row_bytes(row: np.ndarray) -> bytes:
    """The canonical byte form of one input row (see module docstring).

    The definition — and the oracle :func:`_canonical_keys` is tested
    against; the lookup path canonicalises a whole batch at once.
    """
    row = np.ascontiguousarray(row, dtype=np.float64)
    # +0.0 collapses -0.0 to 0.0 without touching any other value.
    return (row + 0.0).tobytes()


def _canonical_keys(X: np.ndarray) -> List[bytes]:
    """``[canonical_row_bytes(row) for row in X]`` in one pass: one
    add, one C-order ``tobytes()`` (whatever ``X``'s memory layout),
    then a slice per row."""
    X = np.asarray(X, dtype=np.float64)
    buffer = (X + 0.0).tobytes()
    width = X.shape[1] * X.itemsize
    return [
        buffer[start:start + width]
        for start in range(0, len(buffer), width)
    ]


class PredictionCache:
    """A thread-safe LRU of ``(app, model_version, row) -> prediction``.

    ``capacity`` counts rows (one prediction per entry).  A capacity of
    zero disables the cache entirely (every lookup misses, nothing is
    stored) so callers never need a null-object variant.
    """

    def __init__(self, capacity: int, metrics=None) -> None:
        self.capacity = max(0, int(capacity))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str, bytes], int]" = (
            OrderedDict()
        )
        if metrics is not None:
            self._m_hits = metrics.counter(
                "infer_cache_hits_total",
                "Inference rows answered from the prediction cache.",
                ["app"],
            )
            self._m_misses = metrics.counter(
                "infer_cache_misses_total",
                "Inference rows that missed the prediction cache.",
                ["app"],
            )
            self._m_size = metrics.gauge(
                "infer_cache_size",
                "Predictions currently held by the cache.",
            )
            self._m_invalidations = metrics.counter(
                "infer_cache_invalidations_total",
                "Entries dropped by model-promotion invalidation.",
            )
        else:  # pragma: no cover - exercised via NULL registry anyway
            self._m_hits = self._m_misses = None
            self._m_size = self._m_invalidations = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- the batch surface (one lock round-trip per request) -----------
    def lookup(
        self, app: str, version: str, X: np.ndarray
    ) -> Tuple[Dict[int, int], List[int], List[bytes]]:
        """Split a ``(B, n)`` batch into cached answers and miss indices.

        Returns ``(hits, misses, keys)`` where ``hits`` maps row index
        -> cached prediction, ``misses`` lists the indices that must go
        to the model, and ``keys`` holds each row's canonical bytes
        (pass them back to :meth:`store` so the miss rows are hashed
        only once).  ``hits`` is filled in row order, so when
        ``misses`` is empty ``list(hits.values())`` is the whole
        answer.  Hit entries are refreshed to most-recently-used.
        """
        if self.capacity == 0:
            return {}, list(range(len(X))), []
        keys = _canonical_keys(X)
        hits: Dict[int, int] = {}
        misses: List[int] = []
        entries = self._entries
        with self._lock:
            for i, row_key in enumerate(keys):
                key = (app, version, row_key)
                value = entries.get(key)
                if value is None:
                    misses.append(i)
                else:
                    entries.move_to_end(key)
                    hits[i] = value
        if self._m_hits is not None:
            if hits:
                self._m_hits.labels(app).inc(len(hits))
            if misses:
                self._m_misses.labels(app).inc(len(misses))
        return hits, misses, keys

    def store(
        self,
        app: str,
        version: str,
        keys: Sequence[bytes],
        indices: Sequence[int],
        predictions: Sequence[int],
    ) -> None:
        """Insert the freshly-predicted miss rows (``keys[i]`` for each
        miss index, paired positionally with ``predictions``)."""
        if self.capacity == 0:
            return
        with self._lock:
            for i, prediction in zip(indices, predictions):
                key = (app, version, keys[i])
                self._entries[key] = int(prediction)
                self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            size = len(self._entries)
        if self._m_size is not None:
            self._m_size.set(size)

    def invalidate_app(self, app: str) -> int:
        """Drop every entry for ``app`` (model promotion); returns the
        number of entries reclaimed."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == app]
            for key in stale:
                del self._entries[key]
            size = len(self._entries)
        if stale and self._m_invalidations is not None:
            self._m_invalidations.inc(len(stale))
            self._m_size.set(size)
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        if self._m_size is not None:
            self._m_size.set(0)
