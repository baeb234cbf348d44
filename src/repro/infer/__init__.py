"""The inference data plane (ROADMAP item 2).

``repro.infer`` turns the serving path's per-row Python loop into a
real data plane: vectorized validation and predict, cross-request
coalescing by a work-conserving convoy (one flush in flight per app;
whatever arrives meanwhile rides the next one — no timer), per-tenant
token-bucket admission, and an LRU prediction cache invalidated on
model promotion.
The gateway owns one :class:`InferPlane`; everything else in the
package is its machinery.
"""

from repro.infer.batching import BatchQueue
from repro.infer.cache import PredictionCache, canonical_row_bytes
from repro.infer.limits import TokenBucket
from repro.infer.plane import InferPlane, InferPlaneConfig, parse_batch_window

__all__ = [
    "BatchQueue",
    "InferPlane",
    "InferPlaneConfig",
    "PredictionCache",
    "TokenBucket",
    "canonical_row_bytes",
    "parse_batch_window",
]
