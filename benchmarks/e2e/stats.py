"""Percentiles the way the benchmark reports them."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: Percentiles a tail figure may be taken at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """Nearest rank of percentile ``p`` among ``n`` ordered samples
    (rounded first: 99.9 % of 10 000 is 9 990, not 9 990.000000000002)."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in (0, 100])."""
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[_rank(len(samples), p) - 1]


def supported(n: int, p: float) -> bool:
    """Does a sample of ``n`` leave at least ten values beyond ``p``?"""
    return n - _rank(n, p) >= MIN_BEYOND


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """``(p, value)`` for the highest ladder percentile with at least
    ten samples beyond it; the median when even p90 has too few."""
    best = LADDER[0]
    for p in LADDER[1:]:
        if supported(len(samples), p):
            best = p
    return best, percentile(samples, best)


def capped_percentile(samples: Sequence[float], p: float) -> float:
    """``percentile(samples, p)``, or the highest supported ladder
    percentile below it when the sample is too small for ``p`` (only
    smoke runs are that small)."""
    if supported(len(samples), p):
        return percentile(samples, p)
    return tail_percentile(samples)[1]
