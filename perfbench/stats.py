"""Order statistics for the benchmark's reports.

Every timing is reported as a median plus the highest percentile that
still has at least ``MIN_BEYOND`` samples above it, with the sample
count, so a tail figure is never read off a handful of outliers.
Percentiles use the nearest-rank definition: the q-quantile of ``n``
sorted samples is the sample at 1-based rank ``ceil(q * n)``.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: A reported tail percentile keeps at least this many samples beyond it.
MIN_BEYOND = 10

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (0.5, 0.9, 0.99, 0.999)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``samples`` (which need not be sorted)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-quantile."""
    return n - max(1, math.ceil(q * n))


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest ladder percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or None when even the median
    has fewer."""
    best = None
    for q in TAIL_LADDER:
        if beyond(len(samples), q) >= MIN_BEYOND:
            best = q
    if best is None:
        return None
    return best, percentile(samples, best)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def label(q: float) -> str:
    """``0.99`` -> ``"p99"``, ``0.999`` -> ``"p99.9"``."""
    text = f"{q * 100:.1f}".rstrip("0").rstrip(".")
    return f"p{text}"
