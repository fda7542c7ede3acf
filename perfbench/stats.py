"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math

PERCENTILES = (50, 90, 95, 99, 99.9)
MIN_TAIL = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p * n / 100))


def tail_percentile(n: int) -> float | None:
    """The highest standard percentile with at least ten samples beyond it,
    or None when even the median has fewer."""
    eligible = [p for p in PERCENTILES if beyond(n, p) >= MIN_TAIL]
    return max(eligible) if eligible else None
