"""Small statistics helpers shared by the benchmark and its self-tests."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Percentiles tried, highest first, for a timing's tail figure.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples a tail percentile must have beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile in TAIL_LADDER with at least TAIL_MIN_BEYOND of n samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def max_in_window(timestamps: Iterable[float], window: float) -> int:
    """Most timestamps inside any half-open window (t - window, t]."""
    ordered = sorted(timestamps)
    best = 0
    first = 0
    for last, t in enumerate(ordered):
        while ordered[first] <= t - window:
            first += 1
        best = max(best, last - first + 1)
    return best
