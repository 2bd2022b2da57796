"""Summary statistics shared by the benchmark's workloads and tracer.

Timings are reported as a median plus a tail percentile, and a tail
percentile is only reported when at least MIN_BEYOND samples lie beyond it;
otherwise it would be set by a handful of outliers.
"""
from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of n sorted samples lie strictly above the q-th percentile."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    return n - max(math.ceil(q / 100.0 * n), 1)


def min_samples(q: float) -> int:
    """Smallest sample count for which the q-th percentile may be reported."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile of values (q in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile, refusing sample counts that cannot resolve it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs >= {min_samples(q)} samples to have {MIN_BEYOND} beyond it; "
            f"got {len(values)}"
        )
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    """Middle value; the mean of the two middle values for even counts."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
