"""Order statistics for the benchmark report."""
from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def nearest_rank(values, q: float) -> float:
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def tail_percentile(values, q: float) -> tuple[float, int] | None:
    """(q-th percentile, samples strictly above it), or None when too few lie beyond.

    With nearest rank and distinct samples, p95 has ten samples beyond it from
    200 samples on.
    """
    if not values:
        return None
    p = nearest_rank(values, q)
    beyond = sum(1 for v in values if v > p)
    if beyond < MIN_TAIL_SAMPLES:
        return None
    return p, beyond


def spread(values) -> float:
    """Interquartile distance as a share of the median, with the quartiles
    that ``statistics.quantiles(values, n=4)`` gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf
