"""Small, dependency-light summary statistics used across benchmarks."""

from __future__ import annotations

import math
from typing import Dict, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence.

    ``math.fsum`` keeps the result within ``[min(values), max(values)]`` even
    for pathological magnitudes where naive summation rounds the mean just
    outside the sample range.
    """
    values = list(values)
    if not values:
        return 0.0
    result = math.fsum(values) / len(values)
    # Guard against the last rounding step still escaping the sample range.
    return min(max(result, min(values)), max(values))


def median(values: Sequence[float]) -> float:
    """Median; 0.0 for an empty sequence."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) using linear interpolation."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return ordered[lower]
    low, high = ordered[lower], ordered[upper]
    # ``low + span * f`` cannot underflow both halves to zero the way
    # ``low * (1 - f) + high * f`` does; the clamp keeps rounding (or an
    # overflowing span) from leaving [low, high].
    return min(max(low + (high - low) * (rank - lower), low), high)


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two samples."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((value - mu) ** 2 for value in values) / len(values))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Standard summary block used in benchmark output rows."""
    values = list(values)
    return {
        "count": float(len(values)),
        "mean": mean(values),
        "median": median(values),
        "p95": percentile(values, 95.0),
        "p99": percentile(values, 99.0),
        "min": min(values) if values else 0.0,
        "max": max(values) if values else 0.0,
        "stdev": stdev(values),
    }


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio (0.0 when the denominator is zero)."""
    return numerator / denominator if denominator else 0.0
