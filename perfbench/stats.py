"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

__all__ = ["MIN_BEYOND", "percentile", "require_percentile", "geomean", "spread"]

#: a percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile of ``values``, or None if too few lie beyond.

    With ``n`` samples, ``n - ceil(n * q / 100)`` of them rank above the
    percentile; that count must reach :data:`MIN_BEYOND`.
    """
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    n = len(values)
    if n - math.ceil(n * q / 100) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def require_percentile(values: Sequence[float], q: float, what: str) -> float:
    """:func:`percentile`, raising when the sample is too small to report."""
    value = percentile(values, q)
    if value is None:
        raise ValueError(
            f"{what}: {len(values)} samples leave fewer than {MIN_BEYOND} "
            f"beyond p{q:g}"
        )
    return value


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {list(values)}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median (Python's default quartiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
