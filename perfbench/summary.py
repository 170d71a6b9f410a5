"""Summary statistics shared by the benchmark runner and its tests."""

from __future__ import annotations

import math
import statistics


def median_iqr(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) of ``values``.

    Quartiles follow ``statistics.quantiles(values, n=4)`` (the exclusive
    method).  With a single value all three equal it.
    """
    if not values:
        raise ValueError("no values")
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile in ``TAIL_LEVELS`` with at least ten samples beyond
    it, as (level, nearest-rank value); None when no level qualifies."""
    n = len(values)
    ordered = sorted(values)
    for level in TAIL_LEVELS:
        rank = max(1, math.ceil(round(level * n / 100.0, 9)))
        if n - rank >= 10:
            return level, ordered[rank - 1]
    return None
