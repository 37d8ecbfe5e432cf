"""Order statistics shared by the run and compare commands."""

from __future__ import annotations

import math
import statistics


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it.

    The P-th percentile is the nearest-rank sample, rank ceil(P * n / 100),
    which has n - rank samples beyond it. None when n <= 10: no percentile
    then has ten samples beyond it.
    """
    if n <= 10:
        return None
    return 100 * (n - 10) // n


def nearest_rank(sorted_vals: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct * len(sorted_vals) / 100))
    return sorted_vals[rank - 1]


def tail(vals: list[float]) -> tuple[float, int]:
    """(value, percentile) of the tail rule; the maximum, reported as
    percentile 100, when there are too few samples for the rule."""
    s = sorted(vals)
    pct = tail_percentile(len(s))
    if pct is None:
        return s[-1], 100
    return nearest_rank(s, pct), pct


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them with n=4."""
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(vals)
    return (q3 - q1) / q2 if q2 else math.inf
