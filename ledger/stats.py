"""Order statistics the ledger reports: medians, quartiles, tails."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["quartiles", "spread", "tail_percentile"]

#: tail percentiles tried from the highest down.
TAIL_PERCENTILES = (99, 90, 75, 50)

#: a percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def _percentile(ordered: Sequence[float], pct: int) -> Tuple[float, int]:
    """Nearest-rank percentile of sorted samples, and how many samples
    lie strictly beyond its rank."""
    n = len(ordered)
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100)
    return ordered[rank - 1], n - rank


def tail_percentile(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median plus the highest tail percentile with enough support.

    Returns ``{"p50", "tail", "tail_pct", "n"}``: ``tail`` is the
    highest of p99/p90/p75/p50 that has at least :data:`MIN_BEYOND`
    samples beyond it, and ``tail_pct`` names which one.  With too few
    samples for any of them, ``tail`` falls back to the median and
    ``tail_pct`` is ``None`` so the report can say the tail is
    unsupported instead of printing a p90 of three samples.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    median = statistics.median(ordered)
    for pct in TAIL_PERCENTILES:
        value, beyond = _percentile(ordered, pct)
        if beyond >= MIN_BEYOND:
            return {"p50": median, "tail": value, "tail_pct": pct, "n": len(ordered)}
    return {"p50": median, "tail": median, "tail_pct": None, "n": len(ordered)}
