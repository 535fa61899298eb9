"""Summary statistics shared by every workload and the record comparison."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

import numpy as np

#: Percentiles considered for a tail, highest first.
TAIL_PERCENTILES: Tuple[float, ...] = (99.9, 99.0, 90.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it.

    ``count * (1 - p / 100)`` samples lie beyond percentile ``p``; ``None``
    when not even the median qualifies.
    """
    for pct in TAIL_PERCENTILES:
        # Round before flooring: 1000 * (1 - 0.99) is 9.99999... in floats.
        if int(round(count * (100.0 - pct) / 100.0, 6)) >= MIN_BEYOND:
            return pct
    return None


def summarize(values: Sequence[float]) -> dict:
    """Median, the tail percentile the sample supports, and the count."""
    array = np.asarray(values, dtype=np.float64)
    count = int(array.size)
    summary = {"n": count, "p50": float(np.median(array)) if count else None,
               "tail_pct": tail_percentile(count), "tail": None}
    if summary["tail_pct"] is not None:
        summary["tail"] = float(np.percentile(array, summary["tail_pct"]))
    return summary


def percentile_label(pct: Optional[float]) -> str:
    """``99.0 -> 'p99'``, ``99.9 -> 'p99.9'``."""
    if pct is None:
        return "p-"
    return f"p{pct:g}"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile as ``statistics.quantiles``
    gives them (the exclusive method)."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return q1, q2, q3


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")
