"""Order statistics shared by the workloads and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Tail percentiles a timing may report, highest first.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 80.0,
                   75.0)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (the smallest sample with at
    least ``q`` percent of the samples at or below it)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile."""
    return n - max(math.ceil(q / 100.0 * n - 1e-9), 1)


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least ``MIN_BEYOND``
    samples beyond it, or ``None`` when ``n`` is too small for any."""
    for q in TAIL_CANDIDATES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, the supported tail percentile and the sample count.

    With too few samples for any tail percentile the maximum stands in
    (``tail_q`` is then 100)."""
    q = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "tail_q": q if q is not None else 100.0,
        "tail": percentile(values, q if q is not None else 100.0),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median, with quartiles
    from ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf
