"""Order statistics for the timed steps.

Percentiles use the nearest-rank rule: the p-th percentile of n sorted
samples is the sample at rank ceil(n * p / 100), and the samples beyond
it are the n - rank larger ones.
"""

from __future__ import annotations

import math

# the tail is reported at the highest of these with enough samples beyond it
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    return max(1, math.ceil(n * p / 100.0 - 1e-9))


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    ok = [p for p in TAIL_LADDER if n > 0 and samples_beyond(n, p) >= TAIL_MIN_BEYOND]
    return ok[-1] if ok else None

