"""Order statistics used by the benchmark: median, quartiles, and the
highest percentile that still has enough samples beyond it."""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them;
    a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values: list[float],
                    min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float] | None:
    """Highest whole percentile q whose nearest-rank value still has at
    least min_beyond samples strictly above its rank, as (q, value); None
    when there are too few samples for any percentile to qualify."""
    n = len(values)
    best = None
    for q in range(1, 100):
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= min_beyond:
            best = q
    if best is None:
        return None
    return float(best), percentile(values, best)
