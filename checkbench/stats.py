"""Order statistics used by the benchmark and its steadiness command."""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence

#: A tail percentile is reported only when at least ten samples lie
#: beyond it, so p90 needs 100 samples; below that it is withheld.
P90_MIN_SAMPLES = 100


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank percentile: the smallest sample such that at
    least ``percent`` % of the samples are less than or equal to it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p90_or_none(values: Sequence[float]) -> Optional[float]:
    """p90 when the sample holds a tail of at least ten values, else None."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return nearest_rank(values, 90)


def round_median(values: Sequence[float], starts: Sequence[int]) -> float:
    """The median over rounds of each round's nearest-rank median.

    ``starts`` holds the index in ``values`` where each round begins.
    Within a round the cheap and dear operations are fixed, so a round's
    median is always the same operation; the median over rounds then
    damps a single slow sample instead of reporting it whenever it lands
    on the middle rank.
    """
    ends = list(starts[1:]) + [len(values)]
    medians = [
        nearest_rank(values[start:end], 50)
        for start, end in zip(starts, ends)
        if end > start
    ]
    return statistics.median(medians)


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median and Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf
