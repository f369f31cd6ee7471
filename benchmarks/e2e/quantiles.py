"""Percentiles and quartiles shared by the runner and ``compare.py``."""

from __future__ import annotations

import statistics

#: Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between the
    two nearest order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: int, wanted: float = 99.0) -> float:
    """The highest percentile of :data:`LADDER` that is at most ``wanted``
    and still has :data:`MIN_BEYOND` samples beyond it; the median when
    even the lowest rung has too few."""
    best = LADDER[0]
    for q in LADDER:
        if q <= wanted and samples * (100.0 - q) / 100.0 >= MIN_BEYOND:
            best = q
    return best


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def steady_rate(work_per_sample: float, seconds, chunk: int) -> float:
    """Work per second as the median over consecutive chunks of ``chunk``
    samples, each sample doing ``work_per_sample`` work in its
    ``seconds``.  A stall that hits part of a window (another tenant of
    the host, a stray fsync) moves a mean but not this."""
    seconds = list(seconds)
    chunk = max(1, min(chunk, len(seconds)))
    rates = [
        work_per_sample * chunk / sum(seconds[i:i + chunk])
        for i in range(0, len(seconds) - chunk + 1, chunk)
    ]
    return statistics.median(rates)
