"""Reducers and the compare verdict for perfbench.

The measurement program reports raw samples; everything statistical the
benchmark claims is computed here, so it is tested in one place
(test_stats.py).
"""

import math


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) by linear interpolation between order
    statistics; percentile(v, 0.5) is the median."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 0.5)


def tail(values, beyond=10):
    """The sample at the highest percentile that still has `beyond` samples
    beyond it.  With too few samples for that, the maximum: the tail is
    then only bounded, and the printed row says so through its count."""
    if not values:
        raise ValueError("tail of no values")
    xs = sorted(values)
    if len(xs) <= beyond:
        return xs[-1]
    return xs[len(xs) - beyond - 1]


def mean(values):
    if not values:
        raise ValueError("mean of no values")
    return math.fsum(values) / len(values)


def geomean(values):
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def reduce(kind, samples):
    """Applies a reducer named by the measurement program.  A metric with
    no samples is a layer the workload never entered: 0."""
    if not samples:
        return 0.0
    if kind == "median":
        return median(samples)
    if kind == "mean":
        return mean(samples)
    if kind == "tail":
        return tail(samples)
    if kind == "geomean":
        return geomean(samples)
    if kind == "sum":
        return float(sum(samples))
    if kind == "last":
        return samples[-1]
    raise ValueError("unknown reducer %r" % kind)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them
    (its default 'exclusive' method)."""
    import statistics

    if len(values) < 2:
        v = values[0]
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent, child, better, bound):
    """Labels one (workload, metric) pair from runs of the parent and the
    change, paired in order (pair i is parent[i] against child[i]; the
    caller alternates which side ran first).

    - "better": the change wins at least 9 in 10 pairs (ties count for
      neither) and the medians differ by more than the parent's own
      interquartile spread;
    - "worse": the change's median is worse than the parent's by more than
      `bound` (a share of the parent's median);
    - "unresolved": fewer than 10 pairs, or the parent's spread is wider
      than `bound`, so "no worse" cannot be told from noise;
    - "unchanged": otherwise.
    """
    if better not in ("higher", "lower"):
        raise ValueError("better must be 'higher' or 'lower'")
    n = min(len(parent), len(child))
    if n < MIN_PAIRS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, child) if sign * (c - p) > 0)
    q1, pm, q3 = quartiles(parent)
    cm = median(child)
    gain = sign * (cm - pm)
    if wins >= WIN_SHARE * n and gain > (q3 - q1):
        return "better"
    if pm and -gain / abs(pm) > bound:
        return "worse"
    if relative_spread(parent) > bound:
        return "unresolved"
    return "unchanged"
