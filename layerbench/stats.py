"""Summary statistics and typed counter arithmetic.

Two rules keep the reported numbers honest:

* a timing is reported as its median and as the highest percentile that
  still has at least ten samples beyond it (:func:`tail`), together with
  that percentile and the sample count;
* counters are differenced, derived values never are (:func:`counter_diff`).
  A hit rate or compression ratio over a phase is recomputed from the
  differenced counters; subtracting two ratios (or two histogram
  quantiles) yields numbers that are not ratios at all, such as a
  negative "compression ratio".
"""

from __future__ import annotations

import math

#: the tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no samples")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile ``p`` of the
    samples with at least ``beyond`` samples strictly above its rank.

    With ``n`` sorted samples the value is the one at rank
    ``n - beyond - 1`` (0-based), i.e. percentile ``(n - beyond) / n``;
    a sample too small to leave ``beyond`` samples above any rank raises.
    """
    vals = sorted(values)
    n = len(vals)
    if n <= beyond:
        raise ValueError(f"tail needs more than {beyond} samples, got {n}")
    rank = n - beyond - 1
    return vals[rank], 100.0 * (rank + 1) / n, n


def counter_diff(before: dict, after: dict, counters) -> dict:
    """``after - before`` for the named monotonically increasing counters
    only.  Any other key (ratios, quantiles, gauges) is ignored; a counter
    that went backwards means the two snapshots are not of the same
    source, which raises."""
    out = {}
    for key in counters:
        a, b = after[key], before[key]
        if not (isinstance(a, int) and isinstance(b, int)):
            raise TypeError(f"counter {key!r} is not an integer: {b!r}, {a!r}")
        if a < b:
            raise ValueError(f"counter {key!r} went backwards: {b} -> {a}")
        out[key] = a - b
    return out


def ratio(num: float, den: float) -> float:
    """``num / den``, 0.0 for an empty denominator."""
    return num / den if den else 0.0


def check_unit_ratios(metrics: dict, names) -> list[str]:
    """Names of the given ratio metrics that fall outside [0, 1] (or are
    not finite) -- each is a bug in how the ratio was derived."""
    bad = []
    for name in names:
        v = metrics[name]
        if not (isinstance(v, (int, float)) and math.isfinite(v)
                and 0.0 <= v <= 1.0):
            bad.append(name)
    return bad
