"""Machine-speed calibration for timings taken on a shared machine.

On a shared sandbox the same work can take 1.6 times as long from one
minute to the next, because the host's load changes; the program's own
CPU time moves with it, so neither wall nor CPU time is steady.  The
benchmark therefore times a fixed slice of pure-Python work next to every
request -- a sparse elimination over Fractions, the kind of work
trikoszul's inner loops do -- and scales each measured time to a machine on
which one slice takes CAL_REF_S:

    normalized time = wall time x CAL_REF_S / mean slice time around it

The slices run outside the timed region, after each timed call, for about
CAL_SHARE of its duration (at least one slice, after one untimed slice).
"""

from __future__ import annotations

from fractions import Fraction
from statistics import fmean
from time import perf_counter

CAL_REF_S = 1e-3
CAL_SHARE = 0.05

# a fixed 12 x 23 sparse matrix with small rational entries
_ROWS = tuple(
    {(i * 7 + j * 3) % 23: Fraction((i + j) % 5 - 2 or 1, 1 + (i * j) % 3) for j in range(6)}
    for i in range(12)
)


def slice_time() -> float:
    """Seconds one calibration slice takes now: row-reduce _ROWS."""
    t0 = perf_counter()
    for _ in range(2):
        pivots: dict = {}
        for row in _ROWS:
            v = dict(row)
            while v:
                k = min(v)
                p = pivots.get(k)
                if p is None:
                    inv = 1 / v[k]
                    pivots[k] = {kk: s * inv for kk, s in v.items()}
                    break
                c = v[k]
                for kk, s in p.items():
                    t = v.get(kk, 0) - c * s
                    if t == 0:
                        v.pop(kk, None)
                    else:
                        v[kk] = t
    return perf_counter() - t0


def mean_slice_time(budget_s: float) -> float:
    """Mean time of slices run back to back for about budget_s seconds.
    One slice runs first untimed, so that what the previous call left in the
    caches and the allocator does not reach the measurement."""
    slice_time()
    times = [slice_time()]
    while sum(times) < budget_s:
        times.append(slice_time())
    return fmean(times)


class SpeedGauge:
    """Measures the machine speed around each timed call: the slices run
    before it (after the previous call) and right after it."""

    def __init__(self):
        self.last = mean_slice_time(0.01)
        self.slice_times: list[float] = []

    def factor(self, seconds: float) -> float:
        """Scale for a time of `seconds` just measured; runs the slices that
        follow it."""
        before = self.last
        self.last = mean_slice_time(CAL_SHARE * seconds)
        self.slice_times.append(self.last)
        return CAL_REF_S / ((before + self.last) / 2)
