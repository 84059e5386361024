"""Speed probe: a fixed piece of pure-Python work timed between ops.

The benchmark shares its CPUs with other tenants, and the same op can take
twice as long for minutes at a time.  Thread CPU time tracks wall time and
steal time stays 0, so the process cannot see the contention directly.  The
probe shows it: it is interpreter work of the same kind as the library's
(exact `Fraction` elimination, tuple and dict churn) and slows by the same
factor.  run.py multiplies every op's time by NOMINAL_S / probe time, so the
time metrics read as seconds on a machine where the probe takes NOMINAL_S.
Measured over one minute of a shared 2-vCPU Xeon VM, that kept the window
medians of an op within +-2.5% where its raw time moved by +-8%.

The probe never calls gradedorbits, so a change to the library cannot move
it.  Changing the probe or NOMINAL_S changes every time metric: do it in a
change of its own and measure the baseline again.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.005
SIZE = 9


def _work() -> int:
    n = SIZE
    rows = [
        [Fraction((i * 7 + j * 3) % 11 - 5 + (i == j) * 13) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        pv = rows[c][c]
        rows[c] = [v / pv for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    counts: dict = {}
    for k in range(3000):
        key = (k % 17, k % 13, k)
        counts[key[:2]] = counts.get(key[:2], 0) + len(key)
    return len(counts)


def measure() -> float:
    """Seconds the probe takes now: one run of the fixed work."""
    start = perf_counter()
    _work()
    return perf_counter() - start
