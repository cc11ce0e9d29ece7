"""Host-speed reference for the timed metrics.

The benchmark runs on shared hosts whose speed switches by a third and
more within a second, and drifts by up to a factor of two over minutes.
A run therefore also times a fixed piece of reference work between jobs,
outside their timed regions, and scales its times to a host that does
that work in REFERENCE_S seconds:

    reported = measured * REFERENCE_S / mean(reference samples of the run)

The samples are taken in proportion to the time that passes between
them, so their mean follows the host's average speed over the run, as a
job's time does.  The mean, not the median: single samples fall into
the host's fast or slow stretches, and the median of such a mix jumps
between the two.

The reference work is the same kind of interpreter work as the
package's, with no package code in it, so a change to the package
cannot move it: sparse Gaussian elimination over Q with dict rows and
Fraction entries, like the package's echelons, and a table of tuple keys
and Fraction values, built and probed like its PBW memos.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Seconds of one sample of the reference work on the reference host.
REFERENCE_S = 0.01
# Before a job, one sample is taken per SAMPLE_EVERY_S seconds since the
# last one, at most MAX_PER_POINT.
SAMPLE_EVERY_S = 0.2
MAX_PER_POINT = 16


def _rows(n: int = 14, width: int = 30) -> list:
    return [{(7 * j + i) % width: Fraction((i * j) % 11 - 5, 1 + (i + j) % 7)
             for j in range(10) if (i + j) % 3}
            for i in range(n)]


def reference_work() -> int:
    """One sample's work: an elimination and a table."""
    return _eliminate() + _memo_table()


def _memo_table(n: int = 2500) -> int:
    """Build a table of tuple keys and Fraction values and probe it;
    returns the number of hits."""
    table = {(i % 97, i // 97, i % 13): Fraction(i, 7 + i % 5) for i in range(n)}
    hits = 0
    for k in range(n):
        if (k * 31 % 97, k * 17 % (n // 97 + 1), k % 13) in table:
            hits += 1
    return hits


def _eliminate() -> int:
    """Reduce a fixed set of sparse rows to echelon form; returns the rank."""
    pivots = {}
    for row in _rows():
        row = {k: v for k, v in row.items() if v}
        while row:
            k = min(row)
            if k not in pivots:
                lead = row[k]
                pivots[k] = {kk: vv / lead for kk, vv in row.items()}
                break
            lead = row[k]
            for kk, vv in pivots[k].items():
                nv = row.get(kk, 0) - lead * vv
                if nv:
                    row[kk] = nv
                else:
                    row.pop(kk, None)
    return len(pivots)


class HostSpeed:
    """Samples of the reference work over one run."""

    def __init__(self):
        self.samples = []
        self._last = None

    def sample(self, force: bool = False) -> None:
        """Take one sample per SAMPLE_EVERY_S seconds since the last one;
        with `force`, at least one."""
        if self._last is None:
            count = 1
        else:
            count = min(MAX_PER_POINT, int((time.perf_counter() - self._last) / SAMPLE_EVERY_S))
        for _ in range(max(count, 1 if force else 0)):
            t0 = time.perf_counter()
            reference_work()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)

    def scale(self) -> float:
        """Factor that turns seconds of this run into reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
