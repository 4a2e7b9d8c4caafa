"""A clock that counts work in units of a fixed reference computation.

A shared host changes speed by tens of percent within seconds, as its
neighbours come and go, and every timing of ahom moves with it.  A
:class:`Meter` therefore runs :func:`reference` every ``PERIOD`` seconds of
CPU time, from a ``SIGPROF`` handler, so the samples land inside operations
as well as between them.  The meter advances by the CPU time the program
used, divided by the median of the latest ``WINDOW`` reference times.  Its
reading is work in *reference units* (``ref``): how many runs of the
reference the host could have done in the same time.  A change of host speed
moves the CPU time and the reference alike, and the ratio far less.

The reference is the benchmark's own code and never calls ahom, so a change
to the program moves the meter reading of its operations but not the unit.
It does the kind of work ahom does: exact integer row reduction with
extended gcds on small dense matrices, in pure Python, plus building and
formatting the small tuples and strings that rendering an answer takes.

Times are thread CPU times: the process clock is coarse while an
``ITIMER_PROF`` timer runs, and the benchmark is single-threaded.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import thread_time

SIZE = 8
ENTRY = 999
PERIOD = 0.05  # CPU seconds between reference runs, about 2 % of the time
WINDOW = 5  # reference runs the current speed is the median of
# seconds per reference unit when a metric must be given in seconds: about
# what one reference run took on the 2-vCPU host the baseline was measured on
NOMINAL_SECONDS = 0.001


def _matrix(seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [[rng.randint(-ENTRY, ENTRY) for _ in range(SIZE)] for _ in range(SIZE)]


_MATRICES = [_matrix(seed) for seed in range(4)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _row_echelon(m: list[list[int]]) -> list[int]:
    """Pivots of a row echelon form of m, made with unimodular row steps."""
    a = [row[:] for row in m]
    rows, cols = len(a), len(a[0])
    pivots, r = [], 0
    for c in range(cols):
        for i in range(r + 1, rows):
            if a[i][c]:
                g, x, y = _xgcd(a[r][c], a[i][c])
                p, q = a[r][c] // g, a[i][c] // g
                top, low = a[r], a[i]
                a[r] = [x * s + y * t for s, t in zip(top, low)]
                a[i] = [p * t - q * s for s, t in zip(top, low)]
        if a[r][c]:
            pivots.append(abs(a[r][c]))
            r += 1
            if r == rows:
                break
    return pivots


def _checksum() -> int:
    total = 0
    for m in _MATRICES:
        pivots = _row_echelon(m)
        text = "+".join(f"Z/{p % 97 + 2}" for p in pivots)
        total += len(text) + sum(sorted({p % 1000: p for p in pivots}))
    return total


EXPECTED = _checksum()


def reference() -> float:
    """CPU seconds one run of the reference computation takes now."""
    t0 = thread_time()
    value = _checksum()
    elapsed = thread_time() - t0
    if value != EXPECTED:
        raise AssertionError("reference computation gave a different answer")
    return elapsed


class Meter:
    """Work done by this thread, in reference units, while started."""

    def __init__(self):
        self.samples: list[float] = []
        self._work = 0.0
        self._mark = 0.0
        self._unit = 0.0
        self._busy = False

    def start(self) -> None:
        self.samples = [reference() for _ in range(WINDOW)]
        self._unit = statistics.median(self.samples)
        self._mark = thread_time()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def read(self) -> float:
        return self._work + (thread_time() - self._mark) / self._unit

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives while the reference runs
            return
        self._busy = True
        try:
            self._work += (thread_time() - self._mark) / self._unit
            self.samples.append(reference())
            self._unit = statistics.median(self.samples[-WINDOW:])
        finally:
            # the reference's own time is no work of the program's
            self._mark = thread_time()
            self._busy = False
