"""Host-speed reference clock.

The shared 2-core host this benchmark was built on changes speed by up to 2x
within a second, so raw wall time of exact-arithmetic work does not repeat.
This module times a fixed exact-rational Gauss-Jordan elimination (the
reference) beside the work and converts wall time into *reference seconds*:
seconds the work would take on a host where one reference elimination takes
``NOMINAL_S``.

A ``SpeedClock`` samples the reference at every reading and, while started,
every ``PERIOD_S`` from a ``SIGALRM`` handler, so a multi-second item is
rescaled by the speed the host had while it ran.  The virtual clock advances
by ``dt * NOMINAL_S / t_ref`` between samples (trapezoid rule over the two
neighbouring samples) and stands still while a sample runs.

Only the standard library is used, and nothing here may import ``symprol``:
no change to the program under test can change the reference.
"""

from __future__ import annotations

import signal
import time
from contextlib import nullcontext
from fractions import Fraction

REF_SIZE = 6
REF_REPEATS = 3           # a sample keeps the fastest of this many runs
NOMINAL_S = 0.0005        # reference seconds of one elimination, by definition
PERIOD_S = 0.05           # sampling period while the clock is started
WARMUP = 20               # eliminations run before the first sample

_pc = time.perf_counter


def reference_matrix(n: int = REF_SIZE, seed: int = 12345):
    """Fixed n x n matrix of small rationals from a linear congruential
    generator (independent of any benchmark seed)."""
    x = seed
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (1103515245 * x + 12345) % 2 ** 31
            row.append(Fraction((x >> 8) % 19 - 9, 1 + (x >> 16) % 4))
        rows.append(row)
    return rows


_REF = reference_matrix()


def eliminate(rows) -> int:
    """Rank of a rational matrix by Gauss-Jordan elimination."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def reference_seconds() -> float:
    """Wall time of one reference elimination."""
    t0 = _pc()
    eliminate(_REF)
    return _pc() - t0


class SpeedClock:
    """Virtual clock in reference seconds.

    ``now()`` samples the host speed and returns (reference seconds, raw
    seconds), both excluding the time spent sampling.  ``guard`` is a
    context-manager factory entered around every sample; the tracer uses it
    to keep the reference's own arithmetic out of its counters.
    """

    def __init__(self, guard=nullcontext):
        self.guard = guard
        self.norm = 0.0
        self.raw = 0.0
        self.samples = 0
        self._last = None
        self._rate = None

    def sample(self):
        t0 = _pc()
        with self.guard():
            best = min(reference_seconds() for _ in range(REF_REPEATS))
        t1 = _pc()
        rate = NOMINAL_S / best
        if self._last is not None:
            dt = t0 - self._last
            self.raw += dt
            self.norm += dt * (self._rate + rate) / 2
        self._last, self._rate = t1, rate
        self.samples += 1

    def now(self):
        self.sample()
        return self.norm, self.raw

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        """Sample every PERIOD_S from SIGALRM until stop()."""
        with self.guard():
            for _ in range(WARMUP):
                eliminate(_REF)
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
