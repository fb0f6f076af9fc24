"""A fixed reference computation that samples the host's speed.

The benchmark's host is a shared virtual machine whose speed shifts by up
to 1.8x, for fractions of a second to minutes at a time; CPU time moves
with wall time, so the process is on a CPU but runs slower.  While the
requests run, `Sampler` times one call of `kernel` every INTERVAL_S
seconds from a timer signal, and bench.py divides each request's time by
the samples taken around it; a set-up probe divides its set-up time by
`call_time` measured just before and just after it.  The work is of the
kind sechom does, so the host slows it alike: exact elimination on
sparse ``dict`` rows of ``Fraction``.  It is fixed and shares no code
with sechom, so a change to sechom cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

N = 20
# Seconds between two samples.
INTERVAL_S = 0.25
# A round figure for the seconds one call of `kernel` takes: 8 ms to
# 14 ms on the baseline host (the 2-core Xeon VM of README.md), as its
# speed shifts.  Scaled times are seconds at this speed.
NOMINAL_CALL_S = 0.010
# Samples behind each request's speed: those taken while it ran, or at
# least this many of the nearest.
NEAREST = 5


def _matrix() -> list:
    """Fixed sparse rows with small integer entries; rank N - 2."""
    rows = []
    for i in range(N):
        row = {}
        for j in range(N):
            x = (i * 7 + j * 5 + i * j) % 13 - 6
            if x and (i + 2 * j) % 3:
                row[j] = Fraction(x, 1 + (i + j) % 3)
        rows.append(row)
    rows[N - 1] = {j: rows[0].get(j, 0) + rows[1].get(j, 0) for j in range(N)}
    rows[N - 2] = {j: 2 * x for j, x in rows[3].items()}
    return rows


def kernel() -> int:
    """Rank of the fixed matrix by sparse row reduction over Q."""
    pivots: dict = {}
    for row in _matrix():
        v = {j: x for j, x in row.items() if x}
        while v:
            lead = min(v)
            if lead not in pivots:
                inv = 1 / v[lead]
                pivots[lead] = {j: x * inv for j, x in v.items()}
                break
            c = v[lead]
            for j, x in pivots[lead].items():
                y = v.get(j, 0) - c * x
                if y:
                    v[j] = y
                else:
                    v.pop(j, None)
    return len(pivots)


def call_time(n: int = 5) -> float:
    """Mean wall seconds of `n` calls of `kernel`, timed now."""
    t0 = time.perf_counter()
    for _ in range(n):
        kernel()
    return (time.perf_counter() - t0) / n


class Sampler:
    """Times `kernel` from a SIGALRM handler every INTERVAL_S seconds.

    ``samples`` holds (midpoint, wall, cpu) per call; ``spent_wall`` and
    ``spent_cpu`` add up the time the handler took, which bench.py takes
    out of the requests it interrupted.
    """

    def __init__(self):
        self.samples: list = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self.wrong = 0

    def _handler(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        if kernel() != N - 2:
            self.wrong += 1
        t1, c1 = time.perf_counter(), time.process_time()
        self.samples.append(((t0 + t1) / 2, t1 - t0, c1 - c0))
        self.spent_wall += t1 - t0
        self.spent_cpu += c1 - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer; take samples now if fewer than NEAREST were
        taken, as when every request ran in under a second."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < NEAREST:
            self._handler(None, None)
        if self.wrong:
            raise RuntimeError("reference kernel gave a wrong rank")

    def speed(self, t0: float, t1: float) -> tuple:
        """(wall, cpu): the means of the samples taken in [t0, t1], or of
        the NEAREST samples to that interval if it holds fewer.

        Samples are evenly spaced in time, so their mean follows the
        host's average slowness over the interval, which is what the
        request's time adds up.  A median would pick one of the host's
        states when it switched between them during the request.
        """
        def distance(sample):
            return max(t0 - sample[0], sample[0] - t1, 0.0)
        near = sorted(self.samples, key=distance)
        inside = sum(1 for s in near if distance(s) == 0.0)
        chosen = near[:max(NEAREST, inside)]
        return (statistics.fmean(s[1] for s in chosen),
                statistics.fmean(s[2] for s in chosen))
