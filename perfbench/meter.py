"""Timing program calls against the speed of the host.

On a shared virtual machine the same pure-Python work can run 1.5 to 2
times slower from one second to the next, with what the host's other
tenants run.  So the benchmark measures the host's speed alongside every
call it times: a *calibration* runs a fixed pure-Python loop
``CAL_REPEATS`` times and keeps the median wall time.  One calibration runs
right before each call, one every ``CAL_PERIOD_S`` during it (from an
interval timer, in this thread; the time they take is left out of the
call's), and the one before the next call, or a last one, closes it.  A
call's time is then reported at the reference speed, the speed at which
one calibration loop takes ``REFERENCE_CAL_S``:

    scaled = wall * REFERENCE_CAL_S / mean(calibrations of the call)

A faster program lowers ``wall`` and not the calibrations; a slower host
raises both.  The loop traces the faces of a fixed dart pairing, the same
kind of list-indexing work as the program's own kernel, which is why it
tracks the host's speed for the program better than arithmetic loops do.
It is the benchmark's own code, so no change to the program moves it.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

CAL_DARTS = 600  # a pairing of 600 darts: a trivalent graph on 200 vertices
CAL_PASSES = 6
CAL_REPEATS = 5
CAL_PERIOD_S = 0.25
# About the median calibration on the machine the benchmark was tuned on
# (a shared 2.1 GHz Xeon vCPU, CPython 3.11), so that scaled times read
# close to wall times there.
REFERENCE_CAL_S = 0.6e-3


def face_count(alpha):
    """Faces of a rotation system given by its dart pairing, darts 3i to
    3i + 2 around vertex i in that cyclic order: the orbits of a dart's
    partner's successor around its vertex."""
    seen = [False] * len(alpha)
    faces = 0
    for s in range(len(alpha)):
        if not seen[s]:
            faces += 1
            d = s
            while not seen[d]:
                seen[d] = True
                a = alpha[d]
                d = a - a % 3 + (a + 1) % 3
    return faces


def _cal_pairing():
    rng = random.Random(0)
    darts = list(range(CAL_DARTS))
    rng.shuffle(darts)
    alpha = [0] * CAL_DARTS
    for k in range(0, CAL_DARTS, 2):
        a, b = darts[k], darts[k + 1]
        alpha[a], alpha[b] = b, a
    return alpha


_CAL_ALPHA = _cal_pairing()


def calibrate() -> float:
    """Median wall time, in seconds, of ``CAL_REPEATS`` calibration loops,
    each ``CAL_PASSES`` face counts of a fixed pairing."""
    times = []
    for _ in range(CAL_REPEATS):
        start = perf_counter()
        for _ in range(CAL_PASSES):
            face_count(_CAL_ALPHA)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Meter:
    """Records the wall time of each call made through it and, when
    ``calibrated``, the calibrations of each call and one at ``finish``.
    An uncalibrated meter (warm-up, traced runs) only times.

    Each call is keyed by the unit of the cycle it was made for (set by
    ``start_unit``) and its position in that unit, so that repetitions of
    the same call in later passes over the cycle can be told apart."""

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.walls: list[float] = []
        self.cals: list[list[float]] = []  # per call: before, then during
        self.keys: list[tuple] = []
        self._unit = None
        self._position = 0
        self._tail: float | None = None

    def start_unit(self, unit) -> None:
        self._unit = unit
        self._position = 0

    def __call__(self, fn, *args):
        if not self.calibrated:
            start = perf_counter()
            result = fn(*args)
            self._record(perf_counter() - start, [])
            return result
        cals = [calibrate()]
        paused = []

        def sample(signum, frame):
            begun = perf_counter()
            cals.append(calibrate())
            paused.append((begun, perf_counter()))
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S)

        previous = signal.signal(signal.SIGALRM, sample)
        try:
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S)
            start = perf_counter()
            result = fn(*args)
            end = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # A sample can land between the call's return and the timer's
        # disarming; only those that ended inside the call are taken out.
        self._record(end - start - sum(b - a for a, b in paused if b <= end),
                     cals)
        return result

    def _record(self, wall, cals):
        self.walls.append(wall)
        self.cals.append(cals)
        self.keys.append((self._unit, self._position))
        self._position += 1

    def finish(self) -> None:
        if self.calibrated:
            self._tail = calibrate()

    def scaled(self) -> list[float]:
        """Each call's seconds at the reference speed."""
        after = [c[0] for c in self.cals[1:]] + [self._tail]
        return [w * REFERENCE_CAL_S / statistics.fmean(c + [d])
                for w, c, d in zip(self.walls, self.cals, after)]

    def per_call(self) -> list[float]:
        """One time per distinct call: the median of its scaled times over
        the passes a run made.  A run that completes one pass over its
        cycle and part of a second thus weighs every call of the cycle
        alike, and the figures do not depend on where the run stopped."""
        times: dict[tuple, list[float]] = {}
        for key, t in zip(self.keys, self.scaled()):
            times.setdefault(key, []).append(t)
        return [statistics.median(ts) for ts in times.values()]
