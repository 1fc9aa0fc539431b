"""Machine-speed calibration, so that timings survive a noisy host.

On a shared 2-core virtual machine the speed of pure-Python code drifts
by 20% and more within a minute, so raw wall times of the same run
differ by that much from one run to the next. The benchmark therefore
measures the machine's speed while it times the program: it times a
fixed unit of stdlib work (exact Fraction arithmetic on small and on
200-bit operands, the kind the certifier spends its time on, using no
code of the program) UNITS times right before and right after each timed
block, and once every PERIOD_S inside it, from a SIGALRM handler in the
same thread. Time spent in the handler is subtracted from the block, and
the block's time is scaled by NOMINAL_S over the mean unit time. A
normalised time is thus the time the block would take on a machine where
the unit takes NOMINAL_S; raw wall times are kept as well.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, Tuple, TypeVar

# Median unit time measured on the shared 2-core x86 virtual machine the
# benchmark was written on (CPython 3.11), so normalised times read as
# seconds there.
NOMINAL_S = 0.0017
UNITS = 3
PERIOD_S = 0.1
REUSE_S = 0.01

T = TypeVar("T")


# Operands of about 200 bits, the coefficient size of the witness-deep
# gcds, next to the small fractions of the sweep.
_X = Fraction(3**120 + 1, 7**90)
_Y = Fraction(5**100 - 3, 11**80)
_Z = Fraction(2**200 + 7, 13**50)


def _unit() -> None:
    a = Fraction(1, 3)
    for i in range(1, 200):
        a = a * Fraction(i + 1, i) - Fraction(1, i)
    for i in range(1, 40):
        (_X * _Y + _Z) / (_Y - Fraction(i, 3))


def _time_unit() -> float:
    start = time.perf_counter()
    _unit()
    return time.perf_counter() - start


class Clock:
    """Times a block of work in raw and in normalised seconds."""

    def __init__(self):
        self._units = []
        self._bracket = 0.0
        self._sampled = 0.0
        self._started = 0.0
        self._closing = []
        self._closed_at = float("-inf")

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self._units.append(_time_unit())
        self._sampled += time.perf_counter() - start

    @property
    def spent(self) -> float:
        """Seconds of probing since start(), the first probes included."""
        return self._bracket + self._sampled

    def start(self) -> None:
        """Probe, then start the block and the periodic probes.  When the
        previous block ended within REUSE_S, its closing probes serve as
        this block's opening ones."""
        began = time.perf_counter()
        if began - self._closed_at < REUSE_S:
            self._units = list(self._closing)
        else:
            self._units = [_time_unit() for _ in range(UNITS)]
        self._sampled = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._started = time.perf_counter()
        self._bracket = self._started - began

    def stop(self) -> Tuple[float, float]:
        """End the block and probe; return the block's raw seconds, without
        the probes inside it, and the mean unit time seen."""
        took = time.perf_counter() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        raw = took - self._sampled
        self._closing = [_time_unit() for _ in range(UNITS)]
        self._closed_at = time.perf_counter()
        self._units.extend(self._closing)
        return raw, statistics.fmean(self._units)

    def time(self, block: Callable[[], T]) -> Tuple[T, float, float]:
        """Run block(); return its result, raw seconds and normalised
        seconds."""
        self.start()
        try:
            result = block()
        finally:
            raw, unit = self.stop()
        return result, raw, raw * NOMINAL_S / unit
