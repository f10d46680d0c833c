"""Host speed, read from a fixed reference lap run beside the measured calls.

The benchmark runs on a host it shares with other tenants.  Their load
changes how fast this process's core runs, by up to four times within
seconds, and that change lands on every timing the benchmark takes.  A
*lap* is a fixed piece of work built only from Python built-ins and
NumPy, never from the library under test, in the library's own style:
an interpreted loop of small NumPy calls.  A change to the library
cannot change how long a lap takes; the host can.

A :class:`Meter` runs a lap after every call it times.  For a call
seconds long, such as a set-up, it also samples: an interval timer runs
a lap every ``LAP_EVERY_S`` all through the call.  A call's time is the
clock's reading minus the laps inside it, scaled by the mean of
``NOMINAL_LAP_S / lap`` over the laps just before, inside and just after
it.  The scaled time reads as if the host had run the call at the speed
at which one lap takes ``NOMINAL_LAP_S``: 200 us, about what a lap takes
on a 2-vCPU Xeon VM while its neighbours are quiet.
"""

import signal
import statistics
import time
from typing import List

import numpy as np

clock = time.perf_counter

NOMINAL_LAP_S = 200e-6
LAP_EVERY_S = 0.02
# A lap's work: one small multiply and sum per array.
_ARRAYS = [np.arange(8, dtype=np.uint64) + i for i in range(64)]
_FACTOR = np.uint64(3)


def lap() -> float:
    """Run one reference lap; returns its duration in seconds."""
    start = clock()
    total = 0
    for array in _ARRAYS:
        total += int((array * _FACTOR).sum())
    return clock() - start


class Meter:
    """Times calls at the nominal host speed; use it as a context manager.

    With ``sampling`` off, laps run only between calls.  The interval
    timer uses ``SIGALRM``, so a meter samples only on the main thread.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.laps: List[float] = []
        self._in_lap = False
        self._previous_handler = None

    def __enter__(self) -> "Meter":
        self.laps = [self._lap()]
        if self.sampling:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, LAP_EVERY_S, LAP_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    def _lap(self) -> float:
        self._in_lap = True
        try:
            return lap()
        finally:
            self._in_lap = False

    def _on_timer(self, signum, frame) -> None:
        # A tick that lands inside a lap would time one lap inside another.
        if not self._in_lap:
            self.laps.append(self._lap())

    def time(self, call):
        """Run ``call()``; returns its result, its seconds by the clock
        without the laps inside it, and those seconds at nominal speed."""
        first = len(self.laps) - 1
        start = clock()
        result = call()
        took = clock() - start
        inside = self.laps[first + 1:]
        self.laps.append(self._lap())
        seconds = took - sum(inside)
        speed = statistics.fmean(NOMINAL_LAP_S / t for t in self.laps[first:])
        return result, seconds, seconds * speed
