"""How fast the CPU runs this process, measured while a workload runs.

On a shared host the speed a virtual CPU gets switches between levels
tens of percent apart, and a level can hold for a fraction of a second
or for minutes. A workload's wall time carries all of that. ``Sampler``
times a slice of fixed calibration work every ``INTERVAL_S`` of wall
time, from a ``SIGALRM`` handler that interrupts the workload between
two bytecodes, so the speed is known all through a long job. A stretch
of the workload's wall time between two samples is then scaled by
``CAL_REF_S`` over the mean of the two samples: the time it would have
taken at the reference speed. The time spent in the handler is kept out
of every interval by ``Sampler.clock``.
"""
from __future__ import annotations

import gc
import signal
import time

# The calibration slice's time at the reference speed: a quiet spell of a
# 2.1 GHz Xeon virtual CPU under Python 3.11. It only sets the scale.
CAL_REF_S = 0.007
INTERVAL_S = 0.2


def calibration_load() -> int:
    """Fixed pure-Python work of the kinds graphpir does: tuple keys,
    dict inserts, sorting and iteration. Its tables stay small, so that
    a sample taken at the workload's memory peak adds little to it."""
    total = 0
    for rep in range(8):
        table = {}
        for i in range(1_000):
            table[(i * 7919 + rep) % 10_007, i & 15] = str(i)
        for key, value in sorted(table.items()):
            total += key[0] + len(value)
    return total


class Sampler:
    def __init__(self) -> None:
        self.paused = 0.0  # wall time spent taking samples
        self.samples: list[tuple[float, float]] = []  # (clock, slice time)
        self._busy = False

    def clock(self) -> float:
        """Wall time with the time spent taking samples left out."""
        return time.perf_counter() - self.paused

    def sample(self, *_signal) -> None:
        """Time one calibration slice, with the garbage collector off so
        that the workload's live heap does not change the slice. A
        signal that arrives during a sample is dropped."""
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_load()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.paused += time.perf_counter() - start
        self.samples.append((self.clock(), took))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, first: int, last: int) -> float:
        """Reference-speed time between samples ``first`` and ``last``."""
        total = 0.0
        for (t0, c0), (t1, c1) in zip(self.samples[first:last],
                                      self.samples[first + 1:last + 1]):
            total += (t1 - t0) * CAL_REF_S * 2 / (c0 + c1)
        return total
