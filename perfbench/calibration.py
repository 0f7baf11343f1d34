"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on small shared machines whose speed drifts by tens of
percent within seconds.  Times are therefore reported in reference
seconds: wall time multiplied by ``REFERENCE_S / c``, where ``c`` is the
mean wall time of a fixed calibration kernel sampled around and during the
timed work.  The kernel is benchmark code, so a change to the program moves
only the measured wall time, while a machine-wide slowdown moves both.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Kernel wall time that reported seconds are scaled to: about the kernel's
#: time on the reference machine at its faster times, so reference seconds
#: stay close to wall seconds there.
REFERENCE_S = 0.010

#: Wall seconds between kernel samples while operations run.
INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
_SPD = _rng.standard_normal((40, 40))
_SPD = _SPD @ _SPD.T
_GEN = _rng.standard_normal((40, 40))
_PTS = _rng.standard_normal(64) + 1j


def kernel():
    """Fixed mix of the program's kinds of work: small LAPACK calls, small
    numpy array arithmetic and interpreted Python loops."""
    acc = 0.0
    for i in range(15):
        acc += float(np.linalg.eigvalsh(_SPD + i * np.eye(40))[0])
        acc += float(np.abs(np.linalg.eigvals(_GEN)).max())
        acc += float(np.max(np.abs(_PTS - i) * np.abs(_PTS + i)))
        for j in range(300):
            acc += (j * 0.5) % 3
    return acc


def timed_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Calibration:
    """Kernel samples taken every ``INTERVAL_S``, also in the middle of an
    operation: a SIGALRM handler runs the kernel between two bytecodes of
    the program, and the handler's own time is taken out of the operation's
    wall time.  With ``periodic`` false (traced runs, whose spans must not
    hold kernel time) samples are taken only between operations.
    """

    def __init__(self, periodic):
        self.samples = []  # (end time, kernel seconds)
        self.spent = 0.0
        self.busy = False
        self.periodic = periodic
        if periodic:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _sample(self, *_):
        if self.busy:  # a slow kernel outlasted the interval
            return
        self.busy = True
        took = timed_kernel()
        self.samples.append((time.perf_counter(), took))
        self.spent += took
        self.busy = False

    def close(self):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def start(self):
        """Mark the start of an operation."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] > INTERVAL_S:
            self._sample()
        return len(self.samples), self.spent, time.perf_counter()

    def stop(self, mark):
        """(wall seconds, reference seconds) of the operation since ``mark``,
        scaled by the mean of the last sample before it and those during it,
        and one after it when it held none and the last is stale."""
        end = time.perf_counter()
        index, spent, start = mark
        wall = end - start - (self.spent - spent)
        if len(self.samples) == index and end - self.samples[-1][0] > INTERVAL_S:
            self._sample()
        window = [took for _, took in self.samples[index - 1 :]]
        return wall, wall * REFERENCE_S / statistics.fmean(window)
