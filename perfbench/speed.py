"""The speed of the CPU this process runs on, sampled while work runs.

The host is shared.  One vCPU's speed drifts by up to ~1.5x, and the
drift moves in fractions of a second as well as over minutes.  The two
vCPUs drift independently of each other.  So a reference kernel timed
before and after a call does not follow the speed during it, and neither
does one timed on the other core.

``sampled()`` instead interrupts the work every INTERVAL_S with SIGALRM.
The handler times a fixed kernel.  The work's reference seconds are its
wall seconds, less the time spent in the kernel, times its mean sampled
speed relative to the reference speed, at which the kernel takes REF_S.
Each REF_S is near the kernel's time in the faster spells of the 2-vCPU
machine the benchmark was tuned on, so reference seconds there read
close to wall seconds.

On 113 identical gibecca-knn calls over four minutes, MixKernel cut the
coefficient of variation of single-call times from 14% to 4.5%, and the
spread of 30-second medians (quartile distance over median) from 13% to
3%.  LoopKernel alone gave 6.6% and 4.4%; a kernel on large arrays
followed the workloads' speed less well than either.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

INTERVAL_S = 0.025     # seconds between samples


def _loop():
    total = 0
    for i in range(1500):
        total += i * i
    return total


class LoopKernel:
    """An interpreted loop of about 0.12 ms.  It needs no import, so it
    can time a process before numpy is loaded."""

    REF_S = 1.0e-4         # seconds at the reference speed

    def seconds(self):
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0


class MixKernel:
    """The loop and a mix of small numpy and scipy.special calls, the kind
    of work the package does; about 0.4 ms."""

    REF_S = 3.5e-4

    def __init__(self):
        import numpy as np
        from scipy.special import expit, gammaln

        rng = np.random.default_rng(0)
        self._np, self._expit, self._gammaln = np, expit, gammaln
        self.square = rng.random((6, 6))
        self.vector = rng.random(40)
        self.rows = rng.random((50, 20))
        self.loadings = rng.random((20, 5))

    def _work(self):
        np, v = self._np, self.vector
        total = _loop()
        for _ in range(6):
            sq = self.square @ self.square
            total += np.exp(v)[0] + self._gammaln(v + 1.0)[0]
            probs = self._expit(self.rows @ self.loadings)
            total += np.sum(probs, axis=0)[0] + np.linalg.norm(sq)
            total += np.where(v > 0.5, v, 0.0)[0]
            part = self.rows[:, :3].copy()
            part *= 2.0
            total += np.maximum(part, 0.1).sum()
        return total

    def seconds(self):
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


@dataclass
class Speed:
    """Kernel timings taken during one piece of work."""

    ref_s: float            # the kernel's REF_S
    samples: list = field(default_factory=list)   # seconds, one per sample
    busy_s: float = 0.0     # seconds the samples took inside the work

    @property
    def factor(self):
        """Reference seconds per second of wall time during the work."""
        return self.ref_s * statistics.fmean(1.0 / s for s in self.samples)

    def ref_seconds(self, wall):
        """``wall`` seconds of work, as seconds at the reference speed."""
        return wall * self.factor


@contextmanager
def sampled(kernel):
    """Sample the speed with ``kernel`` until the block ends; yields a
    Speed.

    Its ``busy_s`` is set on exit; subtract it from the block's wall time.
    A block shorter than INTERVAL_S gets one sample after it ends.
    """
    speed = Speed(kernel.REF_S)

    def sample(signum, frame):
        speed.samples.append(kernel.seconds())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield speed
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        speed.busy_s = math.fsum(speed.samples)
        if not speed.samples:
            speed.samples.append(kernel.seconds())
