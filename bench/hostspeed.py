"""Host-speed calibration for the end-to-end timings.

On a shared host the speed of one core drifts: for minutes at a time every
operation, fast or slow, can take up to twice as long.  A fixed kernel that
does not touch mcgan (small numpy operations driven from Python, like the
tape's inner loops) is timed right before and right after each timed unit;
the unit's wall time is scaled by ``REFERENCE_S`` over the kernel's time, so
it reads in seconds at the reference speed.  A change to mcgan cannot move
the kernel.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the development host (2-core x86-64, numpy 2.4 with OpenBLAS
# 0.3.31 pinned to one thread) when the host was quiet.
REFERENCE_S = 1.9e-3
_RNG = np.random.default_rng(20211124)
_W = _RNG.standard_normal((8, 64)) * 0.1
_V = _RNG.standard_normal((64, 16)) * 0.1


def _kernel() -> float:
    h = np.ones((4, 8))
    acc = 0.0
    for _ in range(200):
        u = np.tanh(h @ _W) @ _V
        acc += float(np.sum(u * u))
        h = h * 0.999 + 0.001
    return acc


def kernel_seconds(reps: int = 5) -> float:
    """Median wall time of the kernel over ``reps`` runs."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


class ScaledTimer:
    """Measures one unit: ``with ScaledTimer() as t: ...`` then ``t.seconds``.

    ``t.wall`` is the raw wall time, ``t.factor`` the scale to reference host
    speed and ``t.seconds`` their product.  The calibration runs outside the
    measured interval.
    """

    def __enter__(self):
        self.before = kernel_seconds()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        self.after = kernel_seconds()
        self.factor = REFERENCE_S / (0.5 * (self.before + self.after))
        self.seconds = self.wall * self.factor
        return False
