"""Machine-speed calibration, so timings on a shared host stay steady.

On a host shared with other tenants the same instructions run up to
~1.7x slower for tens of seconds at a time, and the slowdown shows in
CPU time as much as in wall time.  A 15 s run sits inside one or two
such periods, so run-to-run spreads of 15-20% come from the host, not
the program.

:class:`SpeedMeter` times a fixed reference kernel (transformer-sized
float32 matmuls and layer norms, the mix the program itself runs)
between the benchmark's units of work.  A unit's *slowness*
is the mean of the samples taken just before and just after it, divided
by :data:`NOMINAL_S`; the in-process workloads divide a unit's timings
by it, which reports them at the host's nominal speed.  The kernel is
benchmark code and never changes with the program, so a faster program
still reads faster.  The run's median slowness is printed.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

#: Duration of one reference kernel at nominal host speed (its usual
#: duration on a quiet 2-core host, so nominal timings read like raw
#: ones there).
NOMINAL_S = 0.0026

#: Kernels per sample; the fastest counts, so one preemption does not.
REPEATS = 3

_RNG = np.random.default_rng(0)
_TOKENS = _RNG.random((272, 48), dtype=np.float32)
_W_IN = _RNG.random((48, 144), dtype=np.float32)
_W_OUT = _RNG.random((144, 48), dtype=np.float32)


def _kernel() -> float:
    """Twenty MLP + layer-norm steps on one clip's worth of tokens."""
    x = _TOKENS
    scale = np.float32(0.01)
    for _ in range(20):
        x = np.tanh(x @ _W_IN * scale) @ _W_OUT * scale
        centred = x - x.mean(axis=-1, keepdims=True)
        x = centred / np.sqrt((centred ** 2).mean(axis=-1, keepdims=True)
                              + np.float32(1e-5))
    return float(x[0, 0])


class SpeedMeter:
    """Samples host slowness with the reference kernel."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """Append one slowness sample; returns the seconds it took."""
        started = time.perf_counter()
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best / NOMINAL_S)
        return time.perf_counter() - started

    def timed(self, unit: Callable[[], object]) -> Tuple[float, float, object]:
        """Run ``unit`` between two samples: ``(seconds, slowness,
        result)``.  Consecutive units share the sample between them."""
        if not self.samples:
            self.sample()
        before = self.samples[-1]
        started = time.perf_counter()
        result = unit()
        seconds = time.perf_counter() - started
        self.sample()
        return seconds, (before + self.samples[-1]) / 2.0, result

    def between(self, first: int, last: int) -> float:
        """Mean slowness of samples ``first`` to ``last`` inclusive."""
        return statistics.fmean(self.samples[first:last + 1])
