"""Machine-speed reference for the benchmark's timings.

On a shared 2-CPU machine the speed of the same single-threaded work drifts by
10-20 % over tens of seconds, and flickers within a second, in CPU time as
much as in wall time. Over ten 20 s runs the median wall time of an operation
spread by up to 20 % of its median between runs, whatever the run held.

So every time the benchmark reports is the measured wall time scaled to a
reference machine speed: ``wall * REFERENCE_S / kernel``, where ``kernel`` is
the mean time of the kernel below just before and just after the measured
work, and REFERENCE_S is its typical time on the machine the bounds were set
on. With the scaling the same ten runs spread by 2 to 8 %. The raw wall times
are kept in the result file beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Typical kernel time on the 2-CPU machine the benchmark was tuned on.
REFERENCE_S = 0.022

_SPECTRUM = np.exp(1j * np.linspace(0.0, 6.0, 64))
_SIGNAL = np.linspace(0.1, 1.0, 64) + 0j
_RANGES = np.linspace(1.0, 2.0, 64)
_GAINS = np.linspace(0.1, 3.0, 64)


def kernel_seconds() -> float:
    """Wall time of fixed work in the program's mix, in about equal parts:
    small FFTs and complex exponentials over a 64 x 64 grid (echo synthesis),
    a vectorized bisection on 64-element arrays (the allocation solvers), and
    interpreted arithmetic (per-pulse and per-trial loops)."""
    start = time.perf_counter()
    for _ in range(50):
        np.fft.ifft(np.fft.fft(_SIGNAL) / _SPECTRUM)
        np.exp(-4j * np.pi * np.sqrt(_RANGES[:, None] ** 2 + _RANGES[None, :] ** 2))
    lo, hi = np.full(64, 0.1), np.full(64, 10.0)
    for _ in range(900):
        mid = 0.5 * (lo + hi)
        above = 3.0 / mid**2 + _GAINS / (1.0 + _GAINS * mid) > 1.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    acc = 0
    for i in range(50_000):
        acc += i * i
    return time.perf_counter() - start


#: Kernel time spent around each measurement, as a share of that measurement.
KERNEL_SHARE = 0.1


def _mean_kernel_seconds(budget: float) -> float:
    """Mean kernel time over at least one kernel and at least ``budget`` seconds."""
    times = [kernel_seconds()]
    while sum(times) < budget:
        times.append(kernel_seconds())
    return sum(times) / len(times)


class Scaler:
    """Scales successive measurements by the kernel times around each.

    The machine's speed also flickers within a second, so the kernel runs for
    a tenth of each measurement's length on each side of it; a 3 s sweep and a
    0.4 s image are then both compared with kernels averaged over a matching
    stretch of time.
    """

    def __init__(self):
        self._before = _mean_kernel_seconds(0.0)

    def scale(self, measured_s: float) -> float:
        """Factor for a measurement of ``measured_s`` taken since the last call."""
        after = _mean_kernel_seconds(KERNEL_SHARE * measured_s)
        factor = REFERENCE_S / (0.5 * (self._before + after))
        self._before = after
        return factor
