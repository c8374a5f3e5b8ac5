"""Least-squares range profiling via per-subcarrier division.

The channel operator is diagonalized by the DFT with the subcarrier symbols
as eigenvalues, so the LS estimate is ``ifft(fft(y) / S_k)``.  This equals the
dense pseudo-inverse formula exactly and leaves no inter-range-cell
interference.  One call handles one pulse, shape (N,), or a whole cube of
pulses, shape (N, P), transforming along axis 0.  There is no regularizer:
subcarriers whose power falls below the conditioning threshold reject the
call outright rather than silently biasing the MSE comparisons.
"""

from __future__ import annotations

import numpy as np

from .echo import RawDataCube
from .errors import DimensionError, IllConditionedWaveformError
from .waveform import SymbolVector

__all__ = ["ls_estimate", "range_profile_cube", "conditioning_threshold"]

#: Relative conditioning floor: delta = 1e-6 * (P / N).
CONDITIONING_FACTOR = 1e-6


def conditioning_threshold(pulse_syms: SymbolVector) -> float:
    alloc = pulse_syms.allocation
    return CONDITIONING_FACTOR * alloc.total / len(alloc)


def ls_estimate(y: np.ndarray, pulse_syms: SymbolVector) -> np.ndarray:
    """LS estimate of the weighting RCS vectors, one per column of ``y``."""
    y = np.asarray(y, dtype=complex)
    s = pulse_syms.symbols
    if y.shape != s.shape:
        raise DimensionError(f"received shape {y.shape} != symbol shape {s.shape}")
    power = np.abs(s) ** 2
    delta = conditioning_threshold(pulse_syms)
    # Transposed so the first bad pulse, then its first bad subcarrier, is named.
    bad = np.argwhere(power.T < delta)
    if bad.size:
        k = int(bad[0][-1])
        raise IllConditionedWaveformError(k, float(power.T[tuple(bad[0])]), delta)
    return np.fft.ifft(np.fft.fft(y, axis=0) / s, axis=0)


def range_profile_cube(cube: RawDataCube) -> np.ndarray:
    """LS range profiles of every pulse of the raw data cube."""
    return ls_estimate(cube.data, cube.pulse_symbols)
