"""Least-squares range profiling via per-subcarrier division.

The channel operator is diagonalized by the DFT with the subcarrier symbols
as eigenvalues, so the LS estimate is ``ifft(fft(y) / S_k)``.  This equals the
dense pseudo-inverse formula exactly and leaves no inter-range-cell
interference.  One call takes the received array and the symbol array of the
same shape, (N,) for one pulse or (N, P) for a whole cube of pulses, and
transforms along axis 0.  There is no regularizer: a symbol whose power falls
below the conditioning floor 1e-6 * P/N of its allocation rejects the call
outright rather than silently biasing the MSE comparisons.
"""

from __future__ import annotations

import numpy as np

from .allocation import PowerAllocation
from .echo import RawDataCube
from .errors import DimensionError, IllConditionedWaveformError

__all__ = ["ls_estimate", "range_profile_cube"]


def ls_estimate(
    y: np.ndarray, symbols: np.ndarray, alloc: PowerAllocation
) -> np.ndarray:
    """LS estimate of the weighting RCS vectors, one per column of ``y``."""
    y = np.asarray(y, dtype=complex)
    if symbols.shape[0] != len(alloc):
        raise DimensionError("symbol vector length must match allocation")
    if y.shape != symbols.shape:
        raise DimensionError(f"received shape {y.shape} != symbols {symbols.shape}")
    power = np.abs(symbols) ** 2
    delta = 1e-6 * alloc.total / len(alloc)
    # Transposed so the first bad pulse, then its first bad subcarrier, is named.
    bad = np.argwhere(power.T < delta)
    if bad.size:
        k = int(bad[0][-1])
        raise IllConditionedWaveformError(k, float(power.T[tuple(bad[0])]), delta)
    return np.fft.ifft(np.fft.fft(y, axis=0) / symbols, axis=0)


def range_profile_cube(cube: RawDataCube) -> np.ndarray:
    """LS range profiles of every pulse of the raw data cube."""
    return ls_estimate(cube.data, cube.symbols, cube.allocation)
