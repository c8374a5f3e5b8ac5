"""Least-squares range profiling via per-subcarrier division.

The channel operator is diagonalized by the DFT with the subcarrier symbols
as eigenvalues, so the LS estimate of received spectrum ``Y_f`` is
``ifft(Y_f / S_k)``: the dense pseudo-inverse formula exactly, with no
inter-range-cell interference.  ``ls_estimate`` takes the spectrum of one
pulse (N,) or of a block (N, P); ``range_profile_cube`` applies it to a cube.
There is no regularizer: a symbol below the conditioning floor 1e-6 * P/N of
its allocation (``check_ls_floor``) rejects the call rather than biasing the MSE.
"""

from __future__ import annotations

import numpy as np

from .allocation import PowerAllocation
from .echo import RawDataCube
from .errors import DimensionError, IllConditionedWaveformError

__all__ = ["check_ls_floor", "ls_estimate", "range_profile_cube"]


def check_ls_floor(power: np.ndarray, alloc: PowerAllocation, design: str = "") -> None:
    """Reject the first |S_k|^2 of ``power`` (subcarriers last, in row-major
    order) below the conditioning floor 1e-6 * P/N of ``alloc``."""
    floor = 1e-6 * alloc.total / len(alloc)
    if np.fmin.reduce(power, axis=None) < floor:  # fmin skips NaN, as power < floor does
        first = tuple(np.argwhere(power < floor)[0])
        raise IllConditionedWaveformError(int(first[-1]), float(power[first]), floor, design)


def ls_estimate(
    spectrum: np.ndarray, symbols: np.ndarray, alloc: PowerAllocation
) -> np.ndarray:
    """LS estimate of the weighting RCS vectors, one per column of ``spectrum``."""
    if np.shape(spectrum) != symbols.shape:
        raise DimensionError(f"received shape {np.shape(spectrum)} != symbols {symbols.shape}")
    if symbols.shape[0] != len(alloc):
        raise DimensionError("symbol vector length must match allocation")
    check_ls_floor(np.abs(symbols.T) ** 2, alloc)  # pulse-major: the first bad pulse is named
    return np.fft.ifft(spectrum / symbols, axis=0)


def range_profile_cube(cube: RawDataCube) -> np.ndarray:
    """LS range profiles of every pulse of the received spectrum cube."""
    return ls_estimate(cube.spectrum, cube.symbols, cube.allocation)
