"""Least-squares range profiling via per-subcarrier division.

The channel operator is diagonalized by the DFT with the subcarrier symbols
as eigenvalues, so the LS estimate of received spectrum ``Y_f`` is ``Y_f / S_k``
per subcarrier (``ls_spectrum``, the one division) and ``ifft(Y_f / S_k)`` in range
(``ls_estimate``): the dense pseudo-inverse formula exactly, with no
inter-range-cell interference.  Both take the spectrum of one pulse (N,) or of
a block (N, P); ``range_profile_cube`` takes ``synthesize_raw``'s.  There is no
regularizer: a symbol below the conditioning floor 1e-6 * P/N of its
allocation (``check_ls_floor``) rejects the call rather than biasing the MSE.
``ls_estimate`` checks every symbol; the MSE Monte Carlo checks per block.
"""

from __future__ import annotations

import numpy as np

from .allocation import PowerAllocation
from .errors import DimensionError, IllConditionedWaveformError

__all__ = ["check_ls_floor", "ls_estimate", "ls_spectrum", "range_profile_cube"]


def check_ls_floor(power: np.ndarray, alloc: PowerAllocation, design: str = "") -> None:
    """Reject the first |S_k|^2 of ``power`` (subcarriers last, in row-major
    order) below the conditioning floor 1e-6 * P/N of ``alloc``."""
    floor = 1e-6 * alloc.total / len(alloc)
    if np.fmin.reduce(power, axis=None) < floor:  # fmin skips NaN, as power < floor does
        first = tuple(np.argwhere(power < floor)[0])
        raise IllConditionedWaveformError(int(first[-1]), float(power[first]), floor, design)


def _check_shapes(spectrum: np.ndarray, symbols: np.ndarray, alloc: PowerAllocation) -> None:
    if np.shape(spectrum) != symbols.shape:
        raise DimensionError(f"received shape {np.shape(spectrum)} != symbols {symbols.shape}")
    if symbols.shape[0] != len(alloc):
        raise DimensionError("symbol vector length must match allocation")


def ls_spectrum(spectrum: np.ndarray, symbols: np.ndarray, alloc: PowerAllocation) -> np.ndarray:
    """``ls_estimate``'s DFT, a new ``spectrum / symbols``; its caller checks the floor."""
    _check_shapes(spectrum, symbols, alloc)
    return spectrum / symbols


def ls_estimate(spectrum: np.ndarray, symbols: np.ndarray, alloc: PowerAllocation) -> np.ndarray:
    """LS estimate of the weighting RCS vectors, one per column of ``spectrum``."""
    _check_shapes(spectrum, symbols, alloc)  # a mismatch fails before the floor scan
    power = np.abs(symbols.T)  # pulse-major: the first bad pulse is named
    check_ls_floor(np.square(power, out=power), alloc)
    ratio = ls_spectrum(spectrum, symbols, alloc).astype(complex, copy=False)
    return np.fft.ifft(ratio, axis=0, out=ratio)  # in place: one array, not two


def range_profile_cube(cube: tuple) -> np.ndarray:
    """LS range profiles of every pulse of ``synthesize_raw``'s output."""
    return ls_estimate(*cube)
