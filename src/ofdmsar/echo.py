"""Raw echo synthesis: circular-convolution model plus white Gaussian noise.

Because the cyclic prefix reduces the SWMP pulse-echo chain to circular
convolution, pulses are synthesized directly in the circular model
``y = ifft(S * fft(d)) + w`` (eigenvalues of the channel operator are the
subcarrier symbols; see waveform module notes on the 1/sqrt(N) normalization
relative to the raw pulse body).

The cube holds received data and transmitted symbols as (N, P) arrays, column
p for pulse p.  Only the seeded draws loop over pulses; the scene coefficients
and channel FFTs of all pulses are computed at once, column by column bit-equal
to synthesizing each pulse alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import PowerAllocation
from .errors import DimensionError
from .geometry import Geometry, Scene, scene_coefficients
from .waveform import WaveformSpec, draw_symbols

__all__ = [
    "RawDataCube",
    "apply_waveform",
    "synthesize_pulse",
    "synthesize_raw",
    "pulse_rng",
]


@dataclass(frozen=True)
class RawDataCube:
    """CP-stripped fast-time x slow-time raw data plus the transmitted symbols.

    The radar receiver knows its own transmitted data, so the symbols and the
    allocation they were drawn under travel with the cube: ``symbols`` is
    (N, P) like ``data``.
    """

    data: np.ndarray
    symbols: np.ndarray
    allocation: PowerAllocation

    def __post_init__(self):
        if self.data.shape != self.symbols.shape:
            raise DimensionError("one symbol column required per pulse")


def apply_waveform(symbols: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Circular model with eigenvalues S_k along axis 0 of (N,) or (N, P)."""
    f = np.fft.fft(d, axis=0)  # named, so numpy cannot elide it into f * symbols (other bits)
    return np.fft.ifft(symbols * f, axis=0)


def _complex_noise(rng: np.random.Generator, n: int, sigma2: float) -> np.ndarray:
    if sigma2 == 0.0:
        return np.zeros(n, dtype=complex)
    scale = np.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def synthesize_pulse(
    symbols: np.ndarray, d: np.ndarray, sigma2: float, seed
) -> np.ndarray:
    """One received fast-time window: y = C d + w, C the symbol circulant."""
    d = np.asarray(d, dtype=complex)
    if d.size != symbols.shape[0]:
        raise DimensionError(f"coefficient length {d.size} != N = {symbols.shape[0]}")
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    return apply_waveform(symbols, d) + _complex_noise(rng, d.size, sigma2)


def pulse_rng(master_seed: int, pulse_index: int) -> np.random.Generator:
    """Per-pulse generator from the master seed; the splitting rule is
    SeedSequence(master_seed, spawn_key=(pulse_index,)), so pulses are
    independent and reproducible regardless of evaluation order."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(pulse_index,))
    )


def synthesize_raw(
    spec: WaveformSpec,
    geom: Geometry,
    scene: Scene,
    alloc: PowerAllocation,
    sigma2: float,
    seed: int,
) -> RawDataCube:
    """Fresh communication symbols every pulse: each pulse's seeded stream
    draws its symbols, then its noise; the coefficients of the occupied cells
    at every slow time pass through each pulse's waveform in one batch.
    """
    if scene.n_range_cells != spec.n_subcarriers:
        raise DimensionError("scene range cells must equal N (SWMP)")
    etas = geom.slow_time()
    symbols = np.empty((spec.n_subcarriers, etas.size), dtype=complex)
    noise = np.empty_like(symbols)
    for p in range(etas.size):
        rng = pulse_rng(seed, p)
        symbols[:, p] = draw_symbols(spec, alloc, rng)
        noise[:, p] = _complex_noise(rng, spec.n_subcarriers, sigma2)
    data = apply_waveform(symbols, scene_coefficients(geom, scene, etas)) + noise
    return RawDataCube(data, symbols, alloc)
