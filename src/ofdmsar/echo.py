"""Raw echo synthesis: circular-convolution model plus white Gaussian noise.

Because the cyclic prefix reduces the SWMP pulse-echo chain to circular
convolution, pulses are synthesized directly in the circular model
``y = ifft(S * fft(d)) + w`` (eigenvalues of the channel operator are the
subcarrier symbols; see waveform module notes on the 1/sqrt(N) normalization
relative to the raw pulse body).

Symbols, coefficients and received windows are plain complex arrays.  Each
pulse draws its own symbols and noise from its own seeded stream, so the
slow-time loop stays per pulse; the cube it returns holds the received data
and the transmitted symbols as two (N, P) arrays, column p for pulse p.
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
    """Noise-free channel action: circular model with eigenvalues S_k."""
    return np.fft.ifft(symbols * np.fft.fft(d))


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
    """Full slow-time loop: fresh communication symbols every pulse.

    Each pulse sums the occupied cells' weighting coefficients at its slow
    time, passes them through that pulse's waveform, and adds noise.
    """
    if scene.n_range_cells != spec.n_subcarriers:
        raise DimensionError("scene range cells must equal N (SWMP)")
    etas = geom.slow_time()
    data = np.empty((spec.n_subcarriers, etas.size), dtype=complex)
    symbols = np.empty_like(data)
    for p, eta in enumerate(etas):
        rng = pulse_rng(seed, p)
        syms = draw_symbols(spec, alloc, rng)
        d = scene_coefficients(geom, scene, float(eta))
        data[:, p] = synthesize_pulse(syms, d, sigma2, rng)
        symbols[:, p] = syms
    return RawDataCube(data, symbols, alloc)
