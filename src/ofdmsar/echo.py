"""Echo synthesis in the received-spectrum domain, the package's one signal domain.

Because the cyclic prefix reduces the SWMP pulse-echo chain to circular
convolution, the DFT of one CP-stripped echo is diagonal across subcarriers:
``Y_f = S * fft(d) + W_f``, with the subcarrier symbols as the eigenvalues of
the channel operator (see the waveform module notes on the 1/sqrt(N)
normalization relative to the raw pulse body).  ``W_f``, the DFT of white
CN(0, sigma^2) fast-time noise, is white CN(0, N sigma^2) and is drawn as such.
An image's cube holds ``Y_f`` with column p for pulse p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import PowerAllocation, TruncationPolicy
from .errors import DimensionError
from .geometry import Geometry, Scene, scene_coefficients
from .waveform import WaveformSpec, draw_symbols

__all__ = ["RawDataCube", "synthesize_pulse", "synthesize_raw", "pulse_rng"]


@dataclass(frozen=True)
class RawDataCube:
    """Received spectrum: the (N, P) fast-time DFT of the CP-stripped echoes,
    column p for pulse p, with the symbols (N, P) and the allocation that the
    radar receiver knows because it sent them."""

    spectrum: np.ndarray
    symbols: np.ndarray
    allocation: PowerAllocation

    def __post_init__(self):
        if self.spectrum.shape != self.symbols.shape:
            raise DimensionError("one symbol column required per pulse")


def synthesize_pulse(symbols: np.ndarray, d: np.ndarray, sigma2: float, seed) -> np.ndarray:
    """Received spectrum ``S * fft(d) + W_f`` of one pulse (N,) or a block (N, P).

    The noise is one row of interleaved real and imaginary normals per pulse,
    scaled to CN(0, N sigma^2); there is none at sigma2 = 0.
    """
    d = np.asarray(d, dtype=complex)
    if d.shape != symbols.shape:
        raise DimensionError(f"coefficient shape {d.shape} != symbols {symbols.shape}")
    spectrum = symbols * np.fft.fft(d, axis=0)
    if sigma2 != 0.0:
        n = d.shape[0]
        rng = np.random.default_rng(seed)  # a Generator passes through unchanged
        w = rng.standard_normal((*d.shape[1:], 2 * n)).view(complex)
        spectrum += np.sqrt(n * sigma2 / 2.0) * w.T
    return spectrum


def pulse_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Seeded stream ``stream`` of a master seed: the child of that index of
    SeedSequence(master_seed), built without spawning its siblings.  An image
    draws its symbols from stream 0 and its noise from stream 1."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(stream,)))


def synthesize_raw(
    spec: WaveformSpec,
    geom: Geometry,
    scene: Scene,
    alloc: PowerAllocation,
    sigma2: float,
    seed: int,
    policy: TruncationPolicy | None = None,
) -> RawDataCube:
    """Fresh symbols every pulse from stream 0 (constant modulus for ``policy``
    None) and noise from stream 1, each one pulse-major block: pulse p reads
    row p.  All pulses are made in one ``synthesize_pulse`` call."""
    if scene.n_range_cells != spec.n_subcarriers:
        raise DimensionError("scene range cells must equal N (SWMP)")
    symbols = draw_symbols(spec, alloc, pulse_rng(seed, 0), geom.n_pulses, policy)
    d = scene_coefficients(geom, scene)
    return RawDataCube(synthesize_pulse(symbols, d, sigma2, pulse_rng(seed, 1)), symbols, alloc)
