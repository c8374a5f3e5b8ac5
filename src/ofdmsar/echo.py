"""Raw echo synthesis: circular-convolution model plus white Gaussian noise.

Because the cyclic prefix reduces the SWMP pulse-echo chain to circular
convolution, one pulse is ``y = ifft(S * fft(d)) + w`` (eigenvalues of the
channel operator are the subcarrier symbols; see waveform module notes on the
1/sqrt(N) normalization relative to the raw pulse body).  An image is made in
the subcarrier domain, as the received spectrum ``Y_f = S * fft(d) + W_f``
with column p for pulse p; ``W_f``, the DFT of white CN(0, sigma^2) fast-time
noise, is white CN(0, N sigma^2) and is drawn as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import PowerAllocation, TruncationPolicy
from .errors import DimensionError
from .geometry import Geometry, Scene, scene_coefficients
from .waveform import WaveformSpec, draw_symbols

__all__ = ["RawDataCube", "apply_waveform", "synthesize_pulse", "synthesize_raw", "pulse_rng"]


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


def apply_waveform(symbols: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Circular model with eigenvalues S_k along axis 0 of (N,) or (N, P)."""
    f = np.fft.fft(d, axis=0)  # named, so numpy cannot elide it into f * symbols (other bits)
    return np.fft.ifft(symbols * f, axis=0)


def synthesize_pulse(symbols: np.ndarray, d: np.ndarray, sigma2: float, seed) -> np.ndarray:
    """One received fast-time window: y = C d + w, C the symbol circulant."""
    d = np.asarray(d, dtype=complex)
    if d.size != symbols.shape[0]:
        raise DimensionError(f"coefficient length {d.size} != N = {symbols.shape[0]}")
    y = apply_waveform(symbols, d)
    if sigma2 != 0.0:
        rng = np.random.default_rng(seed)  # a Generator passes through unchanged
        w = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
        y += np.sqrt(sigma2 / 2.0) * w
    return y


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
    policy: TruncationPolicy = TruncationPolicy(),
) -> RawDataCube:
    """Fresh symbols every pulse (Gaussian ones truncated under ``policy``)
    from stream 0 and noise (none at sigma2 = 0) from stream 1, each one
    pulse-major block: pulse p reads row p.  All pulses are made at once."""
    if scene.n_range_cells != spec.n_subcarriers:
        raise DimensionError("scene range cells must equal N (SWMP)")
    etas = geom.slow_time()
    n = spec.n_subcarriers
    symbols = draw_symbols(spec, alloc, pulse_rng(seed, 0), etas.size, policy)
    spectrum = symbols * np.fft.fft(scene_coefficients(geom, scene, etas), axis=0)
    if sigma2 != 0.0:  # interleaved real and imaginary normals, one complex row per pulse
        w = pulse_rng(seed, 1).standard_normal((etas.size, 2 * n)).view(complex)
        spectrum += np.sqrt(n * sigma2 / 2.0) * w.T
    return RawDataCube(spectrum, symbols, alloc)
