"""Echo synthesis in the received-spectrum domain, the package's one signal domain.

Because the cyclic prefix reduces the SWMP pulse-echo chain to circular
convolution, the DFT of one CP-stripped echo is diagonal across subcarriers:
``Y_f = S * fft(d) + W_f``, with the subcarrier symbols as the eigenvalues of
the channel operator (see the waveform module notes on the 1/sqrt(N)
normalization relative to the raw pulse body).  ``W_f``, the DFT of white
CN(0, sigma^2) fast-time noise, is white CN(0, N sigma^2) and is drawn as such
by ``draw_noise``.  ``synthesize_raw`` returns ``Y_f``, column p for pulse p, and
the symbols and allocation.  ``pulse_blocks`` draws a block of whole pulses at a
time, in order on the calling thread as each is taken, for an image and for the
MSE Monte Carlo alike.
"""

from __future__ import annotations

import numpy as np

from .allocation import ConstantModulus, PowerAllocation, SymbolLaw
from .errors import DimensionError
from .geometry import Geometry, Scene, scene_coefficients
from .waveform import WaveformSpec, draw_symbols

__all__ = ["draw_noise", "pulse_blocks", "synthesize_pulse", "synthesize_raw", "pulse_rng"]

_BLOCK_CELLS = 8192  # cells of whole pulses, or of the dB raster's text, worked on at a time


def draw_noise(n: int, sigma2: float, seed, pulses: int | None = None) -> np.ndarray | None:
    """White CN(0, n sigma2) subcarrier noise of one pulse (n,), or the (n, P) block
    of ``pulses``: per pulse one row of 2n interleaved real and imaginary normals,
    so column p does not depend on the pulse count.  None at sigma2 = 0, drawing none."""
    if sigma2 == 0.0:
        return None
    lead = () if pulses is None else (pulses,)
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    w = rng.standard_normal((*lead, 2 * n)).view(complex).T
    w *= np.sqrt(n * sigma2 / 2.0)
    return w


def synthesize_pulse(symbols: np.ndarray, d: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """Received spectrum ``S * fft(d) + W_f`` of one pulse (N,) or a block (N, P), in the
    symbols' layout, with the ``draw_noise`` block ``noise`` as W_f; None adds none."""
    d = np.asarray(d, dtype=complex)
    if d.shape != symbols.shape:
        raise DimensionError(f"coefficient shape {d.shape} != symbols {symbols.shape}")
    spectrum = np.fft.fft(d, axis=0, out=np.empty_like(symbols, dtype=complex))
    spectrum *= symbols  # in place, as numpy does for a whole image: blocks round the same
    if noise is not None:
        spectrum += noise
    return spectrum


def pulse_blocks(seed: int, key: tuple[int, ...], spec: WaveformSpec, alloc: PowerAllocation,
                 law: SymbolLaw, sigma2: float, pulses: int):
    """The (symbols, noise) of each block of max(1, _BLOCK_CELLS // N) whole pulses,
    as ``draw_symbols`` and ``draw_noise`` draw all ``pulses`` from streams
    ``(*key, 0)`` and ``(*key, 1)`` of ``seed``.  Each block is drawn as it is
    taken, by this module's names, which a tracer wraps."""
    symbol_rng, noise_rng = pulse_rng(seed, *key, 0), pulse_rng(seed, *key, 1)
    step = max(1, _BLOCK_CELLS // spec.n_subcarriers)
    for p in range(0, pulses, step):
        count = min(step, pulses - p)
        yield (draw_symbols(spec, alloc, symbol_rng, count, law),
               draw_noise(spec.n_subcarriers, sigma2, noise_rng, count))


def pulse_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Stream ``key`` of a master seed, SeedSequence(master_seed, spawn_key=key):
    the child ``key[-1]`` of stream ``key[:-1]``, built without spawning its siblings."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def synthesize_raw(
    spec: WaveformSpec,
    geom: Geometry,
    scene: Scene,
    alloc: PowerAllocation,
    sigma2: float,
    seed: int,
    law: SymbolLaw = ConstantModulus(),
) -> tuple[np.ndarray, np.ndarray, PowerAllocation]:
    """The (N, P) received spectrum, the symbols and ``alloc``: the arguments of
    ``ls_estimate``.  Fresh symbols of symbol law ``law`` every pulse from stream 0 and
    noise from stream 1, each one pulse-major block: pulse p reads row p.  All pulses
    are made in one ``synthesize_pulse`` call."""
    symbols = draw_symbols(spec, alloc, pulse_rng(seed, 0), geom.n_pulses, law)
    noise = draw_noise(spec.n_subcarriers, sigma2, pulse_rng(seed, 1), geom.n_pulses)
    d = scene_coefficients(geom, scene)
    return synthesize_pulse(symbols, d, noise), symbols, alloc
