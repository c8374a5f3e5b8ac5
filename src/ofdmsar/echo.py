"""Echo synthesis in the received-spectrum domain, the package's one signal domain.

Because the cyclic prefix reduces the SWMP pulse-echo chain to circular
convolution, the DFT of one CP-stripped echo is diagonal across subcarriers:
``Y_f = S * fft(d) + W_f``, with the subcarrier symbols as the eigenvalues of
the channel operator (see the waveform module notes on the 1/sqrt(N)
normalization relative to the raw pulse body).  ``W_f``, the DFT of white
CN(0, sigma^2) fast-time noise, is white CN(0, N sigma^2) and is drawn as such
by ``draw_noise``.  An image's cube holds ``Y_f`` with column p for pulse p.
``pulse_blocks`` draws symbols and noise a block of whole pulses at a time on a
worker thread, for an image and for the MSE Monte Carlo alike.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .allocation import PowerAllocation, TruncationPolicy
from .errors import DimensionError
from .geometry import Geometry, Scene, scene_coefficients
from .waveform import WaveformSpec, draw_symbols

__all__ = ["RawDataCube", "draw_noise", "pulse_blocks", "synthesize_pulse", "synthesize_raw",
           "pulse_rng"]

_BLOCK_CELLS = 8192  # cells of whole pulses, or whole range rows, worked on at a time
_DRAWS_AHEAD = 2  # blocks the worker draws ahead of the block taken


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
    """Received spectrum ``S * fft(d) + W_f`` of one pulse (N,) or a block (N, P),
    with the ``draw_noise`` block ``noise`` as W_f; None adds none."""
    d = np.asarray(d, dtype=complex)
    if d.shape != symbols.shape:
        raise DimensionError(f"coefficient shape {d.shape} != symbols {symbols.shape}")
    spectrum = np.fft.fft(d, axis=0)
    spectrum *= symbols  # in place, as numpy does for a whole image: blocks round the same
    if noise is not None:
        spectrum += noise
    return spectrum


@contextmanager
def pulse_blocks(symbol_rng, noise_rng, spec: WaveformSpec, alloc: PowerAllocation,
                 policy: TruncationPolicy | None, sigma2: float, pulses: int):
    """Within ``with``, an iterator of the (symbols, noise) of each block of
    max(1, _BLOCK_CELLS // N) whole pulses, as ``draw_symbols`` and ``draw_noise``
    draw all ``pulses`` from the two streams.  One worker thread draws both, in block
    order, ``_DRAWS_AHEAD`` blocks ahead of the block taken, so each stream is drawn
    by one thread and no draw depends on it.  The worker starts on entry and is
    joined on every exit; a failed draw raises where its block is taken."""
    from concurrent.futures import ThreadPoolExecutor  # only a block source needs the worker

    step = max(1, _BLOCK_CELLS // spec.n_subcarriers)

    def draw(p):  # the block from pulse p, by this module's names, which a tracer wraps
        count = min(step, pulses - p)
        return (draw_symbols(spec, alloc, symbol_rng, count, policy),
                draw_noise(spec.n_subcarriers, sigma2, noise_rng, count))

    def blocks(ahead):
        for p in range(_DRAWS_AHEAD * step, pulses + _DRAWS_AHEAD * step, step):
            block = ahead.popleft().result()
            if p < pulses:  # the block _DRAWS_AHEAD past the one taken
                ahead.append(worker.submit(draw, p))
            yield block

    with ThreadPoolExecutor(max_workers=1) as worker:
        yield blocks(deque(worker.submit(draw, p)
                           for p in range(0, min(pulses, _DRAWS_AHEAD * step), step)))


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
    noise = draw_noise(spec.n_subcarriers, sigma2, pulse_rng(seed, 1), geom.n_pulses)
    d = scene_coefficients(geom, scene)
    return RawDataCube(synthesize_pulse(symbols, d, noise), symbols, alloc)
