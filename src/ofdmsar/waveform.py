"""OFDM symbols and pulses as plain complex arrays, one unitary FFT convention.

``WaveformSpec(n_subcarriers, bandwidth, power_budget)`` is the numerology.
Symbols are the (N,) complex array of subcarrier values.  The body of a pulse
is their unitary inverse DFT (``norm="ortho"``, 1/sqrt(N) both ways), so
Parseval holds exactly; the pulse puts an N-1 sample cyclic prefix before it.
The linear echo model used downstream is the symbol-eigenvalue circulant
``C = F^H diag(S_k) F`` (unitary F), whose action is ``ifft(S * fft(d))`` with
numpy's unnormalized transforms.  Relative to the raw circulant built from the
pulse body (eigenvalues ``sqrt(N) * S_k``) this carries a 1/sqrt(N)
normalization; it is chosen so the LS error closed forms
``sigma^2 * sum 1/|S_k|^2`` hold with no stray dimension factors.  Symbol
phases are ``unit_phasors`` of uniform turns u, within 1.2e-16 of exp(2 pi j u)
in each component (numpy's complex exp of 2 pi u strays up to 7e-16).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .allocation import ConstantModulus, PowerAllocation, SymbolLaw
from .errors import ConfigError, DimensionError

__all__ = ["WaveformSpec", "draw_symbols", "unit_phasors"]

_PHASOR_CHUNK = 2048  # 96 KiB of temporaries; at 8192 each block refaulted freed pages


@dataclass(frozen=True)
class WaveformSpec:
    """OFDM numerology ``WaveformSpec(n_subcarriers, bandwidth, power_budget)``, the
    config keys of those names, in swath-width-matched-pulse (SWMP) mode.

    SWMP ties the number of range cells to the subcarrier count, so the
    cyclic prefix is N-1 samples and the range cell is c / (2 bandwidth).
    """

    n_subcarriers: int
    bandwidth: float
    power_budget: float

    def __post_init__(self):
        if self.n_subcarriers < 1:
            raise ConfigError(f"n_subcarriers = {self.n_subcarriers} must be >= 1")
        if not 0.0 < 2.0 * self.bandwidth < np.inf:
            raise ConfigError(f"bandwidth = {self.bandwidth!r} must be positive, "
                              "with c / (2 bandwidth) above 0")
        # A normal P/N keeps a uniform allocation's sum on the budget; at most 1e100,
        # with noise_power's SNR floor of 1e-100, it keeps sigma^2 <= 1e200.
        if not np.finfo(float).tiny <= self.power_budget / self.n_subcarriers <= 1e100:
            raise ConfigError(f"power_budget / n_subcarriers = {self.power_budget} / "
                              f"{self.n_subcarriers} must be a normal float of at most 1e100")

    @property
    def cp_len(self) -> int:
        # SWMP: n_range_cells == N, CP covers M - 1 samples.
        return self.n_subcarriers - 1

    def noise_power(self, snr_db: float, key: str = "snr_db") -> float:
        """Radar noise power sigma^2 under the per-sample SNR = (P/N) / sigma^2.

        An SNR of inf, or one too large for a float, is the noise-free case,
        sigma^2 = 0.  NaN, or an SNR below -1000 dB (1e-100), raises
        ConfigError naming ``key``, the config key that holds ``snr_db``.
        """
        try:
            snr = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            snr = np.inf
        if not snr >= 1e-100:
            raise ConfigError(f"{key} holds {snr_db!r} dB, not an SNR of at least -1000 dB")
        return (self.power_budget / self.n_subcarriers) / snr


def draw_symbols(
    spec: WaveformSpec,
    alloc: PowerAllocation,
    seed,
    pulses: int | None = None,
    law: SymbolLaw = ConstantModulus(),
) -> np.ndarray:
    """The (N,) symbols of one OFDM pulse, or the (N, P) block of ``pulses``.

    Row p of one pulse-major block of variates serves pulse p, so column p
    does not depend on the pulse count; it holds ``law.uniforms`` rows of N, the
    first for ``law.magnitudes`` and the last for the phases, ``unit_phasors`` of
    uniform turns within 1.2e-16.  P_k = 0 gives S_k = 0.
    """
    if len(alloc) != spec.n_subcarriers:
        raise DimensionError(
            f"allocation length {len(alloc)} != N = {spec.n_subcarriers}"
        )
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    lead = () if pulses is None else (pulses,)
    u = rng.random((*lead, law.uniforms, spec.n_subcarriers))
    symbols = unit_phasors(u[..., -1, :])
    symbols *= law.magnitudes(alloc.powers, u[..., 0, :])
    return symbols.T


@functools.cache  # built at import, it added 250 KiB to every process's peak RSS
def _phasor_table() -> np.ndarray:
    """exp(2 pi j k / 1024) for k < 1024, each part rounded once from long double."""
    return np.exp(1j * np.arccos(np.longdouble(-1.0)) / 512 * np.arange(1024)).astype(complex)


def unit_phasors(turns) -> np.ndarray:
    """exp(2 pi j turns) for ``turns`` in [0, 1), each component within 1.2e-16: table
    entry T of the top 10 bits, times 1 + (cos t - 1 + j sin t) by Taylor series in the
    rest, t < 2 pi / 1024.  Real ufuncs and one complex product; numpy's complex exp is scalar."""
    out = np.empty(np.shape(turns), complex)
    flat, flat_out = np.asarray(turns, dtype=float).reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, _PHASOR_CHUNK):
        t = flat[i:i + _PHASOR_CHUNK] * 1024.0
        k = t.astype(np.intp)
        t = (t - k) * (np.pi / 512)  # the angle past entry k
        t2 = t * t
        z = flat_out[i:i + _PHASOR_CHUNK]
        np.add((t2 * (1 / 120) - 1 / 6) * (t2 * t), t, out=z.imag)  # sin t
        np.multiply((t2 * (-1 / 720) + 1 / 24) * t2 - 0.5, t2, out=z.real)  # cos t - 1
        table = _phasor_table().take(k)
        z *= table
        z += table
    return out
