"""OFDM symbols and pulses as plain complex arrays, one unitary FFT convention.

Symbols are the (N,) complex array of subcarrier values.  The body of a pulse
is their unitary inverse DFT (``norm="ortho"``, 1/sqrt(N) both ways), so
Parseval holds exactly; the pulse puts an N-1 sample cyclic prefix before it.
The linear echo model used downstream is the symbol-eigenvalue circulant
``C = F^H diag(S_k) F`` (unitary F), whose action is ``ifft(S * fft(d))`` with
numpy's unnormalized transforms.  Relative to the raw circulant built from the
pulse body (eigenvalues ``sqrt(N) * S_k``) this carries a 1/sqrt(N)
normalization; it is chosen so the LS error closed forms
``sigma^2 * sum 1/|S_k|^2`` hold with no stray dimension factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import PowerAllocation, TruncationPolicy
from .errors import ConfigError, DimensionError

__all__ = ["WaveformSpec", "draw_symbols", "symbol_magnitudes"]


@dataclass(frozen=True)
class WaveformSpec:
    """OFDM numerology in swath-width-matched-pulse (SWMP) mode.

    SWMP ties the number of range cells to the subcarrier count, so the
    cyclic prefix is N-1 samples.  ``power_budget`` defaults to N
    (unit average power per subcarrier).
    """

    n_subcarriers: int
    subcarrier_spacing: float
    power_budget: float | None = None

    def __post_init__(self):
        if self.n_subcarriers < 1:
            raise ValueError("n_subcarriers must be >= 1")
        if self.power_budget is None:
            object.__setattr__(self, "power_budget", float(self.n_subcarriers))
        if not 0.0 < self.subcarrier_spacing < np.inf:
            raise ValueError("subcarrier_spacing must be finite and positive")
        # A normal P/N keeps a uniform allocation's sum on the budget; at most 1e100,
        # with noise_power's SNR floor of 1e-100, it keeps sigma^2 <= 1e200.
        if not np.finfo(float).tiny <= self.power_budget / self.n_subcarriers <= 1e100:
            raise ConfigError(f"power_budget / n_subcarriers = {self.power_budget} / "
                              f"{self.n_subcarriers} must be a normal float of at most 1e100")

    @property
    def bandwidth(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing

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
    policy: TruncationPolicy | None = None,
) -> np.ndarray:
    """The (N,) symbols of one OFDM pulse, or the (N, P) block of ``pulses``.

    Row p of one pulse-major block of variates serves pulse p, so column p
    does not depend on the pulse count.  Phases are uniform; magnitudes come
    from ``symbol_magnitudes``: |S_k|^2 = P_k for constant modulus (``policy``
    None), else Gaussian with E|S_k|^2 = 2 P_k (1 - ln(1 - q)) and |S_k|^2 >=
    -2 ln(1 - q) P_k at the policy's q, the law of the EMSE constant A.
    P_k = 0 gives S_k = 0.
    """
    if len(alloc) != spec.n_subcarriers:
        raise DimensionError(
            f"allocation length {len(alloc)} != N = {spec.n_subcarriers}"
        )
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    lead = () if pulses is None else (pulses,)
    n = spec.n_subcarriers
    if policy is None:
        u, phases = None, rng.uniform(0.0, 2.0 * np.pi, (*lead, n))
    else:
        u = rng.uniform(0.0, 1.0, (*lead, 2, n))  # per pulse: magnitude row, phase row
        u, phases = u[..., 0, :], 2.0 * np.pi * u[..., 1, :]
    return (symbol_magnitudes(alloc.powers, policy, u) * np.exp(1j * phases)).T


def symbol_magnitudes(powers: np.ndarray, policy: TruncationPolicy | None, u) -> np.ndarray:
    """|S_k| from uniforms ``u``: sqrt(P_k) for constant modulus (policy None),
    else Rayleigh of scale sqrt(P_k) conditioned above the policy's
    ``tail_prob`` quantile q by inverse-CDF sampling, so that
    |S_k|^2 / (2 P_k) = -ln(1 - q) - ln(1 - u), the law under which the EMSE
    constant A holds."""
    if policy is None:
        return np.sqrt(powers)
    q = policy.tail_prob
    return np.sqrt(powers) * np.sqrt(-2.0 * np.log1p(-(q + (1.0 - q) * u)))
