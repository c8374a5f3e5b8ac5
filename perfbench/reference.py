"""Reference values for the benchmark's checks, computed apart from ofdmsar.

Nothing here imports ``ofdmsar``. Each value comes from the method's
definitions by another route than the library's: quadrature instead of the
exponential integral, a sort instead of bisection for water-filling, closed
forms for the uniform allocation, and a general-purpose SQP solve for one
rate-constrained point. A fault in the library therefore cannot pass a check
by agreeing with itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize


def noise_power(power_budget: float, n: int, snr_db: float) -> float:
    """Radar noise power under the per-sample SNR convention (P/N)/sigma^2."""
    return (power_budget / n) / 10.0 ** (snr_db / 10.0)


def truncation_point(tail_prob: float) -> float:
    """Lower limit t0 of T = |S|^2 / (2P) ~ Exp(1) after removing the q tail."""
    return -math.log1p(-tail_prob)


def emse_constant(tail_prob: float) -> float:
    """A = integral of exp(-t^2)/t above the Rayleigh q-quantile, by quadrature."""
    t_low = math.sqrt(truncation_point(tail_prob))
    value, _ = integrate.quad(lambda t: math.exp(-t * t) / t, t_low, np.inf, limit=200)
    return value


def inverse_moments(tail_prob: float) -> tuple[float, float]:
    """E[1/T] and E[1/T^2] for T ~ Exp(1) conditioned on T >= t0.

    Integrated on a log scale, t = e^u, where both integrands are smooth.
    """
    t0 = truncation_point(tail_prob)
    lo, hi = math.log(t0), math.log(60.0)
    m1, _ = integrate.quad(lambda u: math.exp(-math.exp(u)), lo, hi, limit=200)
    m2, _ = integrate.quad(lambda u: math.exp(-math.exp(u) - u), lo, hi, limit=200)
    keep = 1.0 - tail_prob
    return m1 / keep, m2 / keep


def multipath_gains(n: int, taps: int, seed: int) -> np.ndarray:
    """The config's frequency-selective channel: |DFT of Gaussian taps|^2, unit mean."""
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal(taps) + 1j * rng.standard_normal(taps)) / math.sqrt(2.0 * taps)
    profile = np.abs(np.fft.fft(h, n)) ** 2
    return profile / profile.mean()


def water_filling(gains: np.ndarray, total: float) -> np.ndarray:
    """Rate-maximizing powers (w - 1/g)+ found by sorting the floor levels."""
    g = np.asarray(gains, dtype=float)
    live = np.flatnonzero(g > 0)
    floors = np.sort(1.0 / g[live])
    for m in range(floors.size, 0, -1):
        level = (total + floors[:m].sum()) / m
        if level > floors[m - 1]:
            break
    powers = np.zeros_like(g)
    powers[live] = np.maximum(level - 1.0 / g[live], 0.0)
    return powers


def rate_bits(powers: np.ndarray, gains: np.ndarray) -> float:
    return float(np.sum(np.log2(1.0 + powers * gains)))


def uniform_cm_mse(sigma2: float, n: int, total: float) -> float:
    """Constant-modulus LS MSE at uniform power: sigma^2 N^2 / P."""
    return sigma2 * n * n / total


def uniform_emse(a: float, sigma2: float, n: int, total: float) -> float:
    """Expected MSE of random signaling at uniform power: A sigma^2 N^2 / P."""
    return a * sigma2 * n * n / total


def emse_convex(gains: np.ndarray, total: float, rate_floor: float) -> np.ndarray:
    """Powers minimizing sum 1/P_k s.t. sum P_k = P and rate >= floor, by SLSQP."""
    g = np.asarray(gains, dtype=float)
    n = g.size
    ln2 = math.log(2.0)
    constraints = [
        {"type": "eq", "fun": lambda p: p.sum() - total, "jac": lambda p: np.ones(n)},
        {
            "type": "ineq",
            "fun": lambda p: np.sum(np.log1p(g * p)) / ln2 - rate_floor,
            "jac": lambda p: g / ((1.0 + g * p) * ln2),
        },
    ]
    result = optimize.minimize(
        lambda p: np.sum(1.0 / p),
        np.full(n, total / n),
        jac=lambda p: -1.0 / p**2,
        bounds=[(1e-12 * total, total)] * n,
        constraints=constraints,
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    return result.x


def sinc_pslr_db() -> float:
    """Peak sidelobe of |sinc|^2, the response of a uniform synthetic aperture."""
    result = optimize.minimize_scalar(
        lambda x: -((math.sin(math.pi * x) / (math.pi * x)) ** 2),
        bounds=(1.0, 2.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return 10.0 * math.log10(-result.fun)


def azimuth_cell_pulses(carrier_freq: float, slant_range: float, velocity: float,
                        aperture_time: float, prf: float) -> float:
    """Azimuth resolution lambda R / (2 v T) expressed in pulses (slow-time samples)."""
    wavelength = 299792458.0 / carrier_freq
    resolution_m = wavelength * slant_range / (2.0 * velocity * aperture_time)
    return resolution_m / velocity * prf


def peak_sidelobe_db(power: np.ndarray) -> float:
    """Highest sidelobe relative to the peak, outside the mainlobe's nulls."""
    p = np.asarray(power, dtype=float)
    peak = int(np.argmax(p))
    left = peak
    while left > 0 and p[left - 1] < p[left]:
        left -= 1
    right = peak
    while right < p.size - 1 and p[right + 1] < p[right]:
        right += 1
    side = np.concatenate([p[:left], p[right + 1 :]])
    return float(10.0 * np.log10(side.max() / p[peak]))


def silhouette_rows(n: int) -> tuple[int, int]:
    """Range rows [first, stop) of the car scene: cabin top to wheel bottom."""
    return int(0.28 * n), min(int(0.68 * n), n)


def pgm_pixels(db: np.ndarray, floor: float = -40.0) -> np.ndarray:
    """8-bit grey levels of a dB raster, with [floor, 0] dB mapped to [0, 255]."""
    scaled = np.clip((np.asarray(db, dtype=float) - floor) / -floor, 0.0, 1.0)
    return np.rint(scaled * 255.0).astype(np.uint8)
