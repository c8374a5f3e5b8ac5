"""Quantitative evaluation: MSE-vs-SNR curves and sidelobe statistics.

The MSE sweep compares signal designs (constant-modulus vs random Gaussian,
uniform vs communication-optimal allocation) against their closed-form
predictions, with common random variates across designs within each trial.
A trial is drawn as an image draws a pulse: each SNR point owns a symbol and
a noise stream, trial t is pulse t of each, and a block of trials reads
unit-power symbols from one ``draw_symbols`` call and CN(0, N sigma^2) noise
rows in ``synthesize_pulse``'s layout.  Each design scales the symbols by
sqrt(P_k), keeping only their phase for constant modulus, and is estimated
by one batched LS call per block.  So the draws do not depend on the block
size; the summed empirical MSE does, by its summation order only.

The Gaussian law cuts the tail below its q-quantile, so the empirical
expectation exists.  It is A / (1 - q): A, the paper's truncated integral,
is not normalised by the kept mass (0.1 % apart at the default q = 1e-3).
"""

from __future__ import annotations

import numpy as np

from .allocation import (
    ChannelGains,
    PowerAllocation,
    TruncationPolicy,
    emse_of_alloc,
    water_filling,
)
from .errors import ConfigError, NoPeakError
from .rangeproc import check_ls_floor, ls_estimate
from .waveform import WaveformSpec, draw_symbols, symbol_magnitudes

__all__ = ["mse_vs_snr", "sidelobe_stats"]

#: Trials per batched LS call; it bounds the memory a sweep holds at once.
_TRIAL_BLOCK = 128


def mse_vs_snr(
    spec: WaveformSpec,
    ch: ChannelGains,
    snr_db_grid,
    n_trials: int,
    seed: int,
    policy: TruncationPolicy = TruncationPolicy(),
) -> list[dict]:
    """Empirical and analytic normalized MSE for each design and SNR point.

    The designs, in row order: constant-modulus uniform, Gaussian uniform and
    Gaussian water-filling under ``policy``.  The communication noise power is
    tied to the radar noise power (one SNR knob), so water-filling tends to
    uniform as SNR grows.  Point si draws symbols and noise from children 0
    and 1 of SeedSequence(seed, spawn_key=(si,)).  Returns one row dict per
    (snr, design) with keys ``snr_db``, ``design``, ``empirical_nmse``,
    ``analytic_nmse``.  A design whose allocation dries a subcarrier reports
    infinite MSE (LS is singular there); one whose smallest possible draw lies
    below the LS floor raises ``IllConditionedWaveformError`` before any draw.
    """
    if n_trials < 100:
        raise ConfigError(f"trials = {n_trials} must be at least 100")
    n = spec.n_subcarriers
    # Error is independent of the scene, so a unit point scatterer suffices.
    d = np.zeros(n, dtype=complex)
    d[n // 2] = 1.0
    d_f = np.fft.fft(d)[:, None]
    uniform = PowerAllocation.uniform(n, spec.power_budget)
    unit = PowerAllocation.uniform(n, n)
    rows = []
    for si, snr_db in enumerate(snr_db_grid):
        sigma2 = spec.noise_power(snr_db)
        filled = water_filling(ch.rescaled(sigma2), spec.power_budget)
        designs = [
            ("constant-modulus uniform", None, uniform),
            ("gaussian uniform", policy, uniform),
            ("gaussian comm-optimal", policy, filled),
        ]
        # A dry subcarrier makes the LS estimator singular: infinite MSE.
        sums = [0.0 if np.all(alloc.powers > 0.0) else np.inf for *_, alloc in designs]
        for (label, law, alloc), total in zip(designs, sums):
            if total == 0.0:  # magnitudes grow with u, so u = 0 gives the smallest draw
                check_ls_floor(symbol_magnitudes(alloc.powers, law, 0.0) ** 2, alloc, label)
        symbol_rng, noise_rng = map(
            np.random.default_rng, np.random.SeedSequence(seed, spawn_key=(si,)).spawn(2))
        for start in range(0, n_trials, _TRIAL_BLOCK):
            count = min(_TRIAL_BLOCK, n_trials - start)
            z = draw_symbols(spec, unit, symbol_rng, count, policy)
            # synthesize_pulse's layout: per pulse, one row of interleaved normals.
            w_f = noise_rng.standard_normal((count, 2 * n)).view(complex).T
            w_f *= np.sqrt(n * sigma2 / 2.0)
            phase = z / np.abs(z)
            for di, (_, law, alloc) in enumerate(designs):
                if sums[di] == np.inf:
                    continue
                syms = np.sqrt(alloc.powers)[:, None] * (phase if law is None else z)
                err = ls_estimate(syms * d_f + w_f, syms, alloc) - d[:, None]
                sums[di] += np.sum(np.abs(err) ** 2)
        rows += [
            {
                "snr_db": float(snr_db),
                "design": label,
                "empirical_nmse": float(total / n_trials),
                "analytic_nmse": emse_of_alloc(alloc, sigma2, law),
            }
            for (label, law, alloc), total in zip(designs, sums)
        ]
    return rows


def sidelobe_stats(profile: np.ndarray) -> tuple[float, float]:
    """Peak and integrated sidelobe ratios (dB) of a nonnegative power profile.

    The mainlobe spans the two nulls adjacent to the unique peak (found by
    walking outward while the profile strictly decreases).  A profile with no
    nonzero sidelobe reports -inf PSLR.
    """
    p = np.asarray(profile, dtype=float)
    if p.ndim != 1 or p.size < 3:
        raise NoPeakError("profile must be a 1-D vector of length >= 3")
    if np.any(p < 0):
        raise ValueError("profile values must be nonnegative")
    peak = int(np.argmax(p))
    if np.all(p == p[peak]):
        raise NoPeakError("flat profile has no unique peak")
    left = peak
    while left > 0 and p[left - 1] < p[left]:
        left -= 1
    right = peak
    while right < p.size - 1 and p[right + 1] < p[right]:
        right += 1
    side = np.concatenate([p[:left], p[right + 1 :]])
    main = p[left : right + 1]
    if side.size == 0 or side.max() == 0.0:
        return float("-inf"), float("-inf")
    pslr = 10.0 * np.log10(side.max() / p[peak])
    islr = 10.0 * np.log10(side.sum() / main.sum())
    return float(pslr), float(islr)
