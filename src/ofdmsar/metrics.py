"""Quantitative evaluation: MSE-vs-SNR curves and sidelobe statistics.

The MSE sweep compares signal designs (constant-modulus vs random Gaussian,
uniform vs communication-optimal allocation) against their closed-form
predictions.  Common random variates are shared across designs within each
trial so design-to-design gaps are estimated with far less Monte-Carlo noise
than the curves themselves.  Each SNR point owns four seeded streams (magnitude
uniforms, phase uniforms, real and imaginary noise normals), and trial t reads
row t of each, in trial order.  The trials are estimated in fixed blocks, one
batched LS call per design and block on the received spectrum
``S * fft(d) + fft(w)``; a block reads its rows of each stream in one draw and
transforms its fast-time noise once for all designs.  So the draws do not
depend on the block size, and the analytic column does not either; the summed
empirical column does, by its summation order only (up to 8.9e-16 relative
between blocks of 1, 7, 128, 256 and 1000 trials).

Every design's magnitudes come from ``symbol_magnitudes``, the sampler images
use: a law of None is constant modulus, and a policy cuts the Gaussian tail
below its q-quantile, so the empirical expectation exists and matches A.
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
from .waveform import WaveformSpec, symbol_magnitudes

__all__ = ["DEFAULT_DESIGNS", "mse_vs_snr", "sidelobe_stats"]

#: Trials per batched LS call; it bounds the memory a sweep holds at once.
_TRIAL_BLOCK = 128


#: (label, Gaussian symbols, water-filling allocation) of each design; the
#: others draw constant-modulus symbols or spread the power uniformly.
DEFAULT_DESIGNS = (
    ("constant-modulus uniform", False, False),
    ("gaussian uniform", True, False),
    ("gaussian comm-optimal", True, True),
)


def _point_streams(seed: int, si: int) -> list[np.random.Generator]:
    """Magnitude, phase, real-noise and imaginary-noise streams of SNR point si.

    They are the four children of SeedSequence(seed, spawn_key=(si,)).
    """
    root = np.random.SeedSequence(seed, spawn_key=(si,))
    return [np.random.default_rng(child) for child in root.spawn(4)]


def _trial_variates(streams, count: int, n: int) -> tuple[np.ndarray, ...]:
    """The next ``count`` trials' uniforms and noise normals, each (n, count)."""
    mag, phase, re, im = streams
    draws = (
        mag.uniform(0.0, 1.0, (count, n)),
        phase.uniform(0.0, 2.0 * np.pi, (count, n)),
        re.standard_normal((count, n)),
        im.standard_normal((count, n)),
    )
    return tuple(x.T for x in draws)


def mse_vs_snr(
    spec: WaveformSpec,
    ch: ChannelGains,
    snr_db_grid,
    n_trials: int,
    seed: int,
    policy: TruncationPolicy = TruncationPolicy(),
) -> list[dict]:
    """Empirical and analytic normalized MSE for each default design and SNR point.

    The communication noise power is tied to the radar noise power (one SNR
    knob), so the water-filling design tends to uniform as SNR grows.
    ``policy`` is the Gaussian designs' law; the constant-modulus one's is None.
    Returns one row dict per (snr, design) with keys ``snr_db``, ``design``,
    ``empirical_nmse``, ``analytic_nmse``.  Designs whose allocation dries a
    subcarrier report infinite MSE (the LS estimator is singular there); one
    whose smallest possible draw lies below the LS floor raises
    ``IllConditionedWaveformError`` before any trial is drawn.
    """
    if n_trials < 100:
        raise ConfigError(f"trials = {n_trials} must be at least 100")
    policies = [policy if gaussian else None for _, gaussian, _ in DEFAULT_DESIGNS]
    n = spec.n_subcarriers
    # Error is independent of the scene, so a unit point scatterer suffices.
    d = np.zeros(n, dtype=complex)
    d[n // 2] = 1.0
    d_f = np.fft.fft(d)[:, None]
    uniform = PowerAllocation.uniform(n, spec.power_budget)
    rows = []
    for si, snr_db in enumerate(snr_db_grid):
        sigma2 = spec.noise_power(snr_db)
        filled = water_filling(ch.rescaled(sigma2), spec.power_budget)
        allocs = [filled if filling else uniform for *_, filling in DEFAULT_DESIGNS]
        alive = [not np.any(al.powers == 0.0) for al in allocs]
        for (label, *_), alloc, pol, live in zip(DEFAULT_DESIGNS, allocs, policies, alive):
            if live:  # magnitudes grow with u, so u = 0 gives the smallest draw
                check_ls_floor(symbol_magnitudes(alloc.powers, pol, 0.0) ** 2, alloc, label)
        # A dry subcarrier makes the LS estimator singular: infinite MSE.
        sums = np.where(alive, 0.0, np.inf)
        streams = _point_streams(seed, si)
        for start in range(0, n_trials, _TRIAL_BLOCK):
            count = min(_TRIAL_BLOCK, n_trials - start)
            u, phases, w_re, w_im = _trial_variates(streams, count, n)
            rotations = np.exp(1j * phases)
            w_f = np.fft.fft(np.sqrt(sigma2 / 2.0) * (w_re + 1j * w_im), axis=0)
            for di, alloc in enumerate(allocs):
                if not alive[di]:
                    continue
                syms = symbol_magnitudes(alloc.powers[:, None], policies[di], u) * rotations
                err = ls_estimate(syms * d_f + w_f, syms, alloc) - d[:, None]
                sums[di] += np.sum(np.abs(err) ** 2)
        for di, (label, *_) in enumerate(DEFAULT_DESIGNS):
            rows.append(
                {
                    "snr_db": float(snr_db),
                    "design": label,
                    "empirical_nmse": float(sums[di] / n_trials),
                    "analytic_nmse": emse_of_alloc(allocs[di], sigma2, policies[di]),
                }
            )
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
