"""Quantitative evaluation: MSE-vs-SNR curves and sidelobe statistics.

The MSE sweep compares signal designs (constant-modulus vs random Gaussian,
uniform vs communication-optimal allocation) against their closed-form
predictions, with common random variates across designs within each trial.
A trial is drawn as an image draws a pulse: SNR point si is the key ``(si,)``
of ``echo.pulse_blocks``, trial t is pulse t of its two streams, and the
trials come in the blocks that it draws as each is taken: unit-power Gaussian
symbols z and ``draw_noise``'s CN(0, N sigma^2) rows.  Each design scales its
symbol law's ``unit_symbols`` of z by sqrt(P_k), and its ``ls_spectrum`` estimate
X of a block is scored in the subcarrier domain by Parseval's theorem,
sum |ifft(X) - d|^2 = sum |X - fft(d)|^2 / N, so no inverse FFT is made.  The
draws do not depend on the block size; the summed MSE does, by its order only.
A block's one |z| gives each law its unit symbols and least |S_k|^2 per subcarrier.

The Gaussian law cuts the tail below its q-quantile, so the empirical
expectation exists.  It is A / (1 - q): A, the paper's truncated integral,
is not normalised by the kept mass (0.1 % apart at the default q = 1e-3).
"""

from __future__ import annotations

import numpy as np

from .allocation import (
    ChannelGains,
    ConstantModulus,
    PowerAllocation,
    TruncationPolicy,
    emse_of_alloc,
    water_filling,
)
from .echo import pulse_blocks
from .errors import ConfigError, NoPeakError
from .rangeproc import check_ls_floor, ls_spectrum
from .rangeproc import ls_estimate  # noqa: F401  unused: a tracer target until ROADMAP 1a
from .waveform import WaveformSpec

__all__ = ["mse_vs_snr", "sidelobe_stats"]


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
    uniform as SNR grows.  Point si draws symbols and noise from streams
    (si, 0) and (si, 1) of ``seed``.  Returns one row dict per
    (snr, design) with keys ``snr_db``, ``design``, ``empirical_nmse``,
    ``analytic_nmse``.  A design whose allocation dries a subcarrier reports
    infinite MSE (LS is singular there); one whose smallest possible draw lies
    below the LS floor raises ``IllConditionedWaveformError`` before any draw,
    and a drawn Gaussian symbol below it raises in its block.
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
            ("constant-modulus uniform", ConstantModulus(), uniform),
            ("gaussian uniform", policy, uniform),
            ("gaussian comm-optimal", policy, filled),
        ]
        # A dry subcarrier makes the LS estimator singular: infinite MSE.
        sums = [0.0 if np.all(alloc.powers > 0.0) else np.inf for *_, alloc in designs]
        roots = [np.sqrt(alloc.powers)[:, None] for *_, alloc in designs]
        for (label, law, alloc), total in zip(designs, sums):
            if total == 0.0:  # magnitudes grow with u, so u = 0 gives the smallest draw
                check_ls_floor(law.magnitudes(alloc.powers, 0.0) ** 2, alloc, label)
        for z, w_f in pulse_blocks(seed, (si,), spec, unit, policy, sigma2, n_trials):
            r = np.abs(z)  # one |z| a block serves every law
            drawn = {law: law.unit_symbols(z, r) for law in {law for _, law, _ in designs}}
            for di, (label, law, alloc) in enumerate(designs):
                if sums[di] == np.inf:
                    continue
                symbols, low = drawn[law]  # a drawn symbol below the floor fails in its block
                check_ls_floor(alloc.powers * low, alloc, label)
                syms = roots[di] * symbols
                y = d_f * syms  # synthesize_pulse's operand order: its spectrum bit for bit
                y += w_f
                x = ls_spectrum(y, syms, alloc)
                x -= d_f  # the error's DFT: Parseval sums it without an inverse FFT
                x = x.ravel("K")  # a view in any one-segment layout
                sums[di] += np.vdot(x, x).real
        rows += [
            {
                "snr_db": float(snr_db),
                "design": label,
                "empirical_nmse": float(total / (n * n_trials)),
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
