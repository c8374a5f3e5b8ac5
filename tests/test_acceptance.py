"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(written straight to the real stdout so the lines survive pytest capture).
"""

import numpy as np
import pytest

from ofdmsar import (
    ChannelGains,
    ConstantModulus,
    PowerAllocation,
    TruncationPolicy,
    WaveformSpec,
    achievable_rate,
    draw_symbols,
    emse_of_alloc,
    emse_rate_constrained,
    form_image,
    ls_estimate,
    mse_vs_snr,
    range_profile_cube,
    sidelobe_stats,
    synthesize_pulse,
    synthesize_raw,
    tradeoff_sweep,
    water_filling,
)
from ofdmsar.cli import EXIT_OK, run
from ofdmsar.echo import draw_noise
from ofdmsar.geometry import Geometry
from ofdmsar.scenes import point_scene
from oracles import (
    apply_waveform,
    circulant_from_pulse,
    modulate,
    synthesize_pulse_linear_cp,
)

GEOM = Geometry(
    slant_range_center=np.sqrt(2.0) * 1000.0,
    velocity=40.0,
    carrier_freq=9.0e9,
    prf=800.0,
    aperture_time=1.0,
)
SPEC = WaveformSpec(64, 1.5e9, 64.0)
GAUSSIAN = TruncationPolicy()  # the Gaussian symbol law
SNR15_SIGMA2 = 10.0 ** (-1.5)  # power budget N, per-sample SNR convention


@pytest.fixture(autouse=True)
def _capture_bypass(request):
    # Route the PASS/FAIL lines past pytest's output capture so each
    # criterion's verdict always appears in the console log.
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")


def report(name: str, ok: bool) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, name


_capman = None


def test_criterion_01_noise_free_ls_exact():
    name = "noise-free least-squares range profile recovers d exactly (100 seeds, N=64)"
    alloc = PowerAllocation.uniform(64, 64.0)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        sym = draw_symbols(SPEC, alloc, rng, law=GAUSSIAN)
        d = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y_f = synthesize_pulse(sym, d, None)
        worst = max(worst, float(np.max(np.abs(ls_estimate(y_f, sym, alloc) - d))))
    report(name, worst < 1e-10)


def test_criterion_02_constant_modulus_mse_closed_form():
    name = "constant-modulus MSE matches sigma^2 * sum 1/|S_k|^2 (5% at 1e4 draws; trace identity 1e-10)"
    n, draws, sigma2 = 16, 10**4, 0.25
    spec = WaveformSpec(n, float(n), float(n))
    alloc = PowerAllocation.uniform(n, float(n))
    sym = draw_symbols(spec, alloc, seed=2)
    d = np.zeros(n, dtype=complex)
    d[n // 2] = 1.0
    rng = np.random.default_rng(3)
    total = 0.0
    for _ in range(draws):
        y = synthesize_pulse(sym, d, draw_noise(sym.size, sigma2, rng))
        total += float(np.sum(np.abs(ls_estimate(y, sym, alloc) - d) ** 2))
    expected = sigma2 * float(np.sum(1.0 / np.abs(sym) ** 2))
    mc_ok = abs(total / draws - expected) / expected < 0.05
    trace_ok = True
    for m in (2, 4, 8, 16):
        sp = WaveformSpec(m, float(m), float(m))
        al = PowerAllocation.uniform(m, float(m))
        sy = draw_symbols(sp, al, seed=m, law=GAUSSIAN)
        s_mat = circulant_from_pulse(modulate(sy, sp), sp) / np.sqrt(m)
        trace = float(np.trace(np.linalg.inv(s_mat.conj().T @ s_mat)).real)
        trace_ok &= abs(trace - float(np.sum(1.0 / np.abs(sy) ** 2))) < 1e-10
    report(name, mc_ok and trace_ok)


def test_criterion_03_truncated_gaussian_emse_factor():
    name = "truncated-Gaussian expected MSE = A * sigma^2 * sum 1/P_k (5% empirical; ratio = A to 1e-9)"
    n, draws, sigma2 = 16, 10**4, 0.25
    spec = WaveformSpec(n, float(n), float(n))
    alloc = PowerAllocation.uniform(n, float(n))
    policy = TruncationPolicy()
    d = np.zeros(n, dtype=complex)
    d[n // 2] = 1.0
    rng = np.random.default_rng(5)
    total = 0.0
    for _ in range(draws):
        sym = draw_symbols(spec, alloc, rng, law=policy)
        y = synthesize_pulse(sym, d, draw_noise(sym.size, sigma2, rng))
        total += float(np.sum(np.abs(ls_estimate(y, sym, alloc) - d) ** 2))
    expected = policy.A * sigma2 * float(np.sum(1.0 / alloc.powers))
    mc_ok = abs(total / draws - expected) / expected < 0.05
    ratio = emse_of_alloc(alloc, sigma2, policy) / (
        sigma2 * float(np.sum(1.0 / alloc.powers))
    )
    report(name, mc_ok and abs(ratio - policy.A) < 1e-9)


def test_criterion_04_optimizer_endpoints_and_brute_force():
    name = "rate-constrained optimizer: uniform at zero floor, water-filling at capacity, matches N=2 grid search"
    rng = np.random.default_rng(7)
    ch = ChannelGains(10.0 ** rng.uniform(-0.5, 0.5, 64))
    total = 64.0
    uni = emse_rate_constrained(ch, total, 0.0)
    uni_ok = float(np.max(np.abs(uni.powers - 1.0))) < 1e-8
    wf = water_filling(ch, total)
    cap = achievable_rate(wf, ch)
    at_cap = emse_rate_constrained(ch, total, cap)
    wf_ok = float(np.max(np.abs(at_cap.powers - wf.powers))) < 1e-6
    grid_ok = True
    ch2 = ChannelGains(np.array([0.5, 2.0]))
    total2 = 2.0
    cap2 = achievable_rate(water_filling(ch2, total2), ch2)
    a = TruncationPolicy().A
    p1 = np.arange(1e-4, total2, 1e-4)
    p2 = total2 - p1
    rates = np.log2(1.0 + ch2.gains[0] * p1) + np.log2(1.0 + ch2.gains[1] * p2)
    objs = a * (1.0 / p1 + 1.0 / p2)
    for frac in (0.3, 0.6, 0.9):
        r0 = frac * cap2
        feasible = rates >= r0
        brute = float(np.min(objs[feasible]))
        alloc = emse_rate_constrained(ch2, total2, r0)
        solver = a * float(np.sum(1.0 / alloc.powers))
        grid_ok &= abs(solver - brute) < 1e-6
    report(name, uni_ok and wf_ok and grid_ok)


def test_criterion_05_tradeoff_monotone_and_A_invariant():
    name = "imaging-vs-rate tradeoff curve is nondecreasing (20 channels, 32-point grid) and A-invariant"
    policy = TruncationPolicy()
    mono_ok = True
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        ch = ChannelGains(10.0 ** rng.uniform(-0.5, 0.5, 32))
        pts = tradeoff_sweep(ch, 32.0, 1.0, policy, 32)
        emses = [pt.emse for pt in pts]
        mono_ok &= all(b >= a - 1e-9 * max(a, 1.0) for a, b in zip(emses, emses[1:]))

    class UnitA:
        A = 1.0

    # A scales only the EMSE column: every allocation on the grid is bit-identical.
    rng = np.random.default_rng(200)
    ch = ChannelGains(10.0 ** rng.uniform(-0.5, 0.5, 32))
    pairs = zip(tradeoff_sweep(ch, 32.0, 1.0, policy, 32),
                tradeoff_sweep(ch, 32.0, 1.0, UnitA(), 32))
    inv_ok = all(np.array_equal(p1.allocation.powers, p2.allocation.powers) for p1, p2 in pairs)
    report(name, mono_ok and inv_ok)


def _focused_point(law, sigma2, seed):
    scene = point_scene(SPEC, 1)
    alloc = PowerAllocation.uniform(64, 64.0)
    return form_image(SPEC, GEOM, scene, alloc, sigma2, seed, law)


def _aligned_db_profile(row: np.ndarray, upsample: int = 16) -> np.ndarray:
    """Peak-aligned dB azimuth profile at sub-cell resolution.

    The two signal types focus the peak at slightly different sub-cell
    positions; without fractional alignment the comparison is dominated by
    the resulting antisymmetric skew of the mainlobe skirts.
    """
    n = row.size
    f = np.fft.fft(row)
    pad = np.zeros(n * upsample, dtype=complex)
    pad[: n // 2] = f[: n // 2]
    pad[-n // 2 :] = f[-n // 2 :]
    mag = np.abs(np.fft.ifft(pad))
    mag = np.roll(mag, mag.size // 2 - int(np.argmax(mag)))
    return 20.0 * np.log10(mag / mag.max() + 1e-300)


def test_criterion_06_point_target_focusing():
    name = "point target at 15 dB focuses within one cell for both signal types; azimuth mainlobes agree within 1 dB RMS"
    profiles = {}
    peak_ok = True
    for label, law in (("cm", ConstantModulus()), ("gauss", GAUSSIAN)):
        img = _focused_point(law, SNR15_SIGMA2, seed=11)
        peak = np.unravel_index(
            np.argmax(np.abs(img.complex_image)), img.db_image.shape
        )
        peak_ok &= abs(peak[0] - 32) <= 1 and abs(peak[1] - GEOM.n_pulses // 2) <= 1
        profiles[label] = _aligned_db_profile(img.complex_image[peak[0]])
    # Mainlobe support: walk outward from the peak of the constant-modulus
    # profile while the magnitude decreases, then keep the part above -10 dB
    # (the skirts near the nulls sit on the deconvolution-noise pedestal,
    # ~ -18 dB at this SNR, and are noise, not waveform shape).
    cm, gauss = profiles["cm"], profiles["gauss"]
    peak_idx = int(np.argmax(cm))
    lo = hi = peak_idx
    while lo > 0 and cm[lo - 1] < cm[lo]:
        lo -= 1
    while hi < cm.size - 1 and cm[hi + 1] < cm[hi]:
        hi += 1
    idx = np.arange(lo, hi + 1)
    idx = idx[cm[idx] > -10.0]
    rms = float(np.sqrt(np.mean((cm[idx] - gauss[idx]) ** 2)))
    report(name, peak_ok and rms < 1.0)


def test_criterion_07_sidelobe_ordering():
    name = "median range-profile PSLR: Gaussian signaling strictly worse than constant-modulus (100 seeds, 15 dB)"
    alloc = PowerAllocation.uniform(64, 64.0)
    d = np.zeros(64, dtype=complex)
    d[32] = 1.0
    pslrs = {"cm": [], "gauss": []}
    for seed in range(100):
        for label, law in (("cm", ConstantModulus()), ("gauss", GAUSSIAN)):
            rng = np.random.default_rng(3000 + seed)
            sym = draw_symbols(SPEC, alloc, rng, law=law)
            y = synthesize_pulse(sym, d, draw_noise(sym.size, SNR15_SIGMA2, rng))
            profile = np.abs(ls_estimate(y, sym, alloc)) ** 2
            pslr, _ = sidelobe_stats(profile)
            pslrs[label].append(pslr)
    report(name, float(np.median(pslrs["gauss"])) > float(np.median(pslrs["cm"])))


def test_criterion_08_high_snr_gap_convergence():
    name = "comm-optimal vs imaging-optimal MSE gap shrinks monotonically over 0/10/20/30 dB"
    profile = 1.0 + 0.5 * np.sin(2.0 * np.pi * np.arange(64) / 64)
    ch = ChannelGains(profile / profile.mean())
    rows = mse_vs_snr(SPEC, ch, [0.0, 10.0, 20.0, 30.0], 500, seed=13)
    gaps, emp_gaps = [], []
    for snr in (0.0, 10.0, 20.0, 30.0):
        at = {r["design"]: r for r in rows if r["snr_db"] == snr}
        gaps.append(
            at["gaussian comm-optimal"]["analytic_nmse"]
            - at["gaussian uniform"]["analytic_nmse"]
        )
        emp_gaps.append(
            at["gaussian comm-optimal"]["empirical_nmse"]
            - at["gaussian uniform"]["empirical_nmse"]
        )
    mono = all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] > 0.0
    # The high-SNR gaps sit below Monte-Carlo resolution, so the empirical
    # check is confined to the dominant low-SNR gap.
    emp_ok = emp_gaps[0] > 0.0 and emp_gaps[0] > 10.0 * abs(emp_gaps[-1])
    report(name, mono and emp_ok)


def test_criterion_09_linear_cp_equals_circular_model():
    name = "cyclic-prefix linear convolution, trimmed, equals the circular echo model (N=8, 1e-12)"
    n = 8
    spec = WaveformSpec(n, float(n), float(n))
    alloc = PowerAllocation.uniform(n, float(n))
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        sym = draw_symbols(spec, alloc, rng, law=GAUSSIAN)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        circ = apply_waveform(sym, d)
        lin = synthesize_pulse_linear_cp(modulate(sym, spec), d)
        worst = max(worst, float(np.max(np.abs(lin - circ))))
    report(name, worst < 1e-12)


def test_criterion_10_simulate_determinism(tmp_path):
    name = "two simulate runs with identical config and seed produce byte-identical artifacts"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_subcarriers = 16\nprf = 16\naperture_time = 1.0\n")
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = run(
            ["--config", str(cfg), "--seed", "42", "--out", str(out), "simulate"]
        )
        assert code == EXIT_OK
        blobs.append(
            (out / "image.pgm").read_bytes() + (out / "image_db.csv").read_bytes()
        )
    report(name, blobs[0] == blobs[1])


def test_criterion_11_image_error_equals_emse():
    name = "image error energy / n_pulses^2 equals the EMSE for both signal types (point scene, 15 dB, 16 seeds)"
    # LS on a noise-free spectrum returns d, so with the same seed (the same
    # symbols) the noisy-minus-clean profiles are the LS error alone.  The
    # unit-modulus azimuth reference multiplies white error energy by
    # n_pulses, and focusing a unit scatterer gives a peak of n_pulses.
    scene = point_scene(SPEC, 1)
    alloc = PowerAllocation.uniform(64, 64.0)
    policy = TruncationPolicy()
    seeds = range(16)
    ok = True
    # Per-pulse expectation: A = 1 exactly for constant modulus; Gaussian
    # E[1/|S_k|^2] = A / ((1 - q) P_k), where A omits the 1 / (1 - q).
    for pol, exact in ((ConstantModulus(), 1.0), (policy, 1.0 / (1.0 - policy.tail_prob))):
        emse = emse_of_alloc(alloc, SNR15_SIGMA2, pol)
        profile_ratios, image_ratios = [], []
        for seed in seeds:
            noise_powers = (SNR15_SIGMA2, 0.0)  # noisy, then noise-free
            profiles = [
                range_profile_cube(synthesize_raw(SPEC, GEOM, scene, alloc, s2, seed, pol))
                for s2 in noise_powers
            ]
            images = [
                form_image(SPEC, GEOM, scene, alloc, s2, seed, pol).complex_image
                for s2 in noise_powers
            ]
            profile_err = np.sum(np.abs(profiles[0] - profiles[1]) ** 2) / GEOM.n_pulses
            image_err = np.sum(np.abs(images[0] - images[1]) ** 2) / GEOM.n_pulses**2
            profile_ratios.append(profile_err / emse)
            image_ratios.append(image_err / emse)
        se = np.std(profile_ratios, ddof=1) / np.sqrt(len(seeds))
        ok &= abs(np.mean(profile_ratios) - exact) <= 3.0 * se
        ok &= 0.95 <= np.mean(image_ratios) <= 1.05
    report(name, bool(ok))
