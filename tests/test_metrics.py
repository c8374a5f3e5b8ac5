import numpy as np
import pytest

from ofdmsar import (
    ChannelGains,
    PowerAllocation,
    TruncationPolicy,
    mse_vs_snr,
    sidelobe_stats,
    water_filling,
)
from ofdmsar import echo, metrics
from ofdmsar.config import parse_config
from ofdmsar.echo import draw_noise
from ofdmsar.errors import ConfigError, IllConditionedWaveformError, NoPeakError
from ofdmsar.waveform import draw_symbols

#: (label, Gaussian symbols, water-filling allocation) of each design, in row order.
DESIGNS = (
    ("constant-modulus uniform", False, False),
    ("gaussian uniform", True, False),
    ("gaussian comm-optimal", True, True),
)


def point_streams(seed, si):
    """The symbol and noise streams of SNR point si."""
    root = np.random.SeedSequence(seed, spawn_key=(si,))
    return [np.random.default_rng(child) for child in root.spawn(2)]


def per_trial_mse(spec, ch, snr_grid, n_trials, seed, policy):
    """One trial at a time, as the sweep is specified: {(snr, label): (emp, ana)}."""
    n, total, q, a = spec.n_subcarriers, spec.power_budget, policy.tail_prob, policy.A
    d = np.zeros(n, dtype=complex)
    d[n // 2] = 1.0
    lag = (np.arange(n)[:, None] - np.arange(n)) % n  # circulant index of a convolution
    out = {}
    for si, snr_db in enumerate(snr_grid):
        sigma2 = (total / n) / 10.0 ** (snr_db / 10.0)
        ch_eff = ChannelGains(ch.gains / sigma2)
        powers = {
            False: PowerAllocation.uniform(n, total).powers,
            True: water_filling(ch_eff, total).powers,
        }
        sums = dict.fromkeys((label for label, *_ in DESIGNS), 0.0)
        # Trial t reads row t of each stream: a magnitude and a phase row of
        # uniforms, and 2N interleaved normals of subcarrier noise.
        symbol_rng, noise_rng = point_streams(seed, si)
        for _ in range(n_trials):
            u, v = symbol_rng.uniform(0.0, 1.0, (2, n))
            w_f = np.sqrt(n * sigma2 / 2.0) * noise_rng.standard_normal(2 * n).view(complex)
            for label, gaussian, filling in DESIGNS:
                mags = np.sqrt(powers[filling])
                if gaussian:
                    mags = mags * np.sqrt(-2.0 * np.log1p(-(q + (1.0 - q) * u)))
                s = mags * np.exp(2j * np.pi * v)
                y = np.fft.ifft(s)[lag] @ d + np.fft.ifft(w_f)  # fast-time echo
                sums[label] += np.sum(np.abs(np.fft.ifft(np.fft.fft(y) / s) - d) ** 2)
        for label, gaussian, filling in DESIGNS:
            scale = a if gaussian else 1.0
            analytic = scale * sigma2 * np.sum(1.0 / powers[filling])
            out[(float(snr_db), label)] = (sums[label] / n_trials, analytic)
    return out


class TestSidelobeStats:
    def test_delta_profile_sentinel(self):
        profile = np.zeros(32)
        profile[16] = 1.0
        pslr, islr = sidelobe_stats(profile)
        assert pslr <= -100.0
        assert islr <= -100.0

    def test_sinc_squared_pslr(self):
        x = np.linspace(-8.0, 8.0, 8001)
        profile = np.sinc(x) ** 2
        pslr, _ = sidelobe_stats(profile)
        assert pslr == pytest.approx(-13.26, abs=0.05)

    def test_islr_sign(self):
        x = np.linspace(-8.0, 8.0, 8001)
        _, islr = sidelobe_stats(np.sinc(x) ** 2)
        assert -15.0 < islr < 0.0

    def test_flat_profile_rejected(self):
        with pytest.raises(NoPeakError):
            sidelobe_stats(np.ones(10))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sidelobe_stats(np.array([1.0, -0.1, 0.5]))


class TestMseVsSnr:
    def test_snr_convention(self, spec64):
        assert spec64.noise_power(0.0) == pytest.approx(1.0)
        assert spec64.noise_power(10.0) == pytest.approx(0.1)

    def test_constant_modulus_matches_closed_form(self, spec64):
        ch = ChannelGains(np.ones(64))
        rows = mse_vs_snr(spec64, ch, [10.0], 2000, seed=0)
        cm = next(r for r in rows if r["design"] == "constant-modulus uniform")
        assert cm["empirical_nmse"] == pytest.approx(cm["analytic_nmse"], rel=0.05)
        assert cm["analytic_nmse"] == pytest.approx(0.1 * 64.0)

    def test_gaussian_above_constant_modulus(self, spec64):
        ch = ChannelGains(np.ones(64))
        rows = mse_vs_snr(spec64, ch, [0.0, 15.0], 500, seed=1)
        for snr in (0.0, 15.0):
            at = {r["design"]: r for r in rows if r["snr_db"] == snr}
            assert (
                at["gaussian uniform"]["empirical_nmse"]
                > at["constant-modulus uniform"]["empirical_nmse"]
            )

    def test_truncated_gaussian_matches_A_scaled_form(self, spec64):
        ch = ChannelGains(np.ones(64))
        policy = TruncationPolicy()
        rows = mse_vs_snr(spec64, ch, [10.0], 4000, seed=2, policy=policy)
        g = next(r for r in rows if r["design"] == "gaussian uniform")
        assert g["analytic_nmse"] == pytest.approx(policy.A * 0.1 * 64.0)
        assert g["empirical_nmse"] == pytest.approx(g["analytic_nmse"], rel=0.05)

    def test_truncated_gaussian_mean_is_A_over_kept_mass(self, spec64):
        # E 1/|S_k|^2 under the truncated law is A / (1 - q) per unit power:
        # A is the truncated integral, not normalised by the kept mass.
        ch = ChannelGains(np.ones(64))
        rows = mse_vs_snr(spec64, ch, [10.0], 1000, seed=3, policy=TruncationPolicy(0.5))
        g = next(r for r in rows if r["design"] == "gaussian uniform")
        assert g["empirical_nmse"] / g["analytic_nmse"] == pytest.approx(2.0, rel=0.05)

    def test_water_filling_gap_shrinks_with_snr(self, spec64):
        # Mild selectivity so water-filling keeps every subcarrier wet even
        # at 0 dB (dry subcarriers make the Gaussian MSE infinite).
        profile = 1.0 + 0.5 * np.sin(2.0 * np.pi * np.arange(64) / 64)
        ch = ChannelGains(profile / profile.mean())
        rows = mse_vs_snr(spec64, ch, [0.0, 10.0, 20.0], 300, seed=4)
        gaps, emp_gaps = [], []
        for snr in (0.0, 10.0, 20.0):
            at = {r["design"]: r for r in rows if r["snr_db"] == snr}
            gaps.append(
                at["gaussian comm-optimal"]["analytic_nmse"]
                - at["gaussian uniform"]["analytic_nmse"]
            )
            emp_gaps.append(
                at["gaussian comm-optimal"]["empirical_nmse"]
                - at["gaussian uniform"]["empirical_nmse"]
            )
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        # The high-SNR empirical gap is below Monte-Carlo resolution at this
        # trial count; only the low-SNR gap is testable empirically.
        assert emp_gaps[0] > 10.0 * abs(emp_gaps[2])

    def test_blocked_trials_match_per_trial_loop(self, spec64):
        # 300 trials: two full blocks of 128 and a partial one.
        profile = 1.0 + 0.5 * np.sin(2.0 * np.pi * np.arange(64) / 64)
        ch = ChannelGains(profile / profile.mean())
        policy = TruncationPolicy()
        rows = mse_vs_snr(spec64, ch, [0.0, 20.0], 300, seed=9, policy=policy)
        expected = per_trial_mse(spec64, ch, [0.0, 20.0], 300, 9, policy)
        assert len(rows) == len(expected) == 6
        for row in rows:
            emp, ana = expected[(row["snr_db"], row["design"])]
            assert row["empirical_nmse"] == pytest.approx(emp, rel=1e-12)
            assert row["analytic_nmse"] == pytest.approx(ana, rel=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 128, 1000])
    def test_rows_independent_of_block_size(self, spec64, monkeypatch, block):
        profile = 1.0 + 0.5 * np.sin(2.0 * np.pi * np.arange(64) / 64)
        ch = ChannelGains(profile / profile.mean())
        expected = mse_vs_snr(spec64, ch, [0.0, 20.0], 300, seed=5)
        monkeypatch.setattr(echo, "_BLOCK_CELLS", 64 * block)  # blocks of `block` trials
        rows = mse_vs_snr(spec64, ch, [0.0, 20.0], 300, seed=5)
        assert [(r["snr_db"], r["design"]) for r in rows] == [
            (r["snr_db"], r["design"]) for r in expected
        ]
        for row, exp in zip(rows, expected):
            assert row["empirical_nmse"] == pytest.approx(exp["empirical_nmse"], rel=1e-12)
            assert row["analytic_nmse"] == exp["analytic_nmse"]

    def test_point_rows_independent_of_later_points(self, spec64):
        ch = ChannelGains(np.ones(64))
        alone = mse_vs_snr(spec64, ch, [0.0], 100, seed=6)
        first = mse_vs_snr(spec64, ch, [0.0, 20.0], 100, seed=6)[: len(alone)]
        assert first == alone

    def test_design_labels(self, spec64):
        rows = mse_vs_snr(spec64, ChannelGains(np.ones(64)), [0.0, 10.0], 100, seed=0)
        assert [r["design"] for r in rows] == [label for label, *_ in DESIGNS] * 2

    def test_trials_are_draw_symbols_pulses(self, spec64, monkeypatch):
        # Trial t's symbols are pulse t of draw_symbols on the point's symbol
        # stream, and its noise is pulse t of draw_noise on the noise stream.
        calls, ls_estimate = [], metrics.ls_estimate

        def capture(spectrum, symbols, alloc):
            calls.append((spectrum, symbols))
            return ls_estimate(spectrum, symbols, alloc)

        monkeypatch.setattr(metrics, "ls_estimate", capture)
        policy = TruncationPolicy()
        mse_vs_snr(spec64, ChannelGains(np.ones(64)), [10.0], 300, seed=8, policy=policy)
        labels = [label for label, *_ in DESIGNS] * 3  # blocks of 128, 128 and 44
        spectrum, symbols = (np.hstack(x) for x in zip(*(
            call for call, label in zip(calls, labels, strict=True)
            if label == "gaussian uniform")))
        symbol_rng, noise_rng = point_streams(8, 0)
        uniform = PowerAllocation.uniform(64, spec64.power_budget)
        expected = draw_symbols(spec64, uniform, symbol_rng, 300, policy)
        np.testing.assert_allclose(symbols, expected, rtol=1e-13)
        d_f = np.fft.fft(np.eye(64)[32])[:, None]
        noise = draw_noise(64, spec64.noise_power(10.0), noise_rng, 300)
        np.testing.assert_allclose(spectrum - symbols * d_f, noise, atol=1e-13)

    def test_design_below_ls_floor_rejected_before_drawing(self, monkeypatch):
        # Water-filling leaves subcarrier 12 at 3.1e-4 P/N, and the smallest
        # Gaussian draw, -2 ln(1 - q) P_k, is 6.3e-7 P/N: below the
        # 1e-6 P/N floor, so the design fails whatever the draws would be.
        cfg = parse_config("channel = multipath\nchannel_seed = 41\n")

        def no_draws(*args):
            raise AssertionError("symbols drawn")

        monkeypatch.setattr(echo, "draw_symbols", no_draws)
        with pytest.raises(IllConditionedWaveformError, match="'gaussian comm-optimal'$") as err:
            mse_vs_snr(cfg.waveform_spec(), cfg.channel_gains(), [29.75], 100, seed=0)
        assert err.value.subcarrier == 12
        assert err.value.power < err.value.threshold

    @pytest.mark.parametrize("trials", [10, 99])
    def test_too_few_trials_names_the_key(self, spec64, trials):
        with pytest.raises(ConfigError, match=rf"^trials = {trials} must be at least 100$"):
            mse_vs_snr(spec64, ChannelGains(np.ones(64)), [0.0], trials, seed=0)
