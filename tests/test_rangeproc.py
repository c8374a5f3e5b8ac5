import numpy as np
import pytest

from ofdmsar import (
    PowerAllocation,
    WaveformSpec,
    draw_symbols,
    ls_estimate,
    range_profile_cube,
    synthesize_pulse,
    synthesize_raw,
)
from ofdmsar.allocation import TruncationPolicy
from ofdmsar.echo import draw_noise
from ofdmsar.errors import DimensionError, IllConditionedWaveformError
from ofdmsar.rangeproc import ls_spectrum
from ofdmsar.scenes import point_scene
from oracles import circulant_from_pulse, modulate


def random_d(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestLsEstimate:
    def test_noise_free_exact(self):
        rng = np.random.default_rng(0)
        spec = WaveformSpec(16, 16.0, 16.0)
        alloc = PowerAllocation.uniform(16, 16.0)
        for seed in range(20):
            sym = draw_symbols(spec, alloc, seed=seed, law=TruncationPolicy())
            d = random_d(16, rng)
            y_f = synthesize_pulse(sym, d, None)
            np.testing.assert_allclose(ls_estimate(y_f, sym, alloc), d, atol=1e-12)

    def test_flat_spectrum_is_scaled_correlation(self):
        # Impulse body <-> all-equal symbols: LS reduces to cyclic correlation.
        n = 8
        spec = WaveformSpec(n, float(n), float(n))
        alloc = PowerAllocation.uniform(n, float(n))
        sym = np.full(n, 1.0 + 0j)
        rng = np.random.default_rng(1)
        y = random_d(n, rng)
        body = modulate(sym, spec)[spec.cp_len :]  # sqrt(n) * e_0
        matched = np.array(
            [np.vdot(np.roll(body, m) / np.sqrt(n), y) for m in range(n)]
        )
        np.testing.assert_allclose(ls_estimate(np.fft.fft(y), sym, alloc), matched, atol=1e-12)

    def test_dense_pseudo_inverse_oracle(self):
        n = 8
        spec = WaveformSpec(n, float(n), float(n))
        alloc = PowerAllocation.uniform(n, float(n))
        rng = np.random.default_rng(2)
        sym = draw_symbols(spec, alloc, seed=3, law=TruncationPolicy())
        d = random_d(n, rng)
        y_f = synthesize_pulse(sym, d, draw_noise(n, 0.05, 4))
        y = np.fft.ifft(y_f)  # the fast-time echo the dense formula takes
        s_mat = circulant_from_pulse(modulate(sym, spec), spec) / np.sqrt(n)
        dense = np.linalg.inv(s_mat.conj().T @ s_mat) @ s_mat.conj().T @ y
        np.testing.assert_allclose(ls_estimate(y_f, sym, alloc), dense, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_mse_trace_identity(self, n):
        spec = WaveformSpec(n, float(n), float(n))
        alloc = PowerAllocation.uniform(n, float(n))
        sym = draw_symbols(spec, alloc, seed=n, law=TruncationPolicy())
        s_mat = circulant_from_pulse(modulate(sym, spec), spec) / np.sqrt(n)
        trace = np.trace(np.linalg.inv(s_mat.conj().T @ s_mat)).real
        assert abs(trace - np.sum(1.0 / np.abs(sym) ** 2)) < 1e-10

    def test_ill_conditioned_names_subcarrier(self):
        n = 4
        alloc = PowerAllocation.uniform(n, float(n))
        sym = np.array([1.0, 1.0, 1e-9, 1.0], dtype=complex)
        with pytest.raises(IllConditionedWaveformError) as err:
            ls_estimate(np.zeros(n, dtype=complex), sym, alloc)
        assert err.value.subcarrier == 2
        assert err.value.threshold == 1e-6

    def test_symbols_must_match_allocation(self):
        sym = np.ones(4, dtype=complex)
        with pytest.raises(DimensionError):
            ls_estimate(np.zeros(4, dtype=complex), sym, PowerAllocation.uniform(8, 8.0))

    @pytest.mark.parametrize("received, n_alloc", [(4, 8), (5, 4)])
    def test_shape_mismatch_wins_over_a_sub_floor_symbol(self, received, n_alloc):
        # The shapes are checked before the floor scan: a mismatched call that
        # also holds a symbol below the floor is a DimensionError.
        sym = np.array([1.0, 1e-9, 1.0, 1.0], dtype=complex)
        with pytest.raises(DimensionError):
            ls_estimate(np.zeros(received, dtype=complex), sym,
                        PowerAllocation.uniform(n_alloc, float(n_alloc)))

    def test_unbiased(self):
        n = 16
        spec = WaveformSpec(n, float(n), float(n))
        alloc = PowerAllocation.uniform(n, float(n))
        sym = draw_symbols(spec, alloc, seed=5)
        rng = np.random.default_rng(6)
        d = random_d(n, rng)
        sigma2 = 0.5
        draws = 10**4
        acc = np.zeros(n, dtype=complex)
        for _ in range(draws):
            y = synthesize_pulse(sym, d, draw_noise(sym.size, sigma2, rng))
            acc += ls_estimate(y, sym, alloc) - d
        mean_err = acc / draws
        # Per-component 3-sigma bound on the empirical mean.
        bound = 3.0 * np.sqrt(sigma2 / np.abs(sym).min() ** 2 / draws)
        assert np.max(np.abs(mean_err)) < 3.0 * bound

    def test_error_stats_independent_of_d(self):
        n = 16
        spec = WaveformSpec(n, float(n), float(n))
        alloc = PowerAllocation.uniform(n, float(n))
        sym = draw_symbols(spec, alloc, seed=7)
        sigma2 = 0.3
        d_zero = np.zeros(n, dtype=complex)
        d_rand = random_d(n, np.random.default_rng(8))
        errs = []
        for d in (d_zero, d_rand):
            rng = np.random.default_rng(99)  # same noise seeds for both
            e = []
            for _ in range(500):
                y = synthesize_pulse(sym, d, draw_noise(sym.size, sigma2, rng))
                e.append(ls_estimate(y, sym, alloc) - d)
            errs.append(np.concatenate(e))
        np.testing.assert_allclose(errs[0], errs[1], atol=1e-10)


class TestRangeProfileCube:
    def test_noise_free_point_target(self, geom, spec64):
        from ofdmsar.geometry import scene_coefficients

        scene = point_scene(spec64, 1)
        alloc = PowerAllocation.uniform(64, 64.0)
        cube = synthesize_raw(spec64, geom, scene, alloc, 0.0, seed=11)
        profiles = range_profile_cube(cube)
        d = scene_coefficients(geom, scene)
        for p in (0, 250, 799):
            np.testing.assert_allclose(profiles[:, p], d[:, p], atol=1e-10)

    def test_empirical_mse_constant_modulus(self):
        # Fixed constant-modulus symbols across pulses: empirical MSE matches
        # sigma^2 * sum 1/|S_k|^2 within 5% at 1e4 pulses.
        n, pulses = 16, 10**4
        spec = WaveformSpec(n, float(n), float(n))
        alloc = PowerAllocation.uniform(n, float(n))
        sym = draw_symbols(spec, alloc, seed=21)
        sigma2 = 0.25
        d = np.zeros(n, dtype=complex)
        d[n // 2] = 1.0
        rng = np.random.default_rng(22)
        total = 0.0
        for _ in range(pulses):
            y = synthesize_pulse(sym, d, draw_noise(sym.size, sigma2, rng))
            total += np.sum(np.abs(ls_estimate(y, sym, alloc) - d) ** 2)
        empirical = total / pulses
        expected = sigma2 * np.sum(1.0 / np.abs(sym) ** 2)
        assert abs(empirical - expected) / expected < 0.05

    def test_empirical_mse_truncated_gaussian(self):
        # Fresh truncated-Gaussian symbols per pulse: empirical MSE matches
        # A * sigma^2 * sum 1/P_k within 5%.
        n, pulses = 16, 10**4
        spec = WaveformSpec(n, float(n), float(n))
        alloc = PowerAllocation.uniform(n, float(n))
        policy = TruncationPolicy()
        sigma2 = 0.25
        d = np.zeros(n, dtype=complex)
        d[n // 2] = 1.0
        rng = np.random.default_rng(23)
        total = 0.0
        for _ in range(pulses):
            sym = draw_symbols(spec, alloc, rng, law=policy)
            y = synthesize_pulse(sym, d, draw_noise(sym.size, sigma2, rng))
            total += np.sum(np.abs(ls_estimate(y, sym, alloc) - d) ** 2)
        empirical = total / pulses
        expected = policy.A * sigma2 * np.sum(1.0 / alloc.powers)
        assert abs(empirical - expected) / expected < 0.05

    def test_per_pulse_symbols_used(self, geom, spec64):
        scene = point_scene(spec64, 1)
        alloc = PowerAllocation.uniform(64, 64.0)
        spectrum, symbols, _ = cube = synthesize_raw(spec64, geom, scene, alloc, 0.0, seed=12)
        profiles = range_profile_cube(cube)
        assert profiles.shape == spectrum.shape
        # The cube's estimate equals one LS call per pulse on that pulse's
        # spectrum, with its own symbols.
        for p in (0, 1, 400, 799):
            single = ls_estimate(spectrum[:, p], symbols[:, p], alloc)
            np.testing.assert_array_equal(profiles[:, p], single)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_estimate_is_inverse_fft_of_spectrum_bit_for_bit(self, spec64, order):
        # The in-place inverse FFT rounds as a fresh one of Y / S does.
        rng = np.random.default_rng(21)
        alloc = PowerAllocation.uniform(64, 64.0)
        symbols = np.asarray(draw_symbols(spec64, alloc, rng, 37, TruncationPolicy()), order=order)
        spectrum = np.asarray(random_d(64 * 37, rng).reshape(64, 37), order=order)
        ratio = ls_spectrum(spectrum, symbols, alloc)
        assert ratio.tobytes() == (spectrum / symbols).tobytes()
        expected = np.fft.ifft(spectrum / symbols, axis=0)
        assert ls_estimate(spectrum, symbols, alloc).tobytes() == expected.tobytes()

    def test_real_operands_estimate(self):
        alloc = PowerAllocation.uniform(4, 4.0)
        symbols, spectrum = np.full(4, 2.0), np.array([2.0, 0.0, 4.0, 0.0])
        np.testing.assert_array_equal(ls_estimate(spectrum, symbols, alloc),
                                      np.fft.ifft(spectrum / symbols))

    def test_one_ill_conditioned_pulse_rejects_cube(self, geom, spec64):
        alloc = PowerAllocation.uniform(64, 64.0)
        spectrum, symbols, _ = synthesize_raw(spec64, geom, point_scene(spec64, 1), alloc, 0.0,
                                              seed=13)
        symbols[17, 513] = 1e-4  # |S|^2 = 1e-8, below the 1e-6 * P/N floor
        with pytest.raises(IllConditionedWaveformError) as err:
            range_profile_cube((spectrum, symbols, alloc))
        assert err.value.subcarrier == 17
        symbols[17, 513] = 1.0
        range_profile_cube((spectrum, symbols, alloc))
