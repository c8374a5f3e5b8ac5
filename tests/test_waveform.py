import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsar import (
    ConstantModulus,
    PowerAllocation,
    TruncationPolicy,
    WaveformSpec,
    draw_symbols,
)
from ofdmsar.errors import ConfigError, DimensionError
from ofdmsar.waveform import unit_phasors
from oracles import circulant_from_pulse, modulate


#: The Gaussian symbol law at the default tail probability.
GAUSSIAN = TruncationPolicy()
LAWS, LAW_IDS = (ConstantModulus(), GAUSSIAN), ("constant-modulus", "gaussian")


class TestSpec:
    def test_holds_the_config_values(self):
        spec = WaveformSpec(64, 1.5e9, 64.0)
        assert (spec.n_subcarriers, spec.bandwidth, spec.power_budget) == (64, 1.5e9, 64.0)
        assert spec.cp_len == 63

    def test_every_field_is_required(self):
        # A two-argument call cannot be read as (n, bandwidth) with a default budget.
        with pytest.raises(TypeError):
            WaveformSpec(4, 4.0)

    def test_rejects_bad_numerology(self):
        with pytest.raises(ConfigError, match=r"^n_subcarriers = 0 must be >= 1$"):
            WaveformSpec(0, 1.0, 1.0)
        with pytest.raises(ConfigError, match=r"^power_budget / n_subcarriers = "):
            WaveformSpec(4, 4.0, 0.0)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan, np.inf, 1e308])
    def test_bandwidth_rule_names_the_config_key(self, bandwidth):
        # 1e308 is finite, but c / (2 bandwidth) would round to 0.
        with pytest.raises(ConfigError, match=r"^bandwidth = ") as info:
            WaveformSpec(4, bandwidth, 4.0)
        assert isinstance(info.value, ValueError)  # what a library caller may catch

    def test_smallest_bandwidths_are_held_and_named_as_set(self):
        # No spacing bandwidth / N is formed to round to 0 or to be reported.
        assert WaveformSpec(64, 5e-324, 64.0).bandwidth == 5e-324
        with pytest.raises(ConfigError, match=r"^bandwidth = -5e-324 "):
            WaveformSpec(64, -5e-324, 64.0)

    @pytest.mark.parametrize("snr_db", [np.inf, 4000.0])
    def test_infinite_snr_is_noise_free(self, snr_db):
        # 10^(4000/10) overflows a float: as noise-free as inf.
        assert WaveformSpec(4, 4.0, 4.0).noise_power(snr_db) == 0.0

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf, -4000.0])
    def test_snr_without_finite_noise_power_rejected(self, snr_db):
        # 10^(-4000/10) underflows to zero, which would divide by zero.
        with pytest.raises(ConfigError):
            WaveformSpec(4, 4.0, 4.0).noise_power(snr_db)


class TestDrawSymbols:
    def test_constant_modulus_exact_powers(self):
        spec = WaveformSpec(4, 4.0, 4.0)
        alloc = PowerAllocation.uniform(4, 4.0)
        sym = draw_symbols(spec, alloc, seed=1)
        np.testing.assert_allclose(np.abs(sym) ** 2, [1, 1, 1, 1], atol=1e-14)

    def test_zero_power_subcarrier(self):
        spec = WaveformSpec(4, 4.0, 4.0)
        alloc = PowerAllocation(np.array([2.0, 0.0, 1.0, 1.0]), 4.0)
        sym = draw_symbols(spec, alloc, seed=3)
        assert sym[1] == 0.0
        assert abs(np.abs(sym[0]) ** 2 - 2.0) < 1e-14

    def test_deterministic_given_seed(self):
        spec = WaveformSpec(16, 16.0, 16.0)
        alloc = PowerAllocation.uniform(16, 16.0)
        a = draw_symbols(spec, alloc, seed=7)
        b = draw_symbols(spec, alloc, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_gaussian_variance_monte_carlo(self):
        # Law of large numbers: per-subcarrier E|S_k|^2 = 2 P_k (1 - ln(1 - q))
        # within 2% at 1e5 pulses (|S_k|^2 has standard deviation 2 P_k).
        n, blocks, pulses = 64, 10, 10**4
        powers = np.linspace(0.5, 1.5, n)
        alloc = PowerAllocation(powers, float(np.sum(powers)))
        policy = TruncationPolicy()
        rng = np.random.default_rng(0)
        acc = np.zeros(n)
        for _ in range(blocks):
            sym = draw_symbols(WaveformSpec(n, float(n), float(n)), alloc, rng, pulses, policy)
            acc += np.sum(np.abs(sym) ** 2, axis=1)
        expected = 2.0 * powers * (1.0 - np.log1p(-policy.tail_prob))
        assert np.all(np.abs(acc / (blocks * pulses) / expected - 1.0) < 0.02)

    def test_gaussian_mode_single_draw_variance(self):
        spec = WaveformSpec(64, 64.0, 64.0)
        alloc = PowerAllocation.uniform(64, 64.0)
        draws = np.array(
            [draw_symbols(spec, alloc, seed=s, law=GAUSSIAN) for s in range(2000)]
        )
        expected = 2.0 * (1.0 - np.log1p(-TruncationPolicy().tail_prob))
        assert abs(np.mean(np.abs(draws) ** 2) / expected - 1.0) < 0.02

    def test_gaussian_truncated_above_ls_floor(self):
        # |S_k|^2 / P_k >= -2 ln(1 - q) ~ 2e-3, far above the 1e-6 LS floor, and
        # E|S_k|^2 = 2 P_k (1 - ln(1 - q)): the law under which A holds.
        n, pulses = 64, 4000
        policy = TruncationPolicy()
        alloc = PowerAllocation.uniform(n, float(n))
        sym = draw_symbols(WaveformSpec(n, float(n), float(n)), alloc, 17, pulses, policy)
        ratio = np.abs(sym) ** 2 / alloc.powers[:, None]
        floor = -2.0 * np.log1p(-policy.tail_prob)
        assert ratio.min() >= floor * (1.0 - 1e-12)
        # |S|^2 / P_k is 2 Exp(1) shifted by the floor: standard deviation 2.
        assert abs(ratio.mean() - (2.0 + floor)) < 10.0 / np.sqrt(ratio.size)

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_pulse_columns_independent_of_block(self, law):
        spec = WaveformSpec(16, 16.0, 16.0)
        alloc = PowerAllocation.uniform(16, 16.0)
        block = draw_symbols(spec, alloc, 5, 7, law)
        assert block.shape == (16, 7)
        np.testing.assert_array_equal(draw_symbols(spec, alloc, 5, 3, law), block[:, :3])
        np.testing.assert_array_equal(draw_symbols(spec, alloc, 5, law=law), block[:, 0])

    @pytest.mark.parametrize("pulses", [None, 7], ids=["one-pulse", "7-pulse-block"])
    @pytest.mark.parametrize("law, rows", zip(LAWS, (1, 2)), ids=LAW_IDS)
    def test_draws_are_the_uniform_draws_on_0_1(self, law, rows, pulses):
        # rng.random(shape) reads the doubles uniform(0, 1, shape) reads, 0 + 1 x
        # = x, and leaves the generator in the same state.  Per pulse the law reads
        # ``rows`` rows of N, magnitudes from the first and phases from the last:
        # constant modulus one row, the (P, N) block of phases alone.
        spec = WaveformSpec(16, 16.0, 16.0)
        alloc = PowerAllocation(np.linspace(0.5, 1.5, 16), 16.0)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        drawn = draw_symbols(spec, alloc, rng, pulses, law)
        lead = () if pulses is None else (pulses,)
        assert law.uniforms == rows
        u = twin.uniform(0.0, 1.0, (*lead, rows, 16))
        expected = unit_phasors(u[..., -1, :]) * law.magnitudes(alloc.powers, u[..., 0, :])
        assert drawn.tobytes() == expected.T.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_length_mismatch(self):
        spec = WaveformSpec(4, 4.0, 4.0)
        with pytest.raises(DimensionError):
            draw_symbols(spec, PowerAllocation.uniform(5, 5.0), seed=0)

    @pytest.mark.parametrize("law, mib", zip(LAWS, (2.09, 3.13)), ids=LAW_IDS)
    def test_peak_memory_of_a_whole_image_draw(self, spec64, uniform64, law, mib):
        # An 800-pulse draw, as synthesize_raw makes, peaked at 2.08 and 3.13 MiB
        # through numpy's complex exp; the phasor kernel must hold no more.
        draw_symbols(spec64, uniform64, 0, 800, law)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            draw_symbols(spec64, uniform64, rng, 800, law)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20


class TestUnitPhasors:
    @staticmethod
    def turns():
        """Table edges k / 1024 and their float neighbours, quarter turns, the
        largest turn below 1 and 1e5 uniforms."""
        edges = np.arange(1024) / 1024
        return np.concatenate([
            edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
            [0.25, 0.5, 0.75, 1.0 - 2.0**-53],
            np.random.default_rng(3).uniform(0.0, 1.0, 10**5),
        ])

    def test_components_match_numpy_exp(self):
        u = self.turns()
        z, expected = unit_phasors(u), np.exp(2j * np.pi * u)
        np.testing.assert_allclose(z.real, expected.real, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(z.imag, expected.imag, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(np.abs(z), 1.0, rtol=0.0, atol=1e-15)
        assert unit_phasors(np.zeros(3)).tobytes() == np.ones(3, complex).tobytes()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    def test_components_within_stated_bound(self):
        u = self.turns()
        angle = 2 * np.arccos(np.longdouble(-1.0)) * u.astype(np.longdouble)
        z = unit_phasors(u)
        assert np.max(np.abs(z.real - np.cos(angle))) <= 1.2e-16
        assert np.max(np.abs(z.imag - np.sin(angle))) <= 1.2e-16

    @pytest.mark.parametrize("rows", [1, 7, 128, 300])
    def test_row_blocks_match_whole_array(self, rows):
        u = np.random.default_rng(4).uniform(0.0, 1.0, (800, 64))
        blocks = np.vstack([unit_phasors(u[r:r + rows]) for r in range(0, 800, rows)])
        assert unit_phasors(u).tobytes() == blocks.tobytes()


class TestModulate:
    def test_single_tone(self):
        spec = WaveformSpec(4, 4.0, 4.0)
        pulse = modulate(np.array([1, 0, 0, 0], dtype=complex), spec)
        np.testing.assert_allclose(pulse[3:], [0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_impulse_duality_and_cp(self):
        spec = WaveformSpec(4, 4.0, 4.0)
        pulse = modulate(np.ones(4, dtype=complex), spec)
        np.testing.assert_allclose(pulse[3:], [2, 0, 0, 0], atol=1e-14)
        np.testing.assert_allclose(pulse[:3], [0, 0, 0], atol=1e-14)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        spec = WaveformSpec(8, 8.0, 8.0)
        alloc = PowerAllocation.uniform(8, 8.0)
        sym = draw_symbols(spec, alloc, seed=seed, law=GAUSSIAN)
        body = modulate(sym, spec)[spec.cp_len :]
        body_energy = np.sum(np.abs(body) ** 2)
        sym_energy = np.sum(np.abs(sym) ** 2)
        assert abs(body_energy - sym_energy) < 1e-12 * sym_energy

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_cp_replicates_tail(self, seed):
        spec = WaveformSpec(8, 8.0, 8.0)
        sym = draw_symbols(spec, PowerAllocation.uniform(8, 8.0), seed=seed, law=GAUSSIAN)
        pulse = modulate(sym, spec)
        cp = pulse[: spec.cp_len]
        tail = pulse[pulse.size - spec.cp_len :]
        np.testing.assert_array_equal(cp, tail)


class TestCirculant:
    def test_delta_body_gives_identity(self):
        spec = WaveformSpec(4, 4.0, 4.0)
        pulse = modulate(np.ones(4, dtype=complex), spec)  # body = [2, 0, 0, 0]
        mat = circulant_from_pulse(pulse, spec)
        np.testing.assert_allclose(mat, 2.0 * np.eye(4), atol=1e-14)

    def test_2x2_structure(self):
        spec = WaveformSpec(2, 2.0, 2.0)
        a, b = 1.5 + 0.5j, -0.25j
        pulse = modulate(np.fft.fft(np.array([a, b]), norm="ortho"), spec)
        np.testing.assert_allclose(pulse[1:], [a, b], atol=1e-12)
        mat = circulant_from_pulse(pulse, spec)
        np.testing.assert_allclose(mat, [[a, b], [b, a]], atol=1e-12)

    def test_fft_diagonalization(self):
        n = 8
        spec = WaveformSpec(n, float(n), float(n))
        sym = draw_symbols(spec, PowerAllocation.uniform(n, float(n)), seed=11, law=GAUSSIAN)
        pulse = modulate(sym, spec)
        mat = circulant_from_pulse(pulse, spec)
        f = np.fft.fft(np.eye(n)) / np.sqrt(n)  # unitary DFT matrix
        lam = np.diag(np.sqrt(n) * sym)
        rebuilt = f.conj().T @ lam @ f
        assert np.max(np.abs(mat - rebuilt)) < 1e-10

    def test_eigenvalues_match_symbols(self):
        n = 8
        spec = WaveformSpec(n, float(n), float(n))
        sym = draw_symbols(spec, PowerAllocation.uniform(n, float(n)), seed=5, law=GAUSSIAN)
        mat = circulant_from_pulse(modulate(sym, spec), spec)
        # Eigenvalues are the unnormalized DFT of the body: sqrt(N) * S_k.
        eigs = np.fft.fft(mat[:, 0])
        np.testing.assert_allclose(eigs, np.sqrt(n) * sym, atol=1e-10)

    def test_mismatched_spec_rejected(self, spec8):
        sym = draw_symbols(spec8, PowerAllocation.uniform(8, 8.0), seed=0)
        pulse = modulate(sym, spec8)
        with pytest.raises(DimensionError):
            circulant_from_pulse(pulse, WaveformSpec(4, 4.0, 4.0))


class TestTruncatedSampler:
    def test_magnitudes_above_quantile(self):
        spec = WaveformSpec(64, 64.0, 64.0)
        alloc = PowerAllocation.uniform(64, 64.0)
        policy = TruncationPolicy(0.05)
        floor = np.sqrt(-2.0 * np.log1p(-0.05))  # per-subcarrier quantile, P_k = 1
        for s in range(50):
            sym = draw_symbols(spec, alloc, s, law=policy)
            assert np.all(np.abs(sym) >= floor - 1e-12)

    @pytest.mark.parametrize("q", [1e-3, 0.5, 1.0 - 1e-11, np.nextafter(1.0, 0.0)])
    def test_magnitudes_finite_as_u_nears_one(self, q):
        # q + (1 - q) u rounds to 1 once (1 - q)(1 - u) < 2**-53, and its log1p is
        # -inf; the law's two log1p terms stay finite for every q < 1 and u < 1.
        u = np.array([0.0, 0.5, 1.0 - 1e-6, np.nextafter(1.0, 0.0)])
        t = TruncationPolicy(q).magnitudes(np.ones(u.size), u) ** 2 / 2.0
        assert np.all(np.isfinite(t))
        np.testing.assert_allclose(t, -np.log1p(-q) - np.log1p(-u), rtol=1e-12)

    def test_inverse_moment_matches_A(self):
        # E[1/|S|^2] = A / ((1 - q) P_k) under the truncated magnitude law.
        n = 16
        spec = WaveformSpec(n, float(n), float(n))
        alloc = PowerAllocation.uniform(n, float(n))
        policy = TruncationPolicy()
        total = 0.0
        draws = 4000
        for s in range(draws):
            sym = draw_symbols(spec, alloc, s, law=policy)
            total += np.sum(1.0 / np.abs(sym) ** 2)
        empirical = total / (draws * n)
        expected = policy.A / (1.0 - policy.tail_prob)
        assert abs(empirical - expected) / expected < 0.05
