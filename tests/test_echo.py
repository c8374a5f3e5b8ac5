import numpy as np
import pytest

from ofdmsar import (
    Geometry,
    PowerAllocation,
    Scene,
    TruncationPolicy,
    WaveformSpec,
    draw_symbols,
    ls_estimate,
    range_profile_cube,
    synthesize_pulse,
    synthesize_raw,
)
from ofdmsar.echo import pulse_rng
from ofdmsar.errors import DimensionError
from ofdmsar.geometry import range_cell_size, scene_coefficients
from ofdmsar.scenes import car_scene, point_scene
from oracles import (
    apply_waveform,
    circulant_from_pulse,
    modulate,
    synthesize_pulse_linear_cp,
    synthesize_raw_per_pulse,
)

#: The Gaussian symbol law at the default tail probability, and both laws.
GAUSSIAN = TruncationPolicy()
LAWS, LAW_IDS = (None, GAUSSIAN), ("constant-modulus", "gaussian")


def seeded_symbols(n, seed):
    """Gaussian symbols of one pulse at unit power per subcarrier."""
    spec = WaveformSpec(n, 1.0)
    return spec, draw_symbols(spec, PowerAllocation.uniform(n, float(n)), seed, policy=GAUSSIAN)


class TestSynthesizePulse:
    # synthesize_pulse returns the received spectrum: the DFT of the fast-time echo.
    def test_unit_coefficient_gives_scaled_body(self):
        spec, sym = seeded_symbols(8, 2)
        body = modulate(sym, spec)[spec.cp_len :]
        d = np.zeros(8, dtype=complex)
        d[0] = 1.0
        y_f = synthesize_pulse(sym, d, 0.0, seed=0)
        # Model normalization: the echo is the pulse body over sqrt(N).
        np.testing.assert_allclose(y_f, np.fft.fft(body / np.sqrt(8)), atol=1e-12)

    def test_shifted_coefficient_gives_cyclic_shift(self):
        spec, sym = seeded_symbols(8, 3)
        body = modulate(sym, spec)[spec.cp_len :]
        for m in (1, 3, 7):
            d = np.zeros(8, dtype=complex)
            d[m] = 1.0
            y_f = synthesize_pulse(sym, d, 0.0, seed=0)
            np.testing.assert_allclose(
                y_f, np.fft.fft(np.roll(body, m) / np.sqrt(8)), atol=1e-12
            )

    def test_matches_explicit_circulant_product(self):
        spec, sym = seeded_symbols(8, 4)
        rng = np.random.default_rng(5)
        d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y_f = synthesize_pulse(sym, d, 0.0, seed=0)
        s_mat = circulant_from_pulse(modulate(sym, spec), spec) / np.sqrt(8)
        np.testing.assert_allclose(y_f, np.fft.fft(s_mat @ d), atol=1e-12)

    def test_linearity(self):
        spec, sym = seeded_symbols(8, 6)
        rng = np.random.default_rng(7)
        d1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        d2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y1 = synthesize_pulse(sym, d1, 0.0, seed=0)
        y2 = synthesize_pulse(sym, d2, 0.0, seed=0)
        y12 = synthesize_pulse(sym, d1 + d2, 0.0, seed=0)
        np.testing.assert_allclose(y12, y1 + y2, atol=1e-12)

    def test_noise_calibration(self):
        # W_f, the DFT of CN(0, sigma^2) fast-time noise, is CN(0, N sigma^2).
        spec, sym = seeded_symbols(64, 8)
        d = np.zeros(64, dtype=complex)
        sigma2 = 0.37
        rng = np.random.default_rng(9)
        samples = []
        for _ in range(2000):
            samples.append(synthesize_pulse(sym, d, sigma2, rng))
        var = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert abs(var - 64 * sigma2) < 0.02 * 64 * sigma2

    def test_dimension_mismatch(self):
        spec, sym = seeded_symbols(8, 1)
        with pytest.raises(DimensionError):
            synthesize_pulse(sym, np.zeros(4), 0.0, seed=0)


class TestLinearCpEquivalence:
    def test_matches_circular_model(self):
        # Linear convolution with the CP'd pulse, trimmed per the SWMP window,
        # equals the circular model at N = 8.
        spec, sym = seeded_symbols(8, 12)
        pulse = modulate(sym, spec)
        rng = np.random.default_rng(13)
        d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        linear = synthesize_pulse_linear_cp(pulse, d)
        circular = apply_waveform(sym, d)
        np.testing.assert_allclose(linear, circular, atol=1e-12)


class TestSynthesizeRaw:
    def test_empty_scene_zero_cube(self, geom, spec64):
        scene = Scene(np.zeros((64, 4)), range_cell_size(spec64))
        alloc = PowerAllocation.uniform(64, 64.0)
        cube = synthesize_raw(spec64, geom, scene, alloc, 0.0, seed=0)
        assert not np.any(cube.spectrum)
        assert cube.spectrum.shape[1] == geom.n_pulses

    def test_point_scene_pulses_are_shifted_bodies(self, geom, spec64):
        # Single unit scatterer: each pulse's spectrum is the DFT of a scaled
        # cyclic shift of its own pulse body.
        scene = point_scene(spec64, 1)
        alloc = PowerAllocation.uniform(64, 64.0)
        cube = synthesize_raw(spec64, geom, scene, alloc, 0.0, seed=1)
        m, n = 32, 64
        for p in (0, 400, 799):
            body = modulate(cube.symbols[:, p], spec64)[spec64.cp_len :]
            d_m = scene_coefficients(geom, scene)[m, p]
            assert abs(abs(d_m) - 1.0) < 1e-12
            np.testing.assert_allclose(
                cube.spectrum[:, p],
                np.fft.fft(d_m * np.roll(body, m) / np.sqrt(n)),
                atol=1e-10,
            )

    def test_deterministic_given_seed(self, geom, spec64):
        scene = point_scene(spec64, 1)
        alloc = PowerAllocation.uniform(64, 64.0)
        a = synthesize_raw(spec64, geom, scene, alloc, 0.1, seed=42)
        b = synthesize_raw(spec64, geom, scene, alloc, 0.1, seed=42)
        np.testing.assert_array_equal(a.spectrum, b.spectrum)

    def test_streams_are_seed_sequence_children(self):
        children = np.random.SeedSequence(123).spawn(2)
        for index, child in enumerate(children):
            a = pulse_rng(123, index).standard_normal(4)
            np.testing.assert_array_equal(a, np.random.default_rng(child).standard_normal(4))
        assert not np.array_equal(pulse_rng(123, 0).random(4), pulse_rng(123, 1).random(4))

    def test_fresh_symbols_each_pulse(self, geom, spec64):
        scene = Scene(np.zeros((64, 1)), range_cell_size(spec64))
        alloc = PowerAllocation.uniform(64, 64.0)
        cube = synthesize_raw(spec64, geom, scene, alloc, 0.0, seed=3)
        s0 = cube.symbols[:, 0]
        s1 = cube.symbols[:, 1]
        assert not np.array_equal(s0, s1)

    @pytest.mark.parametrize("policy", LAWS, ids=LAW_IDS)
    def test_same_symbols_at_any_snr(self, geom, spec64, policy):
        # Symbols and noise come from separate streams: the noise power does
        # not move the symbols.
        scene = point_scene(spec64, 1)
        alloc = PowerAllocation.uniform(64, 64.0)
        cubes = [synthesize_raw(spec64, geom, scene, alloc, s2, 9, policy)
                 for s2 in (0.0, 0.3, 5.0)]
        for cube in cubes[1:]:
            np.testing.assert_array_equal(cube.symbols, cubes[0].symbols)

    def test_subcarrier_noise_calibration(self, geom, spec64):
        # On an empty scene the cube is the noise W_f alone: white
        # CN(0, N sigma^2), so |W_f|^2 / (N sigma^2) is Exp(1), with real and
        # imaginary parts uncorrelated.
        n, sigma2 = 64, 0.3
        scene = Scene(np.zeros((n, 4)), range_cell_size(spec64))
        alloc = PowerAllocation.uniform(n, float(n))
        w = synthesize_raw(spec64, geom, scene, alloc, sigma2, seed=5).spectrum
        count = w.size
        ratio = np.abs(w) ** 2 / (n * sigma2)
        assert abs(ratio.mean() - 1.0) < 5.0 / np.sqrt(count)
        re, im = w.real.ravel(), w.imag.ravel()
        assert abs(np.corrcoef(re, im)[0, 1]) < 5.0 / np.sqrt(count)


class TestBatchedSynthesis:
    # The batched cube must hold what one pulse at a time gives: each pulse's
    # own symbols through the circular model at its own slow time, plus the
    # noise of its own row of the noise stream.
    @pytest.mark.parametrize("prf", [800.0, 810.0])  # 810 pulses: a partial block
    @pytest.mark.parametrize("kind", ["point", "car"])
    @pytest.mark.parametrize("sigma2", [0.3, 0.0])
    @pytest.mark.parametrize("policy", LAWS, ids=LAW_IDS)
    def test_profiles_match_per_pulse_oracle(self, prf, kind, sigma2, policy):
        spec = WaveformSpec(64, 1.5e9 / 64)
        geom = Geometry(1000.0, np.sqrt(2.0) * 1000.0, 40.0, 9e9, prf, 1.0)
        scene = point_scene(spec, 64) if kind == "point" else car_scene(spec)
        alloc = PowerAllocation.uniform(64, 64.0)
        cube = synthesize_raw(spec, geom, scene, alloc, sigma2, 11, policy)
        profiles = range_profile_cube(cube)
        y = synthesize_raw_per_pulse(geom, scene, cube.symbols)
        if sigma2 != 0.0:
            # Row p of the noise block holds pulse p's subcarrier noise as
            # interleaved real and imaginary parts, scaled to CN(0, N sigma^2).
            block = pulse_rng(11, 1).standard_normal((geom.n_pulses, 128))
            w_f = np.sqrt(64 * sigma2 / 2.0) * (block[:, 0::2] + 1j * block[:, 1::2])
            y += np.fft.ifft(w_f.T, axis=0)
        assert profiles.shape == (64, geom.n_pulses)
        for p in range(geom.n_pulses):
            ref = ls_estimate(np.fft.fft(y[:, p]), cube.symbols[:, p], alloc)
            err = np.linalg.norm(profiles[:, p] - ref)
            assert err <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("sigma2", [0.3, 0.0])
    def test_synthesize_pulse_columns_are_single_pulses(self, sigma2):
        # A block reads one noise row per pulse, so drawing the pulses one at
        # a time from the same stream gives the same bits.
        rng = np.random.default_rng(4)
        sym = rng.standard_normal((64, 40)) + 1j * rng.standard_normal((64, 40))
        d = rng.standard_normal((64, 40)) + 1j * rng.standard_normal((64, 40))
        batched = synthesize_pulse(sym, d, sigma2, seed=5)
        noise = np.random.default_rng(5)
        for p in range(40):
            single = synthesize_pulse(sym[:, p], d[:, p], sigma2, noise)
            assert batched[:, p].tobytes() == single.tobytes()
