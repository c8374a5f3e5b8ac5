import threading

import numpy as np
import pytest

from ofdmsar import (
    ChannelGains,
    ConstantModulus,
    Geometry,
    PowerAllocation,
    Scene,
    TruncationPolicy,
    WaveformSpec,
    draw_symbols,
    form_image,
    ls_estimate,
    mse_vs_snr,
    range_profile_cube,
    synthesize_pulse,
    synthesize_raw,
)
from ofdmsar import echo
from ofdmsar.echo import draw_noise, pulse_blocks, pulse_rng
from ofdmsar.errors import DimensionError, IllConditionedWaveformError
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
LAWS, LAW_IDS = (ConstantModulus(), GAUSSIAN), ("constant-modulus", "gaussian")


def seeded_symbols(n, seed):
    """Gaussian symbols of one pulse at unit power per subcarrier."""
    spec = WaveformSpec(n, float(n), float(n))
    return spec, draw_symbols(spec, PowerAllocation.uniform(n, float(n)), seed, law=GAUSSIAN)


class TestSynthesizePulse:
    # synthesize_pulse returns the received spectrum: the DFT of the fast-time echo.
    def test_unit_coefficient_gives_scaled_body(self):
        spec, sym = seeded_symbols(8, 2)
        body = modulate(sym, spec)[spec.cp_len :]
        d = np.zeros(8, dtype=complex)
        d[0] = 1.0
        y_f = synthesize_pulse(sym, d, None)
        # Model normalization: the echo is the pulse body over sqrt(N).
        np.testing.assert_allclose(y_f, np.fft.fft(body / np.sqrt(8)), atol=1e-12)

    def test_shifted_coefficient_gives_cyclic_shift(self):
        spec, sym = seeded_symbols(8, 3)
        body = modulate(sym, spec)[spec.cp_len :]
        for m in (1, 3, 7):
            d = np.zeros(8, dtype=complex)
            d[m] = 1.0
            y_f = synthesize_pulse(sym, d, None)
            np.testing.assert_allclose(
                y_f, np.fft.fft(np.roll(body, m) / np.sqrt(8)), atol=1e-12
            )

    def test_matches_explicit_circulant_product(self):
        spec, sym = seeded_symbols(8, 4)
        rng = np.random.default_rng(5)
        d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y_f = synthesize_pulse(sym, d, None)
        s_mat = circulant_from_pulse(modulate(sym, spec), spec) / np.sqrt(8)
        np.testing.assert_allclose(y_f, np.fft.fft(s_mat @ d), atol=1e-12)

    def test_linearity(self):
        spec, sym = seeded_symbols(8, 6)
        rng = np.random.default_rng(7)
        d1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        d2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y1 = synthesize_pulse(sym, d1, None)
        y2 = synthesize_pulse(sym, d2, None)
        y12 = synthesize_pulse(sym, d1 + d2, None)
        np.testing.assert_allclose(y12, y1 + y2, atol=1e-12)

    def test_noise_calibration(self):
        # W_f, the DFT of CN(0, sigma^2) fast-time noise, is CN(0, N sigma^2).
        spec, sym = seeded_symbols(64, 8)
        d = np.zeros(64, dtype=complex)
        sigma2 = 0.37
        rng = np.random.default_rng(9)
        samples = []
        for _ in range(2000):
            samples.append(synthesize_pulse(sym, d, draw_noise(64, sigma2, rng)))
        var = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert abs(var - 64 * sigma2) < 0.02 * 64 * sigma2

    @pytest.mark.parametrize("layout", ["real", "c-ordered", "f-ordered"])
    def test_block_bits_in_any_symbol_layout(self, layout):
        # The spectrum is made in the symbols' layout and carries the bits of
        # the expression, for real symbols too; d is a column slice of a
        # C-ordered array, as form_image passes its cells.
        rng = np.random.default_rng(12)
        re, im = rng.standard_normal((2, 64, 40))
        sym = {"real": re, "c-ordered": re + 1j * im,
               "f-ordered": np.asfortranarray(re + 1j * im)}[layout]
        cells = rng.standard_normal((64, 50)) + 1j * rng.standard_normal((64, 50))
        d, noise = cells[:, 5:45], draw_noise(64, 0.3, 13, 40)
        y_f = synthesize_pulse(sym, d, noise)
        assert y_f.tobytes() == (np.fft.fft(d, axis=0) * sym + noise).tobytes()
        assert y_f.flags.f_contiguous == (layout == "f-ordered")

    def test_dimension_mismatch(self):
        spec, sym = seeded_symbols(8, 1)
        with pytest.raises(DimensionError):
            synthesize_pulse(sym, np.zeros(4), None)


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
    @pytest.mark.parametrize("synthesize", [synthesize_raw, form_image])
    def test_scene_rows_other_than_n_dimension_error(self, geom, spec64, synthesize):
        # A 32-row scene meets synthesize_pulse's shape check against 64 symbols a
        # pulse, on the whole-cube path and the blocked one alike.
        scene = Scene(np.ones((32, 1)), range_cell_size(spec64))
        alloc = PowerAllocation.uniform(64, 64.0)
        with pytest.raises(DimensionError, match=r"shape \(32, \d+\) != symbols \(64,"):
            synthesize(spec64, geom, scene, alloc, 0.0, 0)

    def test_empty_scene_zero_cube(self, geom, spec64):
        scene = Scene(np.zeros((64, 4)), range_cell_size(spec64))
        alloc = PowerAllocation.uniform(64, 64.0)
        spectrum, _, _ = synthesize_raw(spec64, geom, scene, alloc, 0.0, seed=0)
        assert not np.any(spectrum)
        assert spectrum.shape[1] == geom.n_pulses

    def test_point_scene_pulses_are_shifted_bodies(self, geom, spec64):
        # Single unit scatterer: each pulse's spectrum is the DFT of a scaled
        # cyclic shift of its own pulse body.
        scene = point_scene(spec64, 1)
        alloc = PowerAllocation.uniform(64, 64.0)
        spectrum, symbols, _ = synthesize_raw(spec64, geom, scene, alloc, 0.0, seed=1)
        m, n = 32, 64
        for p in (0, 400, 799):
            body = modulate(symbols[:, p], spec64)[spec64.cp_len :]
            d_m = scene_coefficients(geom, scene)[m, p]
            assert abs(abs(d_m) - 1.0) < 1e-12
            np.testing.assert_allclose(
                spectrum[:, p],
                np.fft.fft(d_m * np.roll(body, m) / np.sqrt(n)),
                atol=1e-10,
            )

    def test_deterministic_given_seed(self, geom, spec64):
        scene = point_scene(spec64, 1)
        alloc = PowerAllocation.uniform(64, 64.0)
        a = synthesize_raw(spec64, geom, scene, alloc, 0.1, seed=42)
        b = synthesize_raw(spec64, geom, scene, alloc, 0.1, seed=42)
        np.testing.assert_array_equal(a[0], b[0])

    @pytest.mark.parametrize("key", [(), (2,)], ids=["image", "sweep point"])
    def test_streams_are_seed_sequence_children(self, key):
        # Stream (*key, k) draws as child k of SeedSequence(123, spawn_key=key).
        children = np.random.SeedSequence(123, spawn_key=key).spawn(2)
        for index, child in enumerate(children):
            a = pulse_rng(123, *key, index).standard_normal(4)
            np.testing.assert_array_equal(a, np.random.default_rng(child).standard_normal(4))
        a, b = pulse_rng(123, *key, 0).random(4), pulse_rng(123, *key, 1).random(4)
        assert not np.array_equal(a, b)

    def test_fresh_symbols_each_pulse(self, geom, spec64):
        scene = Scene(np.zeros((64, 1)), range_cell_size(spec64))
        alloc = PowerAllocation.uniform(64, 64.0)
        _, symbols, _ = synthesize_raw(spec64, geom, scene, alloc, 0.0, seed=3)
        s0 = symbols[:, 0]
        s1 = symbols[:, 1]
        assert not np.array_equal(s0, s1)

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_same_symbols_at_any_snr(self, geom, spec64, law):
        # Symbols and noise come from separate streams: the noise power does
        # not move the symbols.
        scene = point_scene(spec64, 1)
        alloc = PowerAllocation.uniform(64, 64.0)
        cubes = [synthesize_raw(spec64, geom, scene, alloc, s2, 9, law)
                 for s2 in (0.0, 0.3, 5.0)]
        for cube in cubes[1:]:
            np.testing.assert_array_equal(cube[1], cubes[0][1])

    def test_subcarrier_noise_calibration(self, geom, spec64):
        # On an empty scene the cube is the noise W_f alone: white
        # CN(0, N sigma^2), so |W_f|^2 / (N sigma^2) is Exp(1), with real and
        # imaginary parts uncorrelated.
        n, sigma2 = 64, 0.3
        scene = Scene(np.zeros((n, 4)), range_cell_size(spec64))
        alloc = PowerAllocation.uniform(n, float(n))
        w, _, _ = synthesize_raw(spec64, geom, scene, alloc, sigma2, seed=5)
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
    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_profiles_match_per_pulse_oracle(self, prf, kind, sigma2, law):
        spec = WaveformSpec(64, 1.5e9, 64.0)
        geom = Geometry(np.sqrt(2.0) * 1000.0, 40.0, 9e9, prf, 1.0)
        scene = point_scene(spec, 64) if kind == "point" else car_scene(spec)
        alloc = PowerAllocation.uniform(64, 64.0)
        _, symbols, _ = cube = synthesize_raw(spec, geom, scene, alloc, sigma2, 11, law)
        profiles = range_profile_cube(cube)
        y = synthesize_raw_per_pulse(geom, scene, symbols)
        if sigma2 != 0.0:
            # Row p of the noise block holds pulse p's subcarrier noise as
            # interleaved real and imaginary parts, scaled to CN(0, N sigma^2).
            block = pulse_rng(11, 1).standard_normal((geom.n_pulses, 128))
            w_f = np.sqrt(64 * sigma2 / 2.0) * (block[:, 0::2] + 1j * block[:, 1::2])
            y += np.fft.ifft(w_f.T, axis=0)
        assert profiles.shape == (64, geom.n_pulses)
        for p in range(geom.n_pulses):
            ref = ls_estimate(np.fft.fft(y[:, p]), symbols[:, p], alloc)
            err = np.linalg.norm(profiles[:, p] - ref)
            assert err <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("sigma2", [0.3, 0.0])
    def test_synthesize_pulse_columns_are_single_pulses(self, sigma2):
        # A block reads one noise row per pulse, so drawing the pulses one at
        # a time from the same stream gives the same bits.
        rng = np.random.default_rng(4)
        sym = rng.standard_normal((64, 40)) + 1j * rng.standard_normal((64, 40))
        d = rng.standard_normal((64, 40)) + 1j * rng.standard_normal((64, 40))
        batched = synthesize_pulse(sym, d, draw_noise(64, sigma2, 5, 40))
        noise = np.random.default_rng(5)
        for p in range(40):
            single = synthesize_pulse(sym[:, p], d[:, p], draw_noise(64, sigma2, noise))
            assert batched[:, p].tobytes() == single.tobytes()


class TestPulseBlocks:
    """``pulse_blocks`` yields the whole-stream draws a block at a time, each drawn
    as it is taken, on the calling thread.  The fault tests patch
    ``echo.draw_symbols``, the name it looks up as it draws."""

    ALLOC = PowerAllocation.uniform(64, 64.0)

    def blocks(self, spec, pulses=800, sigma2=0.3):
        return pulse_blocks(3, (), spec, self.ALLOC, GAUSSIAN, sigma2, pulses)

    @staticmethod
    def patch_draws(monkeypatch, fault=lambda drawn, symbols: None):
        """Record each draw's pulse count and let ``fault`` act on its symbols."""
        draw, drawn = echo.draw_symbols, []

        def faulty(spec, alloc, seed, pulses, law):
            drawn.append(pulses)
            symbols = draw(spec, alloc, seed, pulses, law)
            fault(drawn, symbols)
            return symbols

        monkeypatch.setattr(echo, "draw_symbols", faulty)
        return drawn

    @pytest.mark.parametrize("sigma2", [0.3, 0.0])
    def test_blocks_are_the_whole_stream_draws(self, spec64, sigma2):
        symbols, noise = zip(*self.blocks(spec64, 800, sigma2))
        assert [s.shape for s in symbols] == [(64, 128)] * 6 + [(64, 32)]
        whole = draw_symbols(spec64, self.ALLOC, pulse_rng(3, 0), 800, GAUSSIAN)
        assert np.hstack(symbols).tobytes() == whole.tobytes()
        if sigma2 == 0.0:
            assert noise == (None,) * 7
        else:
            whole = draw_noise(64, sigma2, pulse_rng(3, 1), 800)
            assert np.hstack(noise).tobytes() == whole.tobytes()

    def test_a_failed_draw_surfaces_at_its_block(self, spec64, monkeypatch):
        def fail_third(drawn, symbols):
            if len(drawn) == 3:
                raise RuntimeError("third block")

        drawn, taken = self.patch_draws(monkeypatch, fail_third), []
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="third block"):
            taken.extend(self.blocks(spec64))
        assert threading.active_count() == threads
        assert len(taken) == 2
        assert drawn == [128] * 3  # none after the failed one

    def test_an_error_the_consumer_raises_stops_the_draws(self, spec64, monkeypatch):
        drawn = self.patch_draws(monkeypatch)
        threads = threading.active_count()
        with pytest.raises(IllConditionedWaveformError):
            for taken, _ in enumerate(self.blocks(spec64), 1):
                if taken == 3:
                    raise IllConditionedWaveformError(17, 9e-8, 1e-6)
        assert threading.active_count() == threads
        assert drawn == [128] * 3  # none past the block taken

    @pytest.mark.parametrize("fault", ["failed draw", "dry last symbol"])
    @pytest.mark.parametrize("caller", ["form_image", "mse_vs_snr"])
    def test_each_caller_surfaces_a_fault(self, spec64, monkeypatch, caller, fault):
        # 255 pulses or trials: one block of 128, then the last of 127.  A failed
        # draw raises in the pulse_blocks iterator; a symbol below the LS floor
        # raises in the caller's LS, in its last block.
        def faulty(drawn, symbols):
            if fault == "failed draw" and len(drawn) == 2:
                raise RuntimeError("second block")
            if sum(drawn) == 255:
                symbols[17, -1] = 3e-4

        self.patch_draws(monkeypatch, faulty)
        threads = threading.active_count()
        error = RuntimeError if fault == "failed draw" else IllConditionedWaveformError
        with pytest.raises(error):
            if caller == "form_image":
                geom = Geometry(np.sqrt(2.0) * 1000.0, 40.0, 9e9, 255.0, 1.0)
                form_image(spec64, geom, point_scene(spec64, 1), self.ALLOC, 0.03, 2, GAUSSIAN)
            else:
                mse_vs_snr(spec64, ChannelGains(np.ones(64)), [10.0], 255, seed=2)
        assert threading.active_count() == threads
