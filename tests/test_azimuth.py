import threading

import numpy as np
import pytest

from ofdmsar import (
    Geometry,
    PowerAllocation,
    azimuth_compress,
    azimuth_reference,
    echo,
    form_image,
    range_profile_cube,
    rcmc_bulk,
    synthesize_raw,
)
from ofdmsar.allocation import TruncationPolicy
from ofdmsar.azimuth import SarImage, rcmc_shifts
from ofdmsar.cli import EXIT_OK, run
from ofdmsar.errors import IllConditionedWaveformError
from ofdmsar.geometry import Scene, range_cell_size
from ofdmsar.scenes import car_scene, point_scene


def focused_point_image(spec, geom, sigma2, seed, n_azimuth=1):
    scene = point_scene(spec, n_azimuth)
    alloc = PowerAllocation.uniform(spec.n_subcarriers, spec.power_budget)
    return form_image(spec, geom, scene, alloc, sigma2, seed), scene


class TestSarImage:
    def test_db_invariants(self):
        rng = np.random.default_rng(0)
        img = SarImage.from_complex(rng.standard_normal((8, 8)) * 1j)
        assert img.db_image.min() >= -40.0
        assert img.db_image.max() == 0.0

    def test_zero_input_all_floor(self):
        img = SarImage.from_complex(np.zeros((4, 4), dtype=complex))
        np.testing.assert_array_equal(img.db_image, -40.0)


class TestRcmc:
    def test_zero_shift_at_closest_approach(self, geom):
        shifts = rcmc_shifts(geom, 0.1, 64)
        assert shifts[geom.n_pulses // 2] == 0

    def test_shift_at_aperture_edge(self, geom):
        # dR(0.5 s) = sqrt(R_c^2 + 20^2) - R_c ~ 0.1414 m -> one 0.1 m cell.
        shifts = rcmc_shifts(geom, 0.1, 64)
        eta = geom.slow_time()
        idx = np.argmin(np.abs(eta - 0.5))
        assert shifts[idx] == 1

    def test_quasi_static_identity(self):
        geom = Geometry(1000.0, 1414.0, 1e-9, 9e9, 4.0, 1.0)
        profiles = np.arange(16.0).reshape(4, 4) + 0j
        expected = profiles.copy()  # rcmc_bulk overwrites its input
        np.testing.assert_array_equal(rcmc_bulk(profiles, geom, 0.1), expected)

    def test_wrapped_cells_masked(self, geom):
        # Smaller cells force larger shifts: 3 cells at 0.05 m, 14 at 0.01 m.
        n = 64
        rng = np.random.default_rng(4)
        profiles = rng.standard_normal((n, geom.n_pulses)) + 1j * rng.standard_normal(
            (n, geom.n_pulses)
        )
        for cell, edge_shift in ((0.05, 3), (0.01, 14)):
            out = rcmc_bulk(profiles.copy(), geom, cell)
            shifts = rcmc_shifts(geom, cell, n)
            assert shifts[0] == edge_shift  # aperture edge: the largest migration
            assert np.all(out[n - shifts[0] :, 0] == 0.0)
            # Roll-and-mask reference, one pulse at a time (every shift is >= 0).
            for p, shift in enumerate(shifts):
                col = np.roll(profiles[:, p], -shift)
                col[n - shift :] = 0.0
                np.testing.assert_array_equal(out[:, p], col)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_migration_past_the_swath_is_held(self, tmp_path):
        # Both 2**32 rad phase checks pass, and dR / cell reaches about 1e101:
        # its cast to int raised "invalid value encountered in cast".
        geom = Geometry(1000.0, 1414.0, 1e100, 1e-290, 800.0, 1.0)
        shifts = rcmc_shifts(geom, 0.1, 64)
        assert shifts[geom.n_pulses // 2] == 0
        assert np.abs(shifts).max() == 64
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("velocity = 1e100\ncarrier_freq = 1e-290\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path), "simulate"]) == EXIT_OK


class TestAzimuthReference:
    def test_unity_at_zero(self, geom):
        ref = azimuth_reference(geom)
        assert ref[geom.n_pulses // 2] == pytest.approx(1.0 + 0j)

    def test_conjugate_symmetry(self, geom):
        n0 = geom.n_pulses // 2
        ref = azimuth_reference(geom)
        for k in (1, 10, 200, 399):
            assert ref[n0 + k] == pytest.approx(ref[n0 - k], abs=1e-12)

    def test_phase_at_half_second(self, geom):
        ref = azimuth_reference(geom)
        eta = geom.slow_time()
        idx = int(np.argmin(np.abs(eta - 0.5)))
        expected = (
            -2.0 * np.pi * geom.velocity**2 * eta[idx] ** 2
            / (geom.wavelength * geom.slant_range_center)
        )
        assert np.angle(ref[idx]) == pytest.approx(
            np.angle(np.exp(1j * expected)), abs=1e-9
        )


class TestAzimuthCompress:
    def test_reference_autocorrelation_peak_at_center(self, geom):
        # Feeding the reference itself focuses to the center pulse with the
        # chirp autocorrelation response.
        n = geom.n_pulses
        ref = azimuth_reference(geom)
        profiles = ref[None, :].astype(complex)
        img = azimuth_compress(profiles, geom)
        row = np.abs(img.complex_image[0])
        assert np.argmax(row) == n // 2
        # Closed-form circular autocorrelation oracle.
        auto = np.abs(
            np.roll(np.fft.ifft(np.abs(np.fft.fft(ref)) ** 2), n // 2)
        )
        np.testing.assert_allclose(row, auto, rtol=0, atol=1e-6 * auto.max())

    def test_point_target_focus_noise_free(self, geom, spec64):
        img, scene = focused_point_image(spec64, geom, 0.0, seed=5)
        peak = np.unravel_index(np.argmax(np.abs(img.complex_image)), img.db_image.shape)
        assert abs(peak[0] - 32) <= 1
        assert abs(peak[1] - geom.n_pulses // 2) <= 1

    def test_mainlobe_width_matches_resolution(self, geom):
        # Null-to-null mainlobe of the compressed response ~ 2x the azimuth
        # resolution expressed in pulse counts.
        n = geom.n_pulses
        ref = azimuth_reference(geom)
        img = azimuth_compress(ref[None, :].astype(complex), geom)
        row = np.abs(img.complex_image[0])
        peak = int(np.argmax(row))
        right = peak
        while right < n - 1 and row[right + 1] < row[right]:
            right += 1
        cells_per_lobe = geom.azimuth_resolution() * geom.prf / geom.velocity
        assert right - peak == pytest.approx(cells_per_lobe, rel=0.35)

    def test_energy_non_creation(self, geom):
        rng = np.random.default_rng(1)
        profiles = rng.standard_normal((4, geom.n_pulses)) + 0j
        bound = geom.n_pulses * np.max(np.abs(profiles))  # taken first: focusing overwrites
        img = azimuth_compress(profiles, geom)
        assert np.max(np.abs(img.complex_image)) <= bound

    def test_shift_consistency(self, geom, spec64):
        # Moving the scatterer by k columns moves the noise-free peak by
        # exactly k column steps of max(1, round(prf * rho_a / v)) pulses.
        alloc = PowerAllocation.uniform(64, 64.0)
        peaks = []
        for col in (4, 5, 3, 8):
            rcs = np.zeros((64, 9))
            rcs[32, col] = 1.0
            scene = Scene(rcs, range_cell_size(spec64))
            img = form_image(spec64, geom, scene, alloc, 0.0, seed=6)
            peaks.append(
                np.unravel_index(np.argmax(np.abs(img.complex_image)), img.db_image.shape)[1]
            )
        step = max(1, round(geom.azimuth_resolution() * geom.prf / geom.velocity))
        assert [p - peaks[0] for p in peaks[1:]] == [step, -step, 4 * step]

    def test_zero_profiles_all_floor(self, geom):
        img = azimuth_compress(np.zeros((4, geom.n_pulses), dtype=complex), geom)
        np.testing.assert_array_equal(img.db_image, -40.0)


class TestFormImage:
    """``form_image`` is the stage chain, formed in pulse blocks in one array."""

    @staticmethod
    def chain(spec, geom, scene, alloc, sigma2, seed, policy):
        cube = synthesize_raw(spec, geom, scene, alloc, sigma2, seed, policy)
        profiles = rcmc_bulk(range_profile_cube(cube), geom, scene.range_cell_size)
        return azimuth_compress(profiles, geom)

    @pytest.mark.parametrize("kind, prf, policy", [
        ("point", 800.0, TruncationPolicy()),  # 6 blocks of 128 pulses, then 32
        ("car", 800.0, None),
        ("point", 100.0, TruncationPolicy()),  # less than one block
    ])
    def test_matches_the_stage_chain(self, spec64, kind, prf, policy):
        geom = Geometry(1000.0, np.sqrt(2.0) * 1000.0, 40.0, 9e9, prf, 1.0)
        scene = point_scene(spec64, 1) if kind == "point" else car_scene(spec64)
        alloc = PowerAllocation.uniform(64, 64.0)
        args = (spec64, geom, scene, alloc, 0.03, 7, policy)
        image, expected = form_image(*args), self.chain(*args)
        assert image.complex_image.tobytes() == expected.complex_image.tobytes()
        assert image.db_image.tobytes() == expected.db_image.tobytes()

    def test_sub_floor_symbol_in_the_last_block_raises_as_the_whole_cube(
        self, spec64, monkeypatch
    ):
        # 255 pulses: one block of 128, then the last of 127.  The last pulse's
        # subcarrier 17 is set below the 1e-6 * P/N floor as it is drawn.
        geom = Geometry(1000.0, np.sqrt(2.0) * 1000.0, 40.0, 9e9, 255.0, 1.0)
        alloc = PowerAllocation.uniform(64, 64.0)
        draw, drawn = echo.draw_symbols, []

        def draw_with_a_dry_last_pulse(spec, alloc, seed, pulses, policy):
            symbols = draw(spec, alloc, seed, pulses, policy)
            drawn.append(pulses)
            if sum(drawn) == geom.n_pulses:
                symbols[17, -1] = 3e-4
            return symbols

        monkeypatch.setattr(echo, "draw_symbols", draw_with_a_dry_last_pulse)
        errors, draws = [], []
        threads = threading.active_count()
        for form in (form_image, self.chain):
            drawn.clear()
            with pytest.raises(IllConditionedWaveformError) as err:
                form(spec64, geom, point_scene(spec64, 1), alloc, 0.03, 2, TruncationPolicy())
            errors.append((err.value.subcarrier, err.value.power, str(err.value)))
            draws.append(list(drawn))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (17, pytest.approx(9e-8))
        assert draws == [[128, 127], [255]]
        assert threading.active_count() == threads  # the symbol worker has ended

    def test_a_failed_draw_surfaces_and_its_worker_ends(self, spec64, monkeypatch):
        # 800 pulses: 7 blocks, drawn on a worker thread two ahead of the one formed.
        geom = Geometry(1000.0, np.sqrt(2.0) * 1000.0, 40.0, 9e9, 800.0, 1.0)
        alloc = PowerAllocation.uniform(64, 64.0)
        draw, drawn = echo.draw_symbols, []

        def draw_failing_on_the_third_block(spec, alloc, seed, pulses, policy):
            drawn.append(pulses)
            if len(drawn) == 3:
                raise RuntimeError("third block")
            return draw(spec, alloc, seed, pulses, policy)

        monkeypatch.setattr(echo, "draw_symbols", draw_failing_on_the_third_block)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="third block"):
            form_image(spec64, geom, point_scene(spec64, 1), alloc, 0.03, 2, None)
        assert threading.active_count() == threads
        assert drawn == [128] * 4  # the third block's error is read before a fifth is asked
