import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsar import (
    Geometry,
    Scene,
    WaveformSpec,
    load_scene,
    save_scene,
    slant_range,
)
from ofdmsar.azimuth import azimuth_reference
from ofdmsar.errors import SceneFormatError
from ofdmsar.geometry import (
    SPEED_OF_LIGHT,
    closest_approach_ranges,
    range_cell_size,
    scene_coefficients,
)
from ofdmsar.scenes import car_scene, point_scene
from oracles import scene_coefficients_dense

# The ``geom`` fixture's values; hypothesis tests cannot take function fixtures.
DEFAULT_GEOM = Geometry(1000.0, np.sqrt(2.0) * 1000.0, 40.0, 9e9, 800.0, 1.0)


class TestGeometry:
    def test_derived_quantities(self, geom):
        assert geom.n_pulses == 800
        assert geom.wavelength == pytest.approx(SPEED_OF_LIGHT / 9e9)
        eta = geom.slow_time()
        assert eta.size == 800
        assert eta[400] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Geometry(1000.0, 900.0, 40.0, 9e9, 800.0, 1.0)  # R_c < altitude
        with pytest.raises(ValueError):
            Geometry(1000.0, 1400.0, 40.0, 9e9, 1.0, 1.0)  # single pulse


def in_beam_spans(geom, spec, n_azimuth):
    # First and last in-beam pulse of each column, or None where a column never
    # enters the beam: on a diagonal scene, row a holds column a alone.
    rcs = np.zeros((spec.n_subcarriers, n_azimuth))
    rcs[np.arange(n_azimuth), np.arange(n_azimuth)] = 1.0
    d = scene_coefficients(geom, Scene(rcs, range_cell_size(spec)))
    spans = [np.flatnonzero(row) for row in d[:n_azimuth]]
    return [(int(p[0]), int(p[-1])) if p.size else None for p in spans]


def expected_spans(geom, centers):
    # Pulses p of the grid with |p - c| <= prf T / 2, for closest approach c.
    half = int(geom.prf * geom.aperture_time / 2)
    return [(max(c - half, 0), min(c + half, geom.n_pulses - 1))
            if c - half < geom.n_pulses and c + half >= 0 else None for c in centers]


class TestColumnGrid:
    # Columns lie a whole number of pulses apart: step = max(1, round(prf *
    # rho_a / v)), the count nearest one resolvable azimuth cell.
    def test_columns_are_whole_pulses_apart(self, geom, spec64):
        step = max(1, round(geom.prf * geom.azimuth_resolution() / geom.velocity))
        assert step == 12  # rho_a / v is 11.777 pulse intervals here
        centers = 400 + (np.arange(64) - 32) * step
        spans = in_beam_spans(geom, spec64, 64)
        assert spans == expected_spans(geom, centers)
        # Columns right of the middle enter the beam 12 pulses after each other.
        assert np.all(np.diff([first for first, _ in spans[32:]]) == step)

    def test_sub_pulse_cell_gives_a_step_of_one(self, spec64):
        # At 16 Hz one azimuth cell is 0.236 pulse intervals, which rounds to 0.
        geom = Geometry(1000.0, np.sqrt(2.0) * 1000.0, 40.0, 9e9, 16.0, 1.0)
        assert round(geom.prf * geom.azimuth_resolution() / geom.velocity) == 0
        spans = in_beam_spans(geom, spec64, 9)
        assert spans == expected_spans(geom, 8 + np.arange(9) - 4)
        assert spans[5:] == [(1, 15), (2, 15), (3, 15), (4, 15)]

    def test_step_past_the_aperture_is_held_at_n_pulses(self, spec64):
        # At 1e-9 m/s a cell is 1.9e22 pulses wide, past int64 when multiplied
        # out; held at n_pulses, no column but the middle one is ever in the
        # beam away from the grid's edge, and the middle one stays in it.  The
        # left column's closest approach, pulse -400, leaves pulse 0 on the
        # aperture's edge.
        geom = Geometry(1000.0, np.sqrt(2.0) * 1000.0, 1e-9, 9e9, 800.0, 1.0)
        assert in_beam_spans(geom, spec64, 3) == [(0, 0), (0, 799), None]
        d = scene_coefficients(geom, point_scene(spec64, 3))
        assert d.tobytes() == scene_coefficients(geom, point_scene(spec64, 1)).tobytes()
        np.testing.assert_allclose(np.abs(d[32]), 1.0, rtol=1e-12)


class TestSlantRange:
    def test_closest_approach(self, geom):
        assert slant_range(geom, 1234.0, 0.0) == 1234.0

    def test_direct_value(self, geom):
        assert slant_range(geom, 1000.0, 1.0) == pytest.approx(
            np.sqrt(1000000.0 + 1600.0), rel=1e-12
        )

    def test_even_in_eta(self, geom):
        assert slant_range(geom, 1500.0, 0.3) == slant_range(geom, 1500.0, -0.3)

    def test_curvature_approximation(self, geom):
        # R(eta) - Rbar ~ v^2 eta^2 / (2 Rbar) within 1% at this geometry.
        rbar = geom.slant_range_center
        for eta in (0.1, 0.3, 0.5):
            exact = slant_range(geom, rbar, eta) - rbar
            approx = (geom.velocity * eta) ** 2 / (2.0 * rbar)
            assert abs(exact - approx) < 0.01 * exact


class TestWeightingCoefficients:
    # One occupied column: the summed coefficients are that column's own.
    def test_zero_rcs_gives_zero(self, geom, spec64):
        scene = Scene(np.zeros((64, 1)), range_cell_size(spec64))
        np.testing.assert_array_equal(scene_coefficients(geom, scene), 0.0)

    def test_unit_modulus_inside_aperture(self, geom, spec64):
        scene = Scene(np.ones((64, 1)), range_cell_size(spec64))
        # A lone middle column is in the beam at every pulse of the grid.
        d = scene_coefficients(geom, scene)
        np.testing.assert_allclose(np.abs(d), 1.0, atol=1e-12)

    def test_envelope_vanishes_outside_aperture(self, geom, spec64):
        # Column 2 of 3 reaches closest approach 12 pulses after pulse 400, so
        # pulse 0 lies 412 pulses, 0.515 s, before it, and pulse 12 is the first
        # within T/2 = 400 pulses.
        rcs = np.zeros((64, 3))
        rcs[:, 2] = 1.0
        d = scene_coefficients(geom, Scene(rcs, range_cell_size(spec64)))
        np.testing.assert_array_equal(d[:, :12], 0.0)
        np.testing.assert_allclose(np.abs(d[:, 12:]), 1.0, atol=1e-12)

    def test_phase_at_closest_approach(self, geom, spec64):
        scene = point_scene(spec64, 1)
        m = spec64.n_subcarriers // 2
        rbar = closest_approach_ranges(geom, 64, scene.range_cell_size)[m]
        assert rbar == pytest.approx(geom.slant_range_center)
        d = scene_coefficients(geom, scene)[:, geom.n_pulses // 2]
        expected = -4.0 * np.pi * geom.carrier_freq * rbar / SPEED_OF_LIGHT
        assert np.angle(d[m]) == pytest.approx(
            np.angle(np.exp(1j * expected)), abs=1e-9
        )

    def test_history_matches_azimuth_chirp(self, geom, spec64):
        # Residual phase between d_m(eta) and the quadratic reference stays
        # below 0.1 rad over the aperture for the swath-center scatterer.
        scene = point_scene(spec64, 1)
        m = spec64.n_subcarriers // 2
        hist = scene_coefficients(geom, scene)[m]
        ref = azimuth_reference(geom)
        residual = hist * np.conj(ref)
        phase = np.angle(residual * np.conj(residual[geom.n_pulses // 2]))
        assert np.max(np.abs(phase)) < 0.1


def assert_equal_to_dense(geom, scene):
    # Every pulse of the grid must carry the dense grid's bits.
    d = scene_coefficients(geom, scene)
    assert d.shape == (scene.n_range_cells, geom.n_pulses)
    assert d.tobytes() == scene_coefficients_dense(geom, scene).tobytes()


class TestOccupiedCellEvaluation:
    # One kernel per occupied row, each occupied column adding its in-beam
    # window, must give the bits of the dense grid whose columns are added in
    # ascending order, not just close values.
    @pytest.mark.parametrize("kind", ["point", "car", "zero"])
    def test_demo_scenes_bit_equal_to_dense(self, kind, geom, spec64):
        scene = {
            "point": lambda: point_scene(spec64, 64),
            "car": lambda: car_scene(spec64),
            "zero": lambda: Scene(np.zeros((64, 64)), range_cell_size(spec64)),
        }[kind]()
        assert_equal_to_dense(geom, scene)

    def test_random_complex_scene_bit_equal_to_dense(self, geom, spec64):
        # 200 columns 12 pulses apart span +-1.5 s of closest-approach times,
        # so the outer ones never enter the +-0.5 s aperture of the +-0.5 s
        # slow-time grid.
        rng = np.random.default_rng(7)
        values = rng.standard_normal((64, 200)) + 1j * rng.standard_normal((64, 200))
        scene = Scene(values * (rng.random((64, 200)) < 0.2), range_cell_size(spec64))
        assert_equal_to_dense(geom, scene)

    @given(
        n_azimuth=st.integers(1, 24),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_sparse_occupancy_bit_equal_to_dense(self, n_azimuth, density, seed):
        spec = WaveformSpec(16, 1.5e9 / 16)
        rng = np.random.default_rng(seed)
        shape = (16, n_azimuth)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        scene = Scene(values * (rng.random(shape) < density), range_cell_size(spec))
        assert_equal_to_dense(DEFAULT_GEOM, scene)

    def test_occupied_cells(self, spec64):
        assert car_scene(spec64).occupied[0].size == 819
        np.testing.assert_array_equal(point_scene(spec64, 9).occupied, [[32], [4]])


class TestSlowTimeArray:
    # One call returns (M, n_pulses), column p for pulse p of the grid.
    def test_empty_scene_gives_zeros(self, geom, spec64):
        scene = Scene(np.zeros((64, 5)), range_cell_size(spec64))
        d = scene_coefficients(geom, scene)
        assert d.shape == (64, geom.n_pulses)
        assert not np.any(d)


class TestInBeamPulses:
    # Each occupied column is evaluated only at the pulses its aperture
    # envelope keeps.
    def test_columns_outside_the_aperture_give_exact_zeros(self, geom, spec64):
        # Of 200 columns 12 pulses apart, the outer 20 on each side reach
        # closest approach at |eta_a| >= 960 pulses = 1.2 s, more than
        # T/2 = 0.5 s from every pulse of the +-0.5 s grid.
        rng = np.random.default_rng(11)
        values = rng.standard_normal((64, 200)) + 1j * rng.standard_normal((64, 200))
        values[:, 20:180] = 0.0
        scene = Scene(values, range_cell_size(spec64))
        d = scene_coefficients(geom, scene)
        assert d.tobytes() == np.zeros((64, geom.n_pulses), dtype=complex).tobytes()

    def test_wide_point_scene_equals_one_column(self, geom, spec64):
        wide = scene_coefficients(geom, point_scene(spec64, 20001))
        assert wide.tobytes() == scene_coefficients(geom, point_scene(spec64, 1)).tobytes()

    def test_wide_point_scene_peak_memory(self, geom, spec64):
        # Memory follows the occupied cells and the output, not M x n_az x P.
        scene = point_scene(spec64, 20001)
        tracemalloc.start()
        try:
            scene_coefficients(geom, scene)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_point_scene_peak_memory_per_cell(self):
        # The kernel spans the occupied rows only, not every range row by every
        # in-beam offset: the (N, P) output's 16 B a cell and little more.
        spec = WaveformSpec(256, 1.0e6)
        geom = Geometry(1000.0, np.sqrt(2.0) * 1000.0, 40.0, 9e9, 2048.0, 1.0)
        scene = point_scene(spec, 1)
        tracemalloc.start()
        try:
            scene_coefficients(geom, scene)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 256 * 2048


class TestSceneImmutability:
    def test_rcs_is_a_read_only_copy(self, spec8):
        # Complex input needs no conversion, so only an explicit copy keeps
        # the scene from aliasing, or freezing, the caller's array.
        rcs = np.zeros((8, 3), dtype=complex)
        scene = Scene(rcs, range_cell_size(spec8))
        with pytest.raises(ValueError):
            scene.rcs[0, 0] = 1.0
        assert rcs.flags.writeable and not np.shares_memory(rcs, scene.rcs)
        rcs[0, 0] = 1.0
        assert not np.any(scene.rcs)
        assert scene.occupied[0].size == 0


class TestSceneIO:
    def test_roundtrip_complex(self, tmp_path, spec8):
        rng = np.random.default_rng(0)
        rcs = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        scene = Scene(rcs, range_cell_size(spec8))
        path = tmp_path / "scene.txt"
        save_scene(scene, path)
        loaded = load_scene(path, spec8)
        np.testing.assert_allclose(loaded.rcs, scene.rcs, atol=0)

    def test_empty_grid_valid(self, tmp_path, spec64):
        scene = Scene(np.zeros((64, 64)), range_cell_size(spec64))
        path = tmp_path / "empty.txt"
        save_scene(scene, path)
        loaded = load_scene(path, spec64)
        assert loaded.n_range_cells == 64
        assert not np.any(loaded.rcs)

    def test_point_scene_file(self, tmp_path, spec64):
        path = tmp_path / "point.txt"
        save_scene(point_scene(spec64, 64), path)
        loaded = load_scene(path, spec64)
        assert loaded.rcs[32, 32] == 1.0
        assert np.count_nonzero(loaded.rcs) == 1

    def test_car_scene_binary(self, spec64):
        scene = car_scene(spec64)
        vals = np.unique(scene.rcs.real)
        assert set(vals.tolist()) <= {0.0, 1.0}
        assert np.count_nonzero(scene.rcs) > 64

    def test_dimension_mismatch(self, tmp_path, spec64):
        path = tmp_path / "small.txt"
        save_scene(Scene(np.zeros((8, 2)), range_cell_size(WaveformSpec(8, 1.0))), path)
        with pytest.raises(SceneFormatError):
            load_scene(path, spec64)

    def test_malformed_file(self, tmp_path, spec8):
        path = tmp_path / "bad.txt"
        path.write_text("no header\n1,2\n")
        with pytest.raises(SceneFormatError):
            load_scene(path, spec8)
        path.write_text("# 2 2\n1,2\n")
        with pytest.raises(SceneFormatError):
            load_scene(path, spec8)
        path.write_text("# 8 1\n" + "\n".join(["bogus"] * 8) + "\n")
        with pytest.raises(SceneFormatError):
            load_scene(path, spec8)

    @pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "1:nan", "inf:0", "1e400"])
    def test_non_finite_value_names_the_token(self, tmp_path, spec8, tok):
        path = tmp_path / "bad.txt"
        path.write_text("# 8 1\n" + "0\n" * 7 + tok + "\n")
        with pytest.raises(SceneFormatError, match=f"non-finite scene value '{tok}'"):
            load_scene(path, spec8)

    def test_cell_size(self, tmp_path, spec64):
        # Every scene builder spaces its rows c / (2 B) apart.
        path = tmp_path / "point.txt"
        save_scene(point_scene(spec64, 1), path)
        for scene in (point_scene(spec64, 1), car_scene(spec64), load_scene(path, spec64)):
            assert scene.range_cell_size == pytest.approx(
                SPEED_OF_LIGHT / (2.0 * spec64.bandwidth)
            )
