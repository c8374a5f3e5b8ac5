"""Each output check accepts real outputs and rejects a corrupted copy.

Run with: python3 -m pytest perfbench/tests
"""

import copy
import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from checks import CheckError, KnownFault  # noqa: E402

inputs.use_checkout_src()


def _run_cli(outdir: Path, *argv: str) -> Path:
    import ofdmsar.cli

    with redirect_stdout(io.StringIO()):
        assert ofdmsar.cli.run(["--out", str(outdir), *argv]) == 0
    return outdir


@pytest.fixture(scope="module")
def point_out(tmp_path_factory):
    return _run_cli(tmp_path_factory.mktemp("point"), "--seed", "5", "simulate")


@pytest.fixture(scope="module")
def car_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("car")
    cfg = out / "car.cfg"
    cfg.write_text("scene = car\nsignaling = gaussian\n")
    return _run_cli(out, "--config", str(cfg), "--seed", "0", "simulate")


@pytest.fixture(scope="module")
def mse_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("mse")
    cfg = out / "mse.cfg"
    cfg.write_text(f"channel = multipath\nsnr_grid = {inputs.MSE_SNR_DB!r}\n")
    _run_cli(out, "--config", str(cfg), "--seed", "3", "mse-sweep")
    return checks.read_table(out / "mse_sweep.csv")


@pytest.fixture(scope="module")
def mse_expect():
    return checks.mse_expectations(inputs.MSE_SNR_DB, inputs.MSE_TRIALS)


@pytest.fixture(scope="module")
def tradeoff(tmp_path_factory):
    """Channel seed 2, whose sweep meets the solver's rate tolerance."""
    out = tmp_path_factory.mktemp("tradeoff")
    cfg = out / "t.cfg"
    cfg.write_text("channel = multipath\nchannel_seed = 2\n")
    _run_cli(out, "--config", str(cfg), "tradeoff", "--snr-db",
             repr(inputs.TRADEOFF_SNR_DB), "--points", str(inputs.TRADEOFF_POINTS))
    return checks.read_table(out / "tradeoff.csv"), checks.tradeoff_reference(2)


# --- references ------------------------------------------------------------------


def test_references_agree_with_textbook_values():
    from scipy.special import exp1

    q = inputs.TAIL_PROB
    assert reference.emse_constant(q) == pytest.approx(0.5 * exp1(-math.log1p(-q)), rel=1e-9)
    inv1, _ = reference.inverse_moments(q)
    assert inv1 == pytest.approx(2.0 * reference.emse_constant(q) / (1.0 - q), rel=1e-8)
    assert reference.sinc_pslr_db() == pytest.approx(-13.2615, abs=1e-4)


def test_sort_water_filling_meets_budget_at_one_level():
    g = reference.multipath_gains(64, 4, 1) * 0.1
    p = reference.water_filling(g, 64.0)
    live = p > 0
    assert p.sum() == pytest.approx(64.0, rel=1e-12)
    assert 0 < live.sum() < 64
    levels = p[live] + 1.0 / g[live]
    assert np.ptp(levels) < 1e-9 * levels.max()
    assert np.all(1.0 / g[~live] >= levels.max())


# --- image-point -------------------------------------------------------------------


def test_point_image_passes(point_out):
    db = checks.read_db_csv(point_out / "image_db.csv")
    checks.check_pgm(checks.read_pgm(point_out / "image.pgm"), db)
    pslr = checks.check_point_image(db, reference.sinc_pslr_db())
    assert abs(pslr - reference.sinc_pslr_db()) < 1.0


@pytest.mark.parametrize("axis, cells", [(0, 1), (0, -1), (1, 1), (1, -1)])
def test_peak_moved_by_one_cell_is_rejected(point_out, axis, cells):
    """One range cell is one sample; one azimuth cell is about 12 pulses."""
    pulses_per_cell = reference.azimuth_cell_pulses(
        inputs.CARRIER_FREQ, inputs.SLANT_RANGE, inputs.VELOCITY,
        inputs.APERTURE_TIME, inputs.PRF)
    shift = cells if axis == 0 else int(round(cells * pulses_per_cell))
    db = np.roll(checks.read_db_csv(point_out / "image_db.csv"), shift, axis=axis)
    with pytest.raises(CheckError, match="peak at"):
        checks.check_point_image(db, reference.sinc_pslr_db())


def test_high_sidelobe_is_rejected(point_out):
    db = checks.read_db_csv(point_out / "image_db.csv")
    db[32, 300] = -5.0
    with pytest.raises(CheckError, match="PSLR"):
        checks.check_point_image(db, reference.sinc_pslr_db())


def test_pgm_not_matching_its_csv_is_rejected(point_out):
    db = checks.read_db_csv(point_out / "image_db.csv")
    width, height, pixels = checks.read_pgm(point_out / "image.pgm")
    corrupted = pixels.copy()
    corrupted[1234] ^= 0x10
    with pytest.raises(CheckError, match="quantization"):
        checks.check_pgm((width, height, corrupted), db)


def test_focusing_efficiency_bounds():
    checks.check_focusing_efficiency(0.59)
    for bad in (0.45, 1.2):
        with pytest.raises(CheckError, match="efficiency"):
            checks.check_focusing_efficiency(bad)


# --- image-car ----------------------------------------------------------------------


def test_car_image_passes(car_out):
    db = checks.read_db_csv(car_out / "image_db.csv")
    checks.check_pgm(checks.read_pgm(car_out / "image.pgm"), db)
    assert checks.check_car_image(db) > 0.99


def test_car_image_with_nan_is_rejected(car_out):
    db = checks.read_db_csv(car_out / "image_db.csv")
    db[3, 3] = np.nan
    with pytest.raises(CheckError, match="non-finite"):
        checks.check_car_image(db)


def test_car_image_not_peaking_at_0_db_is_rejected(car_out):
    db = checks.read_db_csv(car_out / "image_db.csv") - 1.0
    with pytest.raises(CheckError, match="maximum"):
        checks.check_car_image(db)


def test_car_energy_outside_silhouette_is_rejected(car_out):
    db = checks.read_db_csv(car_out / "image_db.csv")
    db[2, :] = -3.0
    with pytest.raises(CheckError, match="energy"):
        checks.check_car_image(db)


# --- mse-sweep ----------------------------------------------------------------------


def _row(rows, design):
    return next(r for r in rows if r["design"] == design)


def test_mse_rows_pass(mse_rows, mse_expect):
    checks.check_mse_rows(mse_rows, mse_expect, inputs.MSE_SNR_DB)


def test_mse_empirical_row_off_by_10_percent_is_rejected(mse_rows, mse_expect):
    rows = copy.deepcopy(mse_rows)
    _row(rows, "constant-modulus uniform")["empirical_nmse"] *= 1.1
    with pytest.raises(CheckError, match="standard errors"):
        checks.check_mse_rows(rows, mse_expect, inputs.MSE_SNR_DB)


def test_mse_analytic_row_off_by_10_percent_is_rejected(mse_rows, mse_expect):
    rows = copy.deepcopy(mse_rows)
    _row(rows, "gaussian uniform")["analytic_nmse"] *= 1.1
    with pytest.raises(CheckError, match="closed form"):
        checks.check_mse_rows(rows, mse_expect, inputs.MSE_SNR_DB)


def test_mse_uniform_closed_form_is_checked_apart_from_the_moments(mse_rows, mse_expect):
    rows = copy.deepcopy(mse_rows)
    expect = dict(mse_expect)
    old = expect["constant-modulus uniform"]
    expect["constant-modulus uniform"] = checks.MseExpectation(
        old.analytic * 1.1, old.mean, old.stderr)
    _row(rows, "constant-modulus uniform")["analytic_nmse"] *= 1.1
    with pytest.raises(CheckError, match="uniform closed form"):
        checks.check_mse_rows(rows, expect, inputs.MSE_SNR_DB)


def test_mse_comm_optimal_below_uniform_is_rejected(mse_rows, mse_expect):
    rows = copy.deepcopy(mse_rows)
    expect = dict(mse_expect)
    uniform = _row(rows, "gaussian uniform")
    comm = _row(rows, "gaussian comm-optimal")
    comm["analytic_nmse"] = 0.9 * uniform["analytic_nmse"]
    comm["empirical_nmse"] = 0.9 * uniform["empirical_nmse"]
    u = expect["gaussian uniform"]
    expect["gaussian comm-optimal"] = checks.MseExpectation(
        comm["analytic_nmse"], 0.9 * u.mean, u.stderr)
    with pytest.raises(CheckError, match="AM-HM"):
        checks.check_mse_rows(rows, expect, inputs.MSE_SNR_DB)


def test_mse_infinite_row_without_a_dry_subcarrier_is_rejected(mse_rows, mse_expect):
    rows = copy.deepcopy(mse_rows)
    _row(rows, "gaussian comm-optimal")["analytic_nmse"] = math.inf
    with pytest.raises(CheckError, match="keeps every subcarrier"):
        checks.check_mse_rows(rows, mse_expect, inputs.MSE_SNR_DB)


def test_mse_missing_design_is_rejected(mse_rows, mse_expect):
    rows = [r for r in mse_rows if r["design"] != "gaussian comm-optimal"]
    with pytest.raises(CheckError, match="design rows"):
        checks.check_mse_rows(rows, mse_expect, inputs.MSE_SNR_DB)


# --- tradeoff -------------------------------------------------------------------------


def test_tradeoff_rows_pass(tradeoff):
    rows, ref = tradeoff
    checks.check_tradeoff_rows(rows, ref, inputs.TRADEOFF_POINTS)
    checks.check_convex_point(rows, ref, 6)


def test_tradeoff_row_with_decreasing_emse_is_rejected(tradeoff):
    rows, ref = copy.deepcopy(tradeoff[0]), tradeoff[1]
    rows[5]["emse"] = 0.9 * rows[4]["emse"]
    with pytest.raises(CheckError, match="EMSE decreases"):
        checks.check_tradeoff_rows(rows, ref, inputs.TRADEOFF_POINTS)


def test_tradeoff_grid_off_is_rejected(tradeoff):
    rows, ref = copy.deepcopy(tradeoff[0]), tradeoff[1]
    rows[3]["rate_floor"] += 0.01
    with pytest.raises(CheckError, match="grid value"):
        checks.check_tradeoff_rows(rows, ref, inputs.TRADEOFF_POINTS)


def test_tradeoff_uniform_endpoint_off_is_rejected(tradeoff):
    rows, ref = copy.deepcopy(tradeoff[0]), tradeoff[1]
    rows[0]["emse"] *= 0.99
    with pytest.raises(CheckError, match="zero-floor"):
        checks.check_tradeoff_rows(rows, ref, inputs.TRADEOFF_POINTS)


def test_tradeoff_capacity_endpoint_off_is_rejected(tradeoff):
    rows, ref = copy.deepcopy(tradeoff[0]), tradeoff[1]
    rows[-1]["rate_achieved"] *= 0.999
    with pytest.raises(CheckError, match="capacity-end rate"):
        checks.check_tradeoff_rows(rows, ref, inputs.TRADEOFF_POINTS)


def test_tradeoff_rate_below_floor_is_a_known_fault(tradeoff):
    rows, ref = copy.deepcopy(tradeoff[0]), tradeoff[1]
    rows[6]["rate_achieved"] = rows[6]["rate_floor"] - 1e-6
    with pytest.raises(KnownFault, match="below the floor"):
        checks.check_tradeoff_rows(rows, ref, inputs.TRADEOFF_POINTS)


def test_tradeoff_point_off_the_convex_optimum_is_rejected(tradeoff):
    rows, ref = copy.deepcopy(tradeoff[0]), tradeoff[1]
    rows[6]["emse"] *= 1.001
    with pytest.raises(CheckError, match="SQP"):
        checks.check_convex_point(rows, ref, 6)
