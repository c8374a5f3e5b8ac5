"""Checks of every completed operation's outputs, and once-per-run checks.

A ``CheckError`` means an output is wrong and fails the run. A ``KnownFault``
means the output shows a fault of the program named in the benchmark's
README; the operation then counts as failed and is left out of every timing.
The check functions take parsed outputs and reference values, so the tests
can hand them corrupted outputs directly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import reference

#: Allowed distance of the azimuth-cut PSLR from the sinc value. Receiver
#: noise at 15 dB spreads it over -13.8..-12.3 dB (300 seeds, std 0.27 dB).
PSLR_TOL_DB = 2.0
#: Least share of car-image energy inside the silhouette's range rows.
CAR_ROW_SHARE = 0.99
#: Monte Carlo standard errors an empirical MSE may lie from its expectation.
MSE_Z = 5.0
#: Relative tolerance of a closed form or endpoint the library also computes.
CLOSED_FORM_RTOL = 1e-9
#: The rate-constrained solver's own stopping tolerance (its ``tol``).
SOLVER_TOL = 1e-8
#: Agreement of the library's EMSE with the independent SQP solve.
CONVEX_RTOL = 1e-5

MSE_DESIGNS = {
    "constant-modulus uniform": ("constant-modulus", "uniform"),
    "gaussian uniform": ("gaussian", "uniform"),
    "gaussian imaging-optimal": ("gaussian", "uniform"),
    "gaussian comm-optimal": ("gaussian", "water-filling"),
}
REQUIRED_DESIGNS = {"constant-modulus uniform", "gaussian uniform", "gaussian comm-optimal"}


class CheckError(Exception):
    """An output is wrong."""


class KnownFault(Exception):
    """An output shows a known fault of the program."""


# --- readers ----------------------------------------------------------------


def read_db_csv(path: Path) -> np.ndarray:
    lines = Path(path).read_text().split()
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def read_pgm(path: Path) -> tuple[int, int, np.ndarray]:
    magic, size, maxval, payload = Path(path).read_bytes().split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise CheckError(f"{path}: not an 8-bit binary PGM")
    width, height = (int(v) for v in size.split())
    return width, height, np.frombuffer(payload, dtype=np.uint8)


def read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            if key != "design":
                row[key] = float(value)
    return rows


def _close(value: float, expected: float, rtol: float) -> bool:
    if math.isinf(expected) or math.isinf(value):
        return value == expected
    return abs(value - expected) <= rtol * abs(expected)


# --- image checks -------------------------------------------------------------


def check_pgm(pgm: tuple[int, int, np.ndarray], db: np.ndarray) -> None:
    width, height, pixels = pgm
    if (height, width) != db.shape or pixels.size != db.size:
        raise CheckError(f"image.pgm is {height}x{width}, image_db.csv is {db.shape}")
    if not np.array_equal(pixels.reshape(db.shape), reference.pgm_pixels(db)):
        raise CheckError("image.pgm differs from the quantization of image_db.csv")


def check_point_image(db: np.ndarray, sinc_db: float) -> float:
    """Peak at the swath and aperture centre, sinc-like azimuth sidelobes.

    The range peak must sit on the centre cell. The azimuth response is
    oversampled, about 12 pulses per resolution cell, and receiver noise moves
    its flat top by a pulse, so the azimuth peak must lie within half a cell.
    """
    n, n_pulses = inputs.N_SUBCARRIERS, inputs.N_PULSES
    if db.shape != (n, n_pulses):
        raise CheckError(f"image is {db.shape}, expected {(n, n_pulses)}")
    row, col = np.unravel_index(int(np.argmax(db)), db.shape)
    half_cell = 0.5 * reference.azimuth_cell_pulses(
        inputs.CARRIER_FREQ, inputs.SLANT_RANGE, inputs.VELOCITY,
        inputs.APERTURE_TIME, inputs.PRF)
    if row != n // 2 or abs(col - n_pulses // 2) > half_cell:
        raise CheckError(f"peak at range cell {row}, pulse {col}; expected cell {n // 2} "
                         f"within {half_cell:.1f} pulses of pulse {n_pulses // 2}")
    pslr = reference.peak_sidelobe_db(10.0 ** (db[row] / 10.0))
    if abs(pslr - sinc_db) > PSLR_TOL_DB:
        raise CheckError(f"azimuth PSLR {pslr:.2f} dB, sinc value {sinc_db:.2f} dB")
    return pslr


def check_focusing_efficiency(efficiency: float) -> None:
    """|peak| / n_pulses of a noise-free unit scatterer lies in (0.5, 1]."""
    if not 0.5 < efficiency <= 1.0 + 1e-9:
        raise CheckError(f"noise-free focusing efficiency {efficiency:.4f} outside (0.5, 1]")


def check_car_image(db: np.ndarray) -> float:
    """Finite raster peaking at 0 dB, energy inside the silhouette's rows."""
    if not np.all(np.isfinite(db)):
        raise CheckError("car image has non-finite values")
    if db.max() != 0.0:
        raise CheckError(f"car image maximum is {db.max()} dB, expected 0")
    first, stop = reference.silhouette_rows(db.shape[0])
    energy = 10.0 ** (db / 10.0)
    share = float(energy[first:stop].sum() / energy.sum())
    if share < CAR_ROW_SHARE:
        raise CheckError(f"{share:.4f} of car-image energy in rows {first}..{stop - 1}")
    return share


# --- mse-sweep checks ---------------------------------------------------------


@dataclass(frozen=True)
class MseExpectation:
    analytic: float  # the closed form the library should print
    mean: float  # expectation of the empirical MSE
    stderr: float  # its Monte Carlo standard error


def mse_expectations(snr_db: float, trials: int) -> dict[str, MseExpectation]:
    """Closed forms and Monte Carlo moments of every default design."""
    n, total, q = inputs.N_SUBCARRIERS, inputs.POWER_BUDGET, inputs.TAIL_PROB
    sigma2 = reference.noise_power(total, n, snr_db)
    a = reference.emse_constant(q)
    inv1, inv2 = reference.inverse_moments(q)
    gains = reference.multipath_gains(n, inputs.CHANNEL_TAPS, inputs.MSE_CHANNEL_SEED) / sigma2
    out = {}
    for label, (signaling, rule) in MSE_DESIGNS.items():
        p = np.full(n, total / n) if rule == "uniform" else reference.water_filling(gains, total)
        if np.any(p == 0.0):
            out[label] = MseExpectation(math.inf, math.inf, 0.0)
            continue
        if signaling == "constant-modulus":
            analytic = sigma2 * float(np.sum(1.0 / p))
            var = sigma2**2 * float(np.sum(1.0 / p**2))
            mean = analytic
        else:
            # |S|^2 = 2 P T, so 1/|S|^2 has moments inv1/(2P) and inv2/(4P^2);
            # the noise term |W_k|^2 / (N sigma^2) is Exp(1), second moment 2.
            analytic = a * sigma2 * float(np.sum(1.0 / p))
            mean = sigma2 * float(np.sum(inv1 / (2.0 * p)))
            var = sigma2**2 * float(np.sum(2.0 * inv2 / (4.0 * p**2) - (inv1 / (2.0 * p)) ** 2))
        out[label] = MseExpectation(analytic, mean, math.sqrt(var / trials))
    return out


def check_mse_rows(rows: list[dict], expect: dict[str, MseExpectation], snr_db: float) -> None:
    designs = {row["design"] for row in rows}
    if len(designs) != len(rows) or not REQUIRED_DESIGNS <= designs <= set(MSE_DESIGNS):
        raise CheckError(f"unexpected design rows {sorted(designs)}")
    n, total, q = inputs.N_SUBCARRIERS, inputs.POWER_BUDGET, inputs.TAIL_PROB
    sigma2 = reference.noise_power(total, n, snr_db)
    uniform = {
        "constant-modulus uniform": reference.uniform_cm_mse(sigma2, n, total),
        "gaussian uniform": reference.uniform_emse(reference.emse_constant(q), sigma2, n, total),
    }
    for row in rows:
        label, exp = row["design"], expect[row["design"]]
        if row["snr_db"] != snr_db:
            raise CheckError(f"{label}: SNR {row['snr_db']}, expected {snr_db}")
        for key in ("analytic_nmse", "empirical_nmse"):
            if math.isinf(row[key]) != math.isinf(exp.analytic):
                raise CheckError(f"{label}: {key} = {row[key]} but the reference "
                                 f"water-filling {'dries' if math.isinf(exp.analytic) else 'keeps'}"
                                 " every subcarrier")
        if math.isinf(exp.analytic):
            continue
        if not _close(row["analytic_nmse"], exp.analytic, CLOSED_FORM_RTOL):
            raise CheckError(f"{label}: analytic {row['analytic_nmse']!r}, "
                             f"closed form {exp.analytic!r}")
        if label in uniform and not _close(row["analytic_nmse"], uniform[label], CLOSED_FORM_RTOL):
            raise CheckError(f"{label}: analytic {row['analytic_nmse']!r}, "
                             f"uniform closed form {uniform[label]!r}")
        z = (row["empirical_nmse"] - exp.mean) / exp.stderr
        if abs(z) > MSE_Z:
            ratio = row["empirical_nmse"] / row["analytic_nmse"]
            raise CheckError(f"{label}: empirical/analytic {ratio:.4f} is {z:+.1f} "
                             "standard errors from its expectation")
    by_label = {row["design"]: row["analytic_nmse"] for row in rows}
    if by_label["gaussian comm-optimal"] < by_label["gaussian uniform"]:
        raise CheckError("comm-optimal EMSE below the uniform one, against AM-HM")


# --- tradeoff checks ----------------------------------------------------------


@dataclass(frozen=True)
class TradeoffReference:
    gains: np.ndarray  # effective gains |h|^2 / sigma^2
    capacity: float
    uniform_emse: float
    capacity_emse: float  # inf when water-filling dries a subcarrier
    a: float
    sigma2: float


def tradeoff_reference(channel_seed: int) -> TradeoffReference:
    n, total, q = inputs.N_SUBCARRIERS, inputs.POWER_BUDGET, inputs.TAIL_PROB
    sigma2 = reference.noise_power(total, n, inputs.TRADEOFF_SNR_DB)
    gains = reference.multipath_gains(n, inputs.CHANNEL_TAPS, channel_seed) / sigma2
    wf = reference.water_filling(gains, total)
    a = reference.emse_constant(q)
    with np.errstate(divide="ignore"):
        capacity_emse = a * sigma2 * float(np.sum(1.0 / wf))
    return TradeoffReference(
        gains, reference.rate_bits(wf, gains),
        reference.uniform_emse(a, sigma2, n, total), capacity_emse, a, sigma2,
    )


def check_tradeoff_rows(rows: list[dict], ref: TradeoffReference, n_points: int) -> None:
    """Grid, monotone EMSE and endpoints; then the rate floor (a known fault)."""
    if len(rows) != n_points:
        raise CheckError(f"{len(rows)} tradeoff rows, expected {n_points}")
    grid = np.linspace(0.0, ref.capacity, n_points)
    for row, floor in zip(rows, grid):
        if abs(row["rate_floor"] - floor) > CLOSED_FORM_RTOL * ref.capacity:
            raise CheckError(f"rate floor {row['rate_floor']!r}, grid value {floor!r}")
    emse = [row["emse"] for row in rows]
    for i in range(1, n_points):
        if emse[i] < emse[i - 1] * (1.0 - 1e-12):
            raise CheckError(f"EMSE decreases from {emse[i - 1]!r} to {emse[i]!r} "
                             f"at grid point {i}")
    if not _close(emse[0], ref.uniform_emse, CLOSED_FORM_RTOL):
        raise CheckError(f"zero-floor EMSE {emse[0]!r}, uniform closed form {ref.uniform_emse!r}")
    last = rows[-1]
    if not _close(last["rate_achieved"], ref.capacity, CLOSED_FORM_RTOL):
        raise CheckError(f"capacity-end rate {last['rate_achieved']!r}, "
                         f"water-filling capacity {ref.capacity!r}")
    if not _close(last["emse"], ref.capacity_emse, 1e-6):
        raise CheckError(f"capacity-end EMSE {last['emse']!r}, "
                         f"water-filling EMSE {ref.capacity_emse!r}")
    for i, row in enumerate(rows):
        short = row["rate_floor"] - row["rate_achieved"]
        if short > SOLVER_TOL * max(1.0, row["rate_floor"]):
            raise KnownFault(f"grid point {i}: rate {row['rate_achieved']!r} is "
                             f"{short:.3g} bits below the floor {row['rate_floor']!r}")


def check_convex_point(rows: list[dict], ref: TradeoffReference, index: int) -> float:
    """The library's EMSE at one interior point matches an SQP solve."""
    total = inputs.POWER_BUDGET
    floor = rows[index]["rate_floor"]
    p = reference.emse_convex(ref.gains, total, floor)
    if (abs(p.sum() - total) > 1e-8 * total
            or reference.rate_bits(p, ref.gains) < floor - 1e-6 * max(1.0, floor)):
        raise CheckError(f"the reference SQP solve at rate floor {floor!r} is infeasible")
    expected = ref.a * ref.sigma2 * float(np.sum(1.0 / p))
    if not _close(rows[index]["emse"], expected, CONVEX_RTOL):
        raise CheckError(f"EMSE {rows[index]['emse']!r} at grid point {index}, "
                         f"SQP solve gives {expected!r}")
    return expected


# --- per-workload glue ----------------------------------------------------------


class PointChecks:
    """image-point: every image, plus one noise-free library pass per run."""

    def __init__(self, plan: inputs.Plan):
        self.plan = plan
        self.sinc_db = reference.sinc_pslr_db()
        self.figures = {}

    def op(self, op: inputs.Op, outdir: Path) -> None:
        db = read_db_csv(outdir / "image_db.csv")
        check_pgm(read_pgm(outdir / "image.pgm"), db)
        self.figures["azimuth_pslr_db"] = check_point_image(db, self.sinc_db)

    def run_end(self) -> dict:
        from ofdmsar import allocation, azimuth, echo, rangeproc, scenes
        from ofdmsar.config import load_config

        cfg = load_config(self.plan.workdir / "workload.cfg")
        spec, geom = cfg.waveform_spec(), cfg.geometry()
        scene = scenes.make_scene("point", spec, cfg.scene_azimuth)
        alloc = allocation.PowerAllocation.uniform(spec.n_subcarriers, spec.power_budget)
        cube = echo.synthesize_raw(spec, geom, scene, alloc, 0.0, self.plan.seed)
        profiles = azimuth.rcmc_bulk(rangeproc.range_profile_cube(cube), geom,
                                     scene.range_cell_size)
        image = azimuth.azimuth_compress(profiles, geom)
        efficiency = float(np.abs(image.complex_image).max() / geom.n_pulses)
        check_focusing_efficiency(efficiency)
        self.figures["focusing_efficiency"] = efficiency
        return self.figures


class CarChecks:
    def __init__(self, plan: inputs.Plan):
        self.figures = {}

    def op(self, op: inputs.Op, outdir: Path) -> None:
        db = read_db_csv(outdir / "image_db.csv")
        check_pgm(read_pgm(outdir / "image.pgm"), db)
        self.figures["silhouette_row_share"] = check_car_image(db)

    def run_end(self) -> dict:
        return self.figures


class MseChecks:
    def __init__(self, plan: inputs.Plan):
        self.expect = mse_expectations(inputs.MSE_SNR_DB, inputs.MSE_TRIALS)

    def op(self, op: inputs.Op, outdir: Path) -> None:
        check_mse_rows(read_table(outdir / "mse_sweep.csv"), self.expect, inputs.MSE_SNR_DB)

    def run_end(self) -> dict:
        return {}


class TradeoffChecks:
    """tradeoff: every sweep, plus one interior point against SQP per run."""

    def __init__(self, plan: inputs.Plan):
        self.plan = plan
        self.refs = {}
        self.solved = None  # (rows, reference) of the first sweep that passed

    def op(self, op: inputs.Op, outdir: Path) -> None:
        if op.key not in self.refs:
            self.refs[op.key] = tradeoff_reference(op.key)
        rows = read_table(outdir / "tradeoff.csv")
        check_tradeoff_rows(rows, self.refs[op.key], op.units)
        if self.solved is None:
            self.solved = (rows, self.refs[op.key])

    def run_end(self) -> dict:
        if self.solved is None:
            raise CheckError("no tradeoff sweep completed")
        rows, ref = self.solved
        # Interior points where the rate floor binds; at the others the
        # optimum is the uniform allocation already checked at the zero floor.
        binding = [i for i in range(1, len(rows) - 1)
                   if rows[i]["rate_floor"] > rows[0]["rate_achieved"]]
        if not binding:
            raise CheckError("no interior tradeoff point has a binding rate floor")
        index = binding[self.plan.seed % len(binding)]
        return {"sqp_point": index, "sqp_emse": check_convex_point(rows, ref, index)}


CHECKS = {
    "image-point": PointChecks,
    "image-car": CarChecks,
    "mse-sweep": MseChecks,
    "tradeoff": TradeoffChecks,
}
