"""The package names and the symbol law the benchmark harness relies on still hold.

``perfbench/tracer.py`` wraps package functions by module attribute, and
``perfbench/checks.py`` runs a library pass of its own, which must image with
the symbol law of the ``simulate`` runs it checks; a rename in the package
would break ``--trace 1`` or the image-point checks without failing any other
test.  ``perfbench/reference.py`` computes the MSE checks' expected values
under the Gaussian law |S_k|^2 = 2 P_k T; a change of the package's law must
move it in the same change.  ``checks.read_db_csv`` parses every
``image_db.csv``, so a writer change it cannot parse must fail here, not end
the benchmark run.  The benchmark checks one interior tradeoff point per run
against an SQP solve; every sweep of its round, and every binding point of
each, is checked here, so a solver change it would refuse fails here first.
Likewise the car images of image-car's short round must pass its image
checks, so a synthesis change it would refuse fails here first.
These files are read here, never edited.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ofdmsar import (
    ChannelGains,
    Geometry,
    PowerAllocation,
    TruncationPolicy,
    echo,
    form_image,
    metrics,
    scenes,
    synthesize_raw,
)
from ofdmsar.cli import EXIT_OK, run
from ofdmsar.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """``perfbench/<name>.py`` as a module of its own, outside any package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look their module up
    spec.loader.exec_module(module)  # the tracer needs the stdlib, the reference scipy
    return module


@pytest.mark.parametrize("module, attr, name", load("tracer").TARGETS)
def test_tracer_targets_are_callable(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr))


def count_tracer_targets(monkeypatch) -> dict:
    """Span name -> calls, counted at the tracer's own module attributes."""
    counts = {}

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attr, name in load("tracer").TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counted(getattr(module, attr), name))
    return counts


@pytest.mark.parametrize("prf", [800.0, 100.0])
def test_form_image_calls_each_stage_where_the_tracer_wraps_it(monkeypatch, spec64, prf):
    # Each synthesis and LS stage once a pulse block, the whole-image stages
    # once, the one-block forms never.
    counts = count_tracer_targets(monkeypatch)
    geom = Geometry(np.sqrt(2.0) * 1000.0, 40.0, 9e9, prf, 1.0)
    alloc = PowerAllocation.uniform(64, 64.0)
    form_image(spec64, geom, scenes.point_scene(spec64), alloc, 0.03, 1, TruncationPolicy())
    blocks = math.ceil(geom.n_pulses / (echo._BLOCK_CELLS // 64))
    assert blocks == (7 if prf == 800.0 else 1)
    assert counts == {
        "geometry.scene_coefficients": 1, "echo.pulse_rng": 2,
        "waveform.draw_symbols": blocks, "echo.synthesize_pulse": blocks,
        "rangeproc.ls_estimate": blocks,
        "azimuth.rcmc_bulk": 1, "azimuth.azimuth_compress": 1,
    }


def test_mse_vs_snr_draws_where_the_tracer_wraps_it(monkeypatch, spec64):
    # 300 trials: blocks of 128, 128 and 44, each drawn once and estimated once
    # per design.  The sweep scores each estimate in the subcarrier domain by
    # ``ls_spectrum``, which no tracer target wraps, and calls no ``ls_estimate``:
    # so a traced mse-sweep reads 0 in the rangeproc.ls_estimate span.
    counts = count_tracer_targets(monkeypatch)
    scored, ls_spectrum = [], metrics.ls_spectrum
    monkeypatch.setattr(metrics, "ls_spectrum", lambda *a: scored.append(a) or ls_spectrum(*a))
    metrics.mse_vs_snr(spec64, ChannelGains(np.ones(64)), [10.0], 300, seed=0)  # as cli calls it
    assert counts == {
        "metrics.mse_vs_snr": 1, "allocation.water_filling": 1, "echo.pulse_rng": 2,
        "waveform.draw_symbols": 3,
    }
    assert len(scored) == 9


def run_end_of_point_checks() -> ast.FunctionDef:
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PointChecks")
    return next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "run_end")


def package_names(fn: ast.FunctionDef) -> dict:
    """Local name -> object for each ``from ofdmsar... import`` in ``fn``."""
    names = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("ofdmsar"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def resolve(node, names):
    """The package object a ``name.attr.attr`` chain refers to, else None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = resolve(node.value, names)
        if base is not None:
            assert hasattr(base, node.attr), f"{ast.unparse(node)} does not resolve"
            return getattr(base, node.attr)
    return None


def test_point_checks_calls_resolve_and_bind():
    fn = run_end_of_point_checks()
    names = package_names(fn)
    assert {"echo", "rangeproc", "azimuth", "load_config"} <= set(names)
    calls = 0
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            target = resolve(node.func, names)
            if target is None:
                continue
            assert callable(target), ast.unparse(node.func)
            keywords = {kw.arg: None for kw in node.keywords}
            inspect.signature(target).bind(*[None] * len(node.args), **keywords)
            calls += 1
    assert calls >= 6


def test_point_checks_pass_draws_the_simulate_law():
    # run_end's noise-free pass calls synthesize_raw with six positional
    # arguments on image-point's config; its cube must be the one ``simulate``
    # draws, which passes the config's symbol law, constant modulus here.
    call = next(n for n in ast.walk(run_end_of_point_checks())
                if isinstance(n, ast.Call) and ast.unparse(n.func) == "echo.synthesize_raw")
    assert len(call.args) == 6 and not call.keywords
    cfg = parse_config(load("inputs")._config_text("image-point"))
    spec, geom = cfg.waveform_spec(), cfg.geometry()
    scene = scenes.make_scene(cfg.scene, spec, cfg.scene_azimuth)
    alloc = PowerAllocation.uniform(spec.n_subcarriers, spec.power_budget)
    args = (spec, geom, scene, alloc, 0.0, 7)
    bench, simulate = synthesize_raw(*args), synthesize_raw(*args, cfg.symbol_law())
    np.testing.assert_array_equal(bench[1], simulate[1])  # the symbols
    np.testing.assert_array_equal(bench[0], simulate[0])  # the spectrum
    np.testing.assert_allclose(np.abs(bench[1]), 1.0, rtol=1e-12)


@pytest.mark.parametrize("q", [1e-3, 0.05, 0.5])
def test_gaussian_law_is_the_reference_law(q):
    # The package's A and its |S_k|^2 / (2 P_k) = t0 - ln(1 - u) both match the
    # benchmark's reference, which derives them apart from the package.
    reference = load("reference")
    policy = TruncationPolicy(q)
    assert policy.A == pytest.approx(reference.emse_constant(q), rel=1e-9)
    u = np.linspace(0.0, 0.999, 1000)
    powers = np.linspace(0.1, 10.0, u.size)
    t = policy.magnitudes(powers, u) ** 2 / (2.0 * powers)
    np.testing.assert_allclose(t, reference.truncation_point(q) - np.log1p(-u), rtol=1e-12)


@pytest.mark.parametrize("scene_cfg", ["scene = point\n", "scene = car\nsignaling = gaussian\n"])
def test_benchmark_reader_parses_simulate_images(tmp_path, monkeypatch, scene_cfg):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks.py imports inputs and reference
    checks = load("checks")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_subcarriers = 16\nprf = 64\n" + scene_cfg)
    out = tmp_path / "run"
    assert run(["--config", str(cfg), "--seed", "3", "--out", str(out), "simulate"]) == EXIT_OK
    db = checks.read_db_csv(out / "image_db.csv")
    assert db.shape == (16, 64) and db.max() == 0.0
    checks.check_pgm(checks.read_pgm(out / "image.pgm"), db)


@pytest.mark.parametrize("seed", [0, 12])
def test_benchmark_checks_pass_car_images(tmp_path, monkeypatch, seed):
    # image-car's short round, on the benchmark's own config: the default
    # geometry, the car scene and Gaussian symbols.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks.py imports inputs and reference
    checks, inputs = load("checks"), load("inputs")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(inputs._config_text("image-car"))
    out = tmp_path / "run"
    assert run(["--config", str(cfg), "--seed", str(seed), "--out", str(out), "simulate"]) == EXIT_OK
    db = checks.read_db_csv(out / "image_db.csv")
    assert db.shape == (inputs.N_SUBCARRIERS, inputs.N_PULSES)
    checks.check_pgm(checks.read_pgm(out / "image.pgm"), db)
    assert checks.check_car_image(db) >= checks.CAR_ROW_SHARE


@pytest.mark.parametrize("channel_seed", range(8))
def test_benchmark_checks_pass_every_tradeoff_sweep(tmp_path, monkeypatch, channel_seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks.py imports inputs and reference
    checks, inputs = load("checks"), load("inputs")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(inputs._config_text("tradeoff", channel_seed))
    out = tmp_path / "run"
    argv = ["--config", str(cfg), "--out", str(out), "tradeoff",
            "--snr-db", repr(inputs.TRADEOFF_SNR_DB), "--points", str(inputs.TRADEOFF_POINTS)]
    assert run(argv) == EXIT_OK
    rows = checks.read_table(out / "tradeoff.csv")
    ref = checks.tradeoff_reference(channel_seed)
    checks.check_tradeoff_rows(rows, ref, inputs.TRADEOFF_POINTS)
    for i in range(1, len(rows) - 1):
        if rows[i]["rate_floor"] > rows[0]["rate_achieved"]:  # the floor binds
            checks.check_convex_point(rows, ref, i)


def test_benchmark_checks_pass_point_images(tmp_path, monkeypatch):
    # image-point on the benchmark's own config: each image's checks at two seeds,
    # then the once-a-run noise-free library pass, which builds the point scene at
    # scene_azimuth and the geometry through the package's own calls.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks.py imports inputs and reference
    checks, inputs, reference = load("checks"), load("inputs"), load("reference")
    cfg = tmp_path / "workload.cfg"
    cfg.write_text(inputs._config_text("image-point"))
    for seed in (0, 7):
        out = tmp_path / f"run{seed}"
        assert run(["--config", str(cfg), "--seed", str(seed), "--out", str(out),
                    "simulate"]) == EXIT_OK
        db = checks.read_db_csv(out / "image_db.csv")
        checks.check_pgm(checks.read_pgm(out / "image.pgm"), db)
        checks.check_point_image(db, reference.sinc_pslr_db())
    plan = inputs.Plan("image-point", 3, tmp_path, (), lambda index: ())
    figures = checks.PointChecks(plan).run_end()
    assert figures["focusing_efficiency"] == pytest.approx(0.594, abs=5e-4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_checks_pass_mse_sweeps(tmp_path, monkeypatch, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks.py imports inputs and reference
    checks, inputs = load("checks"), load("inputs")
    cfg = tmp_path / "workload.cfg"
    cfg.write_text(inputs._config_text("mse-sweep"))
    out = tmp_path / "run"
    assert run(["--config", str(cfg), "--seed", str(seed), "--out", str(out),
                "mse-sweep"]) == EXIT_OK
    expect = checks.mse_expectations(inputs.MSE_SNR_DB, inputs.MSE_TRIALS)
    checks.check_mse_rows(checks.read_table(out / "mse_sweep.csv"), expect, inputs.MSE_SNR_DB)
