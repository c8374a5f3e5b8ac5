import csv
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import ofdmsar
from ofdmsar import cli
from ofdmsar.allocation import ConstantModulus, TruncationPolicy
from ofdmsar.cli import EXIT_IO, EXIT_OK, run
from ofdmsar.config import Config, load_config, parse_config
from ofdmsar.errors import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    ConfigError,
    DimensionError,
    IllConditionedWaveformError,
    InfeasibleChannelError,
    InfeasibleRateError,
    NoPeakError,
    SceneFormatError,
)
from ofdmsar.geometry import Geometry
from ofdmsar.waveform import WaveformSpec

ROOT = Path(__file__).resolve().parents[1]

SMALL_CFG = """\
n_subcarriers = 8
bandwidth = 1.5e9
prf = 8
aperture_time = 1.0
trials = 100
snr_grid = 0,10
tradeoff_points = 5
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


COMMANDS = ("allocate", "simulate", "mse-sweep", "tradeoff", "scene-gen")


def assert_one_line_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    return err


def run_traced(argv):
    """Exit code of ``run(argv)`` and the peak bytes ``tracemalloc`` saw it hold."""
    tracemalloc.start()
    try:
        return run(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: SNRs in dB whose noise power is 0: infinity, and one beyond the float range.
NOISE_FREE_SNRS = ("inf", "1e400")


# Runs in a fresh interpreter where importing scipy fails, as if it were not
# installed: every subcommand must still work.
NO_SCIPY_RUN = """\
import sys
from importlib.abc import MetaPathFinder


class BlockScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import ofdmsar.cli

cfg, out = sys.argv[1:]
for argv in (
    ["allocate", "--rate-target", "capacity"],
    ["tradeoff"],
    ["mse-sweep"],
    ["simulate"],
    ["scene-gen"],
):
    code = ofdmsar.cli.run(["--config", cfg, "--out", out, *argv])
    print("exit", argv[0], code, file=sys.stderr)
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # The runtime needs numpy alone; scipy serves only the tests.
    src = str(Path(ofdmsar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, ofdmsar.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"

    cfg = tmp_path / "mp.cfg"
    cfg.write_text("n_subcarriers = 16\nchannel = multipath\ntrials = 100\n")
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    exits = [line.split() for line in proc.stderr.splitlines()]
    assert exits == [
        ["exit", cmd, "0"]
        for cmd in ("allocate", "tradeoff", "mse-sweep", "simulate", "scene-gen")
    ], proc.stderr


def raising(exc):
    def stage(*args, **kwargs):
        raise exc
    return stage


#: Each error a user's input can cause, with the exit code and kind it ends a run with.
REPORTED = [
    (ConfigError("bad key"), EXIT_CONFIG, "config"),
    (SceneFormatError("bad row"), EXIT_IO, "io"),
    (InfeasibleChannelError("all channel gains are zero"), EXIT_INFEASIBLE, "infeasible"),
    (InfeasibleRateError(2.0, 1.0), EXIT_INFEASIBLE, "infeasible"),
    (IllConditionedWaveformError(3, 1e-9, 1e-6), EXIT_INFEASIBLE, "infeasible"),
]


class TestExitContract:
    @pytest.mark.parametrize("exc, code, kind", REPORTED,
                             ids=[type(e).__name__ for e, _, _ in REPORTED])
    def test_reported_error_ends_the_run_with_its_code(self, tmp_path, capsys, monkeypatch,
                                                       exc, code, kind):
        assert (exc.exit_code, exc.kind) == (code, kind)
        monkeypatch.setattr(cli, "write_table_csv", raising(exc))
        assert run(["--out", str(tmp_path), "allocate"]) == code
        assert capsys.readouterr().err == f"error: {kind}: {exc}\n"

    @pytest.mark.parametrize(
        "fault", [ValueError("bug"), DimensionError("bug"), NoPeakError("bug"), RuntimeError("bug")],
        ids=lambda e: type(e).__name__,
    )
    def test_fault_propagates(self, tmp_path, capsys, monkeypatch, fault):
        # A fault is not a user's mistake: it ends in a traceback, not in exit 2.
        monkeypatch.setattr(cli, "write_table_csv", raising(fault))
        with pytest.raises(type(fault)) as caught:
            run(["--out", str(tmp_path), "allocate"])
        assert caught.value is fault
        assert capsys.readouterr().err == ""


class TestAllocate:
    def test_default_writes_allocation(self, tmp_path, capsys):
        code = run(["--out", str(tmp_path), "allocate"])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "allocation.csv")
        assert rows[0] == ["k", "P_k", "g_k"]
        assert len(rows) == 65
        assert all(r[1] == "1.0" for r in rows[1:])  # a plain float repr per power
        out = capsys.readouterr().out
        assert "seed = 0" in out
        assert "emse = " in out
        assert "rate_bits_scaled_by_bandwidth = " in out

    @pytest.mark.parametrize("config, argv", [
        ((ROOT / "configs" / "default.cfg").read_text(), []),
        ("channel = multipath\nchannel_seed = 5\n", ["--snr-db", "-10"]),
    ], ids=["default", "multipath-5-at--10dB"])
    def test_no_rate_target_is_the_zero_floor(self, tmp_path, capsys, config, argv):
        # With no flag the floor is 0, which the uniform allocation meets first.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)

        def outputs(*flag):
            assert run(["--config", str(cfg), "--out", str(tmp_path), "allocate", *argv,
                        *flag]) == EXIT_OK
            return capsys.readouterr().out, (tmp_path / "allocation.csv").read_bytes()

        out, csv_bytes = outputs()
        assert outputs("--rate-target", "0") == (out, csv_bytes)
        assert {row[1] for row in read_csv(tmp_path / "allocation.csv")[1:]} == {"1.0"}

    def test_rate_target_capacity(self, tmp_path, capsys):
        code = run(["--out", str(tmp_path), "allocate", "--rate-target", "capacity"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        cap = float(next(l for l in out.splitlines() if l.startswith("capacity_bits")).split("=")[1])
        rate = float(next(l for l in out.splitlines() if l.startswith("rate_bits =")).split("=")[1])
        assert rate == pytest.approx(cap, rel=1e-6)

    def test_infeasible_rate_exit_code(self, tmp_path, capsys):
        code = run(["--out", str(tmp_path), "allocate", "--rate-target", "1e9"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_infinite_rate_target_infeasible(self, tmp_path, capsys):
        code = run(["--out", str(tmp_path), "allocate", "--rate-target", "inf"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_nan_rate_target_config_error(self, tmp_path, capsys):
        # Both reached the solver's own check, whose message named no flag.
        for target in ("nan", "-inf"):
            code = run(["--out", str(tmp_path), "allocate", f"--rate-target={target}"])
            assert code == EXIT_CONFIG
            err = assert_one_line_config_error(capsys)
            assert "--rate-target" in err and repr(target) in err
            assert not (tmp_path / "allocation.csv").exists()

    def test_non_number_rate_target_names_the_flag(self, tmp_path, capsys):
        code = run(["--out", str(tmp_path), "allocate", "--rate-target", "abc"])
        assert code == EXIT_CONFIG
        err = assert_one_line_config_error(capsys)
        assert "--rate-target" in err and "capacity" in err and "'abc'" in err
        assert not (tmp_path / "allocation.csv").exists()

    def test_infinite_snr_config_error(self, tmp_path, capsys):
        # Noise power 0 leaves the channel gains undefined.
        for snr in NOISE_FREE_SNRS:
            code = run(["--out", str(tmp_path), "allocate", "--snr-db", snr])
            assert code == EXIT_CONFIG
            err = assert_one_line_config_error(capsys)
            assert "snr_db holds inf dB, which leaves no noise" in err
            assert not (tmp_path / "allocation.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("budget", ["8e-300", "8e99"])
    def test_rate_constrained_powers_scale_with_the_budget(self, tmp_path, capsys, budget):
        # The solver runs in units of P/N.  In absolute units its starting
        # multiplier A (N/P)^2 overflowed at 8e-300, and at 8e99 Newton found
        # no descending step.
        def powers(budget):
            cfg = tmp_path / "mp.cfg"
            cfg.write_text(f"n_subcarriers = 8\npower_budget = {budget}\nchannel = multipath\n"
                           "snr_db = -10\n")
            out = tmp_path / budget
            argv = ["--config", str(cfg), "--out", str(out), "allocate", "--rate-target=1.5"]
            assert run(argv) == EXIT_OK
            return np.array([float(r[1]) for r in read_csv(out / "allocation.csv")[1:]])

        scale = float(budget) / 8.0
        np.testing.assert_allclose(powers(budget) / scale, powers("8"), rtol=1e-12)

    def test_selective_channel_config(self, tmp_path):
        cfg = tmp_path / "mp.cfg"
        cfg.write_text("channel = multipath\nchannel_taps = 3\n")
        code = run(
            ["--config", str(cfg), "--out", str(tmp_path), "allocate",
             "--rate-target", "10.0"]
        )
        assert code == EXIT_OK


class TestConfigErrors:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_subcariers = 64\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path), "allocate"]) == EXIT_CONFIG
        assert "unknown key" in capsys.readouterr().err

    def test_altitude_is_an_unknown_key(self, tmp_path, capsys):
        # The strip-map model reads only the closest-approach range slant_range_center.
        cfg = tmp_path / "alt.cfg"
        cfg.write_text("altitude = 1000\n")
        out = tmp_path / "run"
        assert run(["--config", str(cfg), "--out", str(out), "simulate"]) == EXIT_CONFIG
        assert "unknown key 'altitude'" in assert_one_line_config_error(capsys)
        assert not out.exists()

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("prf = eight hundred\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path), "allocate"]) == EXIT_CONFIG

    def test_unknown_channel_model(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("channel = rician\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path), "allocate"]) == EXIT_CONFIG

    def test_missing_config_file_io_exit(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        out = tmp_path / "run"
        assert run(["--config", str(missing), "--out", str(out), "simulate"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: io: ") and err.count("\n") == 1
        assert str(missing) in err
        assert not out.exists()

    def test_non_utf8_config_file_io_exit(self, tmp_path, capsys):
        # The decode error is a ValueError, which once ended in a traceback.
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xff\xfe\x00")
        out = tmp_path / "run"
        assert run(["--config", str(cfg), "--out", str(out), "allocate"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: io: {cfg}: not UTF-8 text") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cmd", COMMANDS)
    @pytest.mark.parametrize("budget", ["", "power_budget = 8\n"])
    def test_n_subcarriers_past_the_float_range_config_error(self, tmp_path, capsys, cmd,
                                                             budget):
        # float(N), the budget that tracks N, once overflowed into a traceback.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("n_subcarriers = 1" + "0" * 400 + "\n" + budget)
        out = tmp_path / "run"
        assert run(["--config", str(cfg), "--out", str(out), cmd]) == EXIT_CONFIG
        assert "n_subcarriers" in assert_one_line_config_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_smallest_positive_bandwidth(self, tmp_path, capsys, cmd):
        # WaveformSpec holds the bandwidth as set, with no spacing bandwidth / N
        # to round to 0.  Only the imaging commands need a range cell c / (2 B),
        # which is inf here, and the near-edge rule refuses it; the others write
        # what they write at the default bandwidth.
        def outputs(bandwidth):
            cfg, out = tmp_path / f"{bandwidth}.cfg", tmp_path / bandwidth
            cfg.write_text(f"n_subcarriers = 64\nbandwidth = {bandwidth}\ntrials = 100\n")
            code = run(["--config", str(cfg), "--out", str(out), cmd])
            return code, {p.name: p.read_bytes() for p in out.iterdir()}

        code, files = outputs("5e-324")
        if cmd in ("simulate", "scene-gen"):
            assert code == EXIT_CONFIG
            assert "bandwidth" in assert_one_line_config_error(capsys)
            assert files == {}
            return
        stdout = capsys.readouterr().out
        assert code == EXIT_OK and files and outputs("1.5e9") == (EXIT_OK, files)
        if cmd == "allocate":  # the one command that reads the bandwidth
            line = stdout.split("rate_bits_scaled_by_bandwidth = ")[1]
            assert 0.0 < float(line.split("\n")[0]) < 1e-300

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_unknown_signaling_config_error(self, small_cfg, tmp_path, capsys, cmd):
        small_cfg.write_text(SMALL_CFG + "signaling = bogus\n")
        out = tmp_path / "run"
        assert run(["--config", str(small_cfg), "--out", str(out), cmd]) == EXIT_CONFIG
        assert "signaling" in assert_one_line_config_error(capsys)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("signaling", ["constant-modulus", "gaussian"])
    def test_simulate_checks_tail_prob_under_either_law(self, small_cfg, tmp_path, capsys,
                                                         signaling):
        small_cfg.write_text(SMALL_CFG + f"signaling = {signaling}\ntail_prob = 0\n")
        out = tmp_path / "run"
        assert run(["--config", str(small_cfg), "--out", str(out), "simulate"]) == EXIT_CONFIG
        assert "tail_prob" in assert_one_line_config_error(capsys)
        assert list(out.iterdir()) == []

    def test_signaling_maps_to_one_symbol_law(self):
        assert Config().symbol_law() == ConstantModulus()
        law = replace(Config(), signaling="gaussian", tail_prob=0.25).symbol_law()
        assert law == TruncationPolicy(0.25)

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_negative_seed_config_error(self, small_cfg, tmp_path, capsys, cmd):
        out = tmp_path / "run"
        code = run(["--config", str(small_cfg), "--seed", "-1", "--out", str(out), cmd])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the echo
        assert captured.err.startswith("error: config: --seed") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["allocate", "tradeoff", "mse-sweep"])
    def test_negative_channel_seed_config_error(self, small_cfg, tmp_path, capsys, cmd):
        # numpy's default_rng refused it: a ValueError traceback and exit 1.
        small_cfg.write_text(SMALL_CFG + "channel = multipath\nchannel_seed = -1\n")
        out = tmp_path / "run"
        code, peak = run_traced(["--config", str(small_cfg), "--out", str(out), cmd])
        assert code == EXIT_CONFIG
        assert "channel_seed = -1" in assert_one_line_config_error(capsys)
        assert peak < 2**20
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "lines, argv, key",
        [
            # The car is N x N cells; at N = 2**22 both commands died allocating 128 TiB.
            ("n_subcarriers = 4097\nbandwidth = 1e12\nprf = 16\nscene = car", ["simulate"],
             "n_subcarriers = 4097"),
            ("n_subcarriers = 4097\nbandwidth = 1e12\nprf = 16", ["scene-gen", "--kind", "car"],
             "n_subcarriers = 4097"),
            # The channel commands take seconds and hundreds of MiB at N = 2**20.
            ("n_subcarriers = 1048577", ["allocate"], "n_subcarriers = 1048577"),
            ("n_subcarriers = 1048577", ["mse-sweep"], "n_subcarriers = 1048577"),
            ("n_subcarriers = 1048577", ["tradeoff", "--points", "2"], "n_subcarriers = 1048577"),
            # The sweep keeps N powers a point; 10**12 points died in np.linspace.
            ("n_subcarriers = 1048576\ntradeoff_points = 17", ["tradeoff"],
             "tradeoff_points = 17"),
            ("tradeoff_points = 1000000000000", ["tradeoff"], "tradeoff_points"),
        ],
    )
    def test_array_past_its_bound_config_error(self, tmp_path, capsys, lines, argv, key):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(lines + "\n")
        out = tmp_path / "run"
        code, peak = run_traced(["--config", str(cfg), "--out", str(out), *argv])
        assert code == EXIT_CONFIG
        assert key in assert_one_line_config_error(capsys)
        assert peak < 2**20
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["allocate", "tradeoff", "mse-sweep"])
    @pytest.mark.parametrize(
        "lines, key",
        [
            # sigma^2 = (P/N) / snr overflowed: "noise power inf is not positive and finite".
            ("power_budget = 1e308\nsnr_db = -100\nsnr_grid = -100", "power_budget"),
            # 1 / sigma^2 overflowed: "gains must be finite and nonnegative".
            ("power_budget = 1e-310", "power_budget"),
            # 1 / sigma^2 is finite, but the largest gain over sigma^2 was not.
            ("power_budget = 8e-300\nsnr_db = 80\nsnr_grid = 80\nchannel = multipath",
             "snr"),
            # The channel commands' SNR range, -1000 to 1000 dB.
            ("snr_db = -3000\nsnr_grid = -3000", "snr"),
            ("snr_db = 1001\nsnr_grid = 1001", "snr"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_power_and_noise_extremes_config_error(self, small_cfg, tmp_path, capsys, cmd,
                                                   lines, key):
        small_cfg.write_text(SMALL_CFG + lines + "\n")
        out = tmp_path / "run"
        assert run(["--config", str(small_cfg), "--out", str(out), cmd]) == EXIT_CONFIG
        if key == "snr":
            key = "snr_grid" if cmd == "mse-sweep" else "snr_db"
        assert key in assert_one_line_config_error(capsys)
        assert list(out.iterdir()) == []


SPEC_KEYS = {f.name for f in fields(WaveformSpec)} | {"signaling"}
CHANNEL_KEYS = {"channel", "channel_taps", "channel_seed"}
GEOMETRY_KEYS = {f.name for f in fields(Geometry)}
#: The config keys each command reads or checks.  Every command checks the
#: waveform keys, signaling among them, and scene-gen the geometry it writes a
#: scene for; only the point scene's file has scene_azimuth columns.
KEYS_READ = {
    ("allocate",): SPEC_KEYS | CHANNEL_KEYS | {"tail_prob", "snr_db"},
    ("simulate",): SPEC_KEYS | GEOMETRY_KEYS | {"tail_prob", "snr_db", "scene"},
    ("mse-sweep",): SPEC_KEYS | CHANNEL_KEYS | {"tail_prob", "trials", "snr_grid"},
    ("tradeoff",): SPEC_KEYS | CHANNEL_KEYS | {"tail_prob", "snr_db", "tradeoff_points"},
    ("scene-gen", "--kind", "point"): SPEC_KEYS | GEOMETRY_KEYS | {"scene_azimuth"},
    ("scene-gen", "--kind", "car"): SPEC_KEYS | GEOMETRY_KEYS,
}
#: Values of each key that stop a command that reads it, in some config.
EDGE_VALUES = {
    "slant_range_center": ("0", "inf"),
    "velocity": ("0", "nan"),
    "carrier_freq": ("-1", "inf"),
    "prf": ("0", "1e308"),
    "aperture_time": ("0", "nan"),
    "snr_db": ("nan", "-3000"),
    "tail_prob": ("0", "1"),
    "channel": ("rician",),
    "channel_taps": ("0", "17"),
    "channel_seed": ("-1",),
    "scene": ("no-such-dir/scene.txt",),
    "scene_azimuth": ("0", "-1", "65"),
    "trials": ("0", "99"),
    "snr_grid": ("", "abc"),
    "tradeoff_points": ("1", "-1", "2097153"),  # 8 x 2097153 powers pass 2**24
}


def test_spec_and_geometry_hold_config_keys():
    # WaveformSpec and Geometry are built field by field from the config keys of
    # the same names, so neither holds a value derived from them.
    assert SPEC_KEYS | GEOMETRY_KEYS <= {f.name for f in fields(Config)}


@pytest.mark.parametrize("argv", KEYS_READ, ids=" ".join)
def test_unread_key_never_changes_the_exit_code(tmp_path, argv):
    cfg, out = tmp_path / "run.cfg", tmp_path / "run"

    def code(line=""):
        cfg.write_text("n_subcarriers = 8\nprf = 16\ntrials = 100\ntradeoff_points = 4\n" + line)
        return run(["--config", str(cfg), "--out", str(out), *argv])

    assert code() == EXIT_OK
    unread = sorted({f.name for f in fields(Config)} - KEYS_READ[argv])
    assert [(key, value) for key in unread for value in EDGE_VALUES[key]
            if code(f"{key} = {value}\n") != EXIT_OK] == []


# Each flag sets the config key named in the second element.
OVERRIDES = [
    (["simulate", "--snr-db", "40", "--scene", "car"], {"snr_db": 40.0, "scene": "car"}),
    (["tradeoff", "--snr-db", "-10", "--points", "3"], {"snr_db": -10.0, "tradeoff_points": 3}),
    (["mse-sweep", "--trials", "150"], {"trials": 150}),
]


class TestResolvedConfig:
    def test_default_cfg_lists_every_key_with_its_default(self):
        path = ROOT / "configs" / "default.cfg"
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert [l.split("=")[0].strip() for l in lines] == [f.name for f in fields(Config)]
        assert load_config(path) == Config()

    @pytest.mark.parametrize("argv, keys", OVERRIDES, ids=[a[0] for a, _ in OVERRIDES])
    def test_echo_is_the_config_that_ran(self, small_cfg, tmp_path, capsys, argv, keys):
        assert run(["--config", str(small_cfg), "--out", str(tmp_path), *argv]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        echo = lines[: next(i for i, l in enumerate(lines) if l.startswith("seed = "))]
        assert parse_config("\n".join(echo)) == replace(parse_config(SMALL_CFG), **keys)

    @pytest.mark.parametrize("argv, keys", OVERRIDES, ids=[a[0] for a, _ in OVERRIDES])
    def test_flags_and_config_keys_run_alike(self, tmp_path, capsys, argv, keys):
        key_lines = "".join(f"{k} = {v}\n" for k, v in keys.items())
        results = []
        runs = (("flags", SMALL_CFG, argv), ("keys", SMALL_CFG + key_lines, argv[:1]))
        for name, text, cmd in runs:
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / name
            cfg.write_text(text)
            assert run(["--config", str(cfg), "--out", str(out), *cmd]) == EXIT_OK
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            results.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
        assert results[0] == results[1]


class TestSimulate:
    def test_point_scene_outputs(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["--config", str(small_cfg), "--out", str(out), "simulate"])
        assert code == EXIT_OK
        pgm = (out / "image.pgm").read_bytes()
        assert pgm.startswith(b"P5\n8 8\n255\n")
        assert len(pgm) == len(b"P5\n8 8\n255\n") + 64
        assert (out / "image_db.csv").exists()
        assert "peak_cell = " in capsys.readouterr().out

    def test_peak_memory_per_image_cell(self, tmp_path):
        # The image is formed in its scene-coefficient array: synthesis and LS in
        # pulse blocks, RCMC and focusing in place.  About 30 bytes a cell at the
        # peak here, where whole-image stages took 94.
        cfg = tmp_path / "big.cfg"
        cfg.write_text("n_subcarriers = 256\nprf = 2048\nsignaling = gaussian\n")
        code, peak = run_traced(["--config", str(cfg), "--out", str(tmp_path), "simulate"])
        assert code == EXIT_OK
        assert peak <= 40 * 256 * 2048

    def test_point_scene_resolves_to_one_column(self):
        # scene_azimuth tracks N in a config file, but simulate reads none: the lone
        # scatterer's column lies at offset 0 at any width, so it images one column,
        # not an N x N complex grid (16 MiB at N = 1024).
        cfg = parse_config("n_subcarriers = 1024\n")
        spec = cfg.waveform_spec()
        tracemalloc.start()
        try:
            scene = cli._resolve_scene(cfg, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cfg.scene_azimuth, scene.rcs.shape) == (1024, (1024, 1))
        assert peak < 2**16

    def test_range_sidelobe_ratios(self, tmp_path, capsys):
        # Default config, seed 3: Gaussian symbols carry data but raise the
        # range sidelobes that constant-modulus symbols do not have.
        ratios = {}
        for signaling in ("constant-modulus", "gaussian"):
            cfg = tmp_path / f"{signaling}.cfg"
            cfg.write_text(f"signaling = {signaling}\n")
            out = tmp_path / signaling
            assert run(["--config", str(cfg), "--seed", "3", "--out", str(out),
                        "simulate"]) == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            i = lines.index("peak_cell = 32 400")
            pairs = [line.split(" = ") for line in lines[i + 1 : i + 3]]
            assert [key for key, _ in pairs] == ["range_pslr_db", "range_islr_db"]
            ratios[signaling] = [round(float(value), 2) for _, value in pairs]
        assert ratios == {"constant-modulus": [-30.53, -22.68], "gaussian": [-28.71, -17.9]}
        assert ratios["gaussian"][0] > ratios["constant-modulus"][0]

    def test_no_unique_range_peak_prints_no_ratios(self, small_cfg, tmp_path, capsys):
        # A flat range cut (a noise-free all-zero scene) and a 2-cell cut have
        # no unique peak: no ratio lines, but the same files and exit 0.
        zero = tmp_path / "zero.txt"
        zero.write_text("# 8 8\n" + "0,0,0,0,0,0,0,0\n" * 8)
        two = tmp_path / "two.cfg"
        two.write_text(SMALL_CFG.replace("n_subcarriers = 8", "n_subcarriers = 2"))
        runs = {
            "zero": ["--config", str(small_cfg), "simulate", "--scene", str(zero),
                     "--snr-db", "inf"],
            "two": ["--config", str(two), "simulate"],
        }
        for name, argv in runs.items():
            out = tmp_path / name
            assert run(["--out", str(out), *argv]) == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            assert not any(line.startswith("range_") for line in lines)
            assert {f.name for f in out.iterdir()} == {"image.pgm", "image_db.csv"}

    @pytest.mark.parametrize("snr", [[], ["--snr-db", "inf"]])
    def test_extended_scene_prints_no_ratios(self, tmp_path, capsys, snr):
        # The car's range cut through its brightest cell crosses other
        # scatterers: noise-free it read PSLR -1.56 dB, a figure of the scene.
        out = tmp_path / "car"
        assert run(["--out", str(out), "simulate", "--scene", "car", *snr]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("peak_cell = ") for line in lines)
        assert not any(line.startswith("range_") for line in lines)
        assert {f.name for f in out.iterdir()} == {"image.pgm", "image_db.csv"}

    def test_gaussian_car_seeds_exit_ok(self, tmp_path, capsys):
        # Truncated Gaussian magnitudes never fall below the LS floor: seeds
        # 12, 13 and 15 once ended in a traceback.
        cfg = tmp_path / "gaussian.cfg"
        cfg.write_text("signaling = gaussian\nscene = car\n")
        for seed in range(20):
            out = tmp_path / f"car{seed}"
            assert run(["--config", str(cfg), "--seed", str(seed), "--out", str(out),
                        "simulate"]) == EXIT_OK
            assert np.all(np.isfinite(np.loadtxt(out / "image_db.csv", delimiter=",")))
        assert capsys.readouterr().err == ""

    def test_nan_snr_config_error(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["--config", str(small_cfg), "--out", str(out), "simulate",
                    "--snr-db", "nan"])
        assert code == EXIT_CONFIG
        assert_one_line_config_error(capsys)
        assert not (out / "image_db.csv").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "velocity = nan",
            "carrier_freq = nan",
            "slant_range_center = nan",
            "velocity = inf",
            "carrier_freq = inf",
            "slant_range_center = inf",
            "bandwidth = nan",
            "prf = inf",
            "aperture_time = inf",
            "bandwidth = inf",
            "n_subcarriers = 0",
            "bandwidth = 1e308",
            "bandwidth = 5e-324",
            "bandwidth = 1e-300",
            "power_budget = 1e-320",
            "power_budget = 1e308\nsnr_db = -100",
            "power_budget = 1e308\nsignaling = gaussian\nn_subcarriers = 3",
            "snr_db = -3000",
            "velocity = 5e-324\naperture_time = 0.25",
            "slant_range_center = 1e308\ncarrier_freq = 1e-320",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_geometry_config_error(self, small_cfg, tmp_path, capsys, line):
        # NaN and inf pass a "<= 0" test: the first seven used to write a NaN
        # or meaningless image with exit 0, the next two to end in a traceback.
        # The key the user set is named, not a value derived from it such as
        # the range cell c / (2 bandwidth).  Most of the rest reached an
        # internal check (c / (2 bandwidth) = 0, a power sum off its budget, a
        # raster off its dB grid after NaN ratios and a written image.pgm) or a
        # numpy warning (an overflowing swath row array, |S_k|^2, log(0) or a
        # squared range); snr_db = -3000 pins the SNR floor of -1000 dB, which
        # keeps sigma^2 <= 1e100 P/N.
        small_cfg.write_text(SMALL_CFG + line + "\n")
        out = tmp_path / "run"
        code = run(["--config", str(small_cfg), "--out", str(out), "simulate"])
        assert code == EXIT_CONFIG
        assert line.split(" = ")[0] in assert_one_line_config_error(capsys)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "lines, key",
        [
            ("velocity = 1e300", "velocity"),
            ("slant_range_center = 1e160", "slant_range_center"),
            ("slant_range_center = 1e300", "slant_range_center"),
            ("carrier_freq = 1e300", "carrier_freq"),
        ],
    )
    def test_unresolvable_phase_config_error(self, tmp_path, capsys, lines, key):
        # The first three ended in an OverflowError traceback; the last wrote
        # an image whose carrier phase float64 cannot resolve, peaking at
        # pulse 753 instead of 400.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(lines + "\n")
        out = tmp_path / "run"
        code = run(["--config", str(cfg), "--out", str(out), "simulate"])
        assert code == EXIT_CONFIG
        assert key in assert_one_line_config_error(capsys)
        assert not (out / "image_db.csv").exists()

    def test_overflowing_pulse_count_config_error(self, tmp_path, capsys):
        # prf * aperture_time is inf: rounding it to a pulse count ended in an
        # OverflowError traceback.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("prf = 1e300\naperture_time = 1e10\n")
        out = tmp_path / "run"
        code = run(["--config", str(cfg), "--out", str(out), "simulate"])
        assert code == EXIT_CONFIG
        err = assert_one_line_config_error(capsys)
        assert "prf" in err and "aperture_time" in err
        assert not (out / "image_db.csv").exists()

    @pytest.mark.parametrize("cmd", ["simulate", "scene-gen"])
    def test_pulse_count_past_the_image_cap_config_error(self, tmp_path, capsys, cmd):
        # prf = 1e12 passes Geometry, and synthesis would size its arrays at
        # 64 x 1e12 cells; the cap refuses it before any array is made.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("prf = 1e12\n")
        out = tmp_path / "run"
        code, peak = run_traced(["--config", str(cfg), "--out", str(out), cmd])
        assert code == EXIT_CONFIG
        err = assert_one_line_config_error(capsys)
        assert "prf" in err and "aperture_time" in err
        assert peak < 2**20
        assert not any(out.iterdir())

    def test_image_cap_is_n_times_pulses(self):
        # 64 subcarriers x 262144 pulses is 2**24 cells, the most an image holds.
        cfg = Config(prf=262144.0)
        assert cfg.geometry(cfg.waveform_spec()).n_pulses == 262144
        cfg = Config(prf=262145.0)
        with pytest.raises(ConfigError, match="262145 pulses times N = 64"):
            cfg.geometry(cfg.waveform_spec())

    def test_geometry_without_a_spec_builds_the_configs(self):
        # 64 cells of 0.1 m put the near edge 0.2 m behind the platform; 2 do not.
        cfg = Config(slant_range_center=3.0)
        with pytest.raises(ConfigError, match="closest-approach range -0.19"):
            cfg.geometry()
        assert cfg.geometry(WaveformSpec(2, 1.5e9, 64.0)).n_pulses == 800

    def test_swath_reaching_behind_zero_range_config_error(self, tmp_path, capsys):
        # At 1 MHz the 64 range cells are 150 m each, so the swath would start
        # 3.4 km behind the platform.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("bandwidth = 1e6\n")
        out = tmp_path / "run"
        code = run(["--config", str(cfg), "--out", str(out), "simulate"])
        assert code == EXIT_CONFIG
        assert "closest-approach range" in assert_one_line_config_error(capsys)
        assert not (out / "image_db.csv").exists()

    def test_swath_behind_platform_rejected_before_scene_gen(self, tmp_path, capsys):
        # The scene file would be written, and rejected only by simulate.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("bandwidth = 1e6\n")
        out = tmp_path / "run"
        code = run(["--config", str(cfg), "--out", str(out), "scene-gen"])
        assert code == EXIT_CONFIG
        err = assert_one_line_config_error(capsys)
        for key in ("closest-approach range", "bandwidth", "n_subcarriers",
                    "slant_range_center"):
            assert key in err
        assert not (out / "scene_point.txt").exists()

    def test_swath_nearer_than_1_km_images(self, tmp_path):
        # Exit 2 once, below a 1 km altitude that no computed value read.
        cfg = tmp_path / "near.cfg"
        cfg.write_text("slant_range_center = 900\n")
        out = tmp_path / "run"
        assert run(["--config", str(cfg), "--out", str(out), "simulate"]) == EXIT_OK
        assert np.array(read_csv(out / "image_db.csv"), dtype=float).shape == (64, 800)

    @pytest.mark.parametrize("cmd", [["allocate"], ["tradeoff", "--points", "3"]])
    def test_swath_check_leaves_non_imaging_commands_alone(self, tmp_path, cmd):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("bandwidth = 1e6\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path / "run"), *cmd]) == EXIT_OK

    @pytest.mark.parametrize("scene", ["point", "car"])
    def test_scene_azimuth_past_the_pulse_count_images(self, tmp_path, scene):
        # scene_azimuth tracks N = 16 past the 8 pulses, and simulate reads none.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(f"n_subcarriers = 16\nprf = 8\nscene = {scene}\n")
        out = tmp_path / "run"
        assert run(["--config", str(cfg), "--out", str(out), "simulate"]) == EXIT_OK
        assert np.array(read_csv(out / "image_db.csv"), dtype=float).shape == (16, 8)

    def test_infinite_snr_is_noise_free(self, small_cfg, tmp_path):
        out = tmp_path / "run"
        code = run(["--config", str(small_cfg), "--out", str(out), "simulate",
                    "--snr-db", "inf"])
        assert code == EXIT_OK
        db = np.array(read_csv(out / "image_db.csv"), dtype=float)
        assert db.shape == (8, 8) and np.all(np.isfinite(db)) and db.max() == 0.0

    def test_byte_identical_reruns(self, small_cfg, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(
                ["--config", str(small_cfg), "--seed", "7", "--out", str(out), "simulate"]
            ) == EXIT_OK
            outs.append((out / "image.pgm").read_bytes() + (out / "image_db.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_output(self, small_cfg, tmp_path):
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            run(["--config", str(small_cfg), "--seed", seed, "--out", str(out), "simulate"])
            blobs.append((out / "image_db.csv").read_bytes())
        assert blobs[0] != blobs[1]

    def test_missing_scene_file_io_exit(self, small_cfg, tmp_path, capsys):
        code = run(
            ["--config", str(small_cfg), "--out", str(tmp_path), "simulate",
             "--scene", str(tmp_path / "nope.txt")]
        )
        assert code == EXIT_IO
        assert "io" in capsys.readouterr().err


class TestSceneGen:
    # Only the point scene reads scene_azimuth, its width: 1 up to the pulse count,
    # so the file of N x scene_azimuth cells stays within the image cap.
    @pytest.mark.parametrize("n_azimuth", ["0", "-3"])
    def test_scene_azimuth_below_one_config_error(self, small_cfg, tmp_path, capsys, n_azimuth):
        small_cfg.write_text(SMALL_CFG + f"scene_azimuth = {n_azimuth}\n")
        out = tmp_path / "run"
        code = run(["--config", str(small_cfg), "--out", str(out), "scene-gen"])
        assert code == EXIT_CONFIG
        err = assert_one_line_config_error(capsys)
        assert err.startswith("error: config: scene_azimuth") and "pulse count 8" in err
        assert not (out / "scene_point.txt").exists()

    @pytest.mark.parametrize("n_azimuth, code", [(64, EXIT_OK), (65, EXIT_CONFIG)])
    def test_scene_azimuth_at_most_the_pulse_count(self, tmp_path, capsys, n_azimuth, code):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(f"n_subcarriers = 16\nprf = 64\nscene_azimuth = {n_azimuth}\n")
        out = tmp_path / "run"
        assert run(["--config", str(cfg), "--out", str(out), "scene-gen"]) == code
        assert (out / "scene_point.txt").exists() == (code == EXIT_OK)
        if code == EXIT_CONFIG:
            err = assert_one_line_config_error(capsys)
            assert "scene_azimuth = 65" in err and "pulse count 64" in err


class TestSceneGenRoundtrip:
    def test_scene_gen_then_simulate(self, small_cfg, tmp_path):
        out = tmp_path / "s"
        assert run(
            ["--config", str(small_cfg), "--out", str(out), "scene-gen", "--kind", "car"]
        ) == EXIT_OK
        scene_file = out / "scene_car.txt"
        assert scene_file.exists()
        code = run(
            ["--config", str(small_cfg), "--out", str(out), "simulate",
             "--scene", str(scene_file)]
        )
        assert code == EXIT_OK

    def test_malformed_scene_io_exit(self, small_cfg, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# 8 8\nnot,numbers\n")
        code = run(
            ["--config", str(small_cfg), "--out", str(tmp_path), "simulate",
             "--scene", str(bad)]
        )
        assert code == EXIT_IO

    def test_non_utf8_scene_file_io_exit(self, small_cfg, tmp_path, capsys):
        bad = tmp_path / "latin.txt"
        bad.write_bytes(b"# 8 1\n\xff\n")
        out = tmp_path / "run"
        code = run(["--config", str(small_cfg), "--out", str(out), "simulate",
                    "--scene", str(bad)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: io: {bad}: not UTF-8 text") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_non_finite_scene_value_io_exit(self, small_cfg, tmp_path, capsys):
        # A nan once gave exit 0, peak_cell = 0 0 and an image of nan.
        bad = tmp_path / "nan.txt"
        bad.write_text("# 8 8\n" + "0,0,0,0,0,0,0,0\n" * 7 + "0,0,0,nan,0,0,0,0\n")
        out = tmp_path / "run"
        code = run(["--config", str(small_cfg), "--out", str(out), "simulate",
                    "--scene", str(bad)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: io:") and "'nan'" in err and err.count("\n") == 1
        assert not (out / "image.pgm").exists()

    @pytest.mark.filterwarnings("error")
    def test_scene_value_past_1e100_io_exit(self, small_cfg, tmp_path, capsys):
        # 1e308 overflowed the echo: image.pgm was written, then the raster of
        # NaN failed write_db_csv's grid check.
        bad = tmp_path / "big.txt"
        bad.write_text("# 8 1\n" + "0\n" * 4 + "1e308\n" + "0\n" * 3)
        out = tmp_path / "run"
        code = run(["--config", str(small_cfg), "--out", str(out), "simulate",
                    "--scene", str(bad)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: io:") and "'1e308'" in err and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_header_overstating_the_width_io_exit(self, tmp_path, capsys):
        # The image was sized from the header before any row was read: numpy's
        # _ArrayMemoryError for 931 TiB, and exit 1.
        bad = tmp_path / "wide.txt"
        bad.write_text("# 64 1000000000000\n" + "0\n" * 64)
        out = tmp_path / "run"
        code, peak = run_traced(["--out", str(out), "simulate", "--scene", str(bad)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err == "error: io: row 0: expected 1000000000000 values, got 1\n"
        assert peak < 2**20
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("header", ["# 8 -1", "# 8 0", "# -1 8"])
    def test_header_count_below_one_io_exit(self, small_cfg, tmp_path, capsys, header):
        bad = tmp_path / "counts.txt"
        bad.write_text(f"{header}\n" + "0,0,0,0,0,0,0,0\n" * 8)
        code = run(["--config", str(small_cfg), "--out", str(tmp_path / "run"), "simulate",
                    "--scene", str(bad)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: io:") and header in err and err.count("\n") == 1


class TestMseSweep:
    def test_writes_table(self, small_cfg, tmp_path):
        out = tmp_path / "m"
        code = run(["--config", str(small_cfg), "--out", str(out), "mse-sweep"])
        assert code == EXIT_OK
        rows = read_csv(out / "mse_sweep.csv")
        assert rows[0] == ["snr_db", "design", "empirical_nmse", "analytic_nmse"]
        # 2 SNR points x 3 designs.
        assert len(rows) == 1 + 6

    def test_empty_snr_grid_config_error(self, small_cfg, tmp_path, capsys):
        small_cfg.write_text(SMALL_CFG + "snr_grid = ,\n")
        out = tmp_path / "m"
        code = run(["--config", str(small_cfg), "--out", str(out), "mse-sweep"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config: snr_grid") and err.count("\n") == 1
        assert not (out / "mse_sweep.csv").exists()

    def test_ill_conditioned_draw_infeasible(self, tmp_path, capsys):
        # Water-filling leaves subcarrier 12 at 3.1e-4 of the mean power, so
        # the smallest truncated Gaussian draw there lies below the LS floor.
        cfg = tmp_path / "ill.cfg"
        cfg.write_text("channel = multipath\nchannel_seed = 41\nsnr_grid = 29.75\n")
        out = tmp_path / "m"
        code = run(["--config", str(cfg), "--seed", "0", "--out", str(out), "mse-sweep"])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: infeasible: subcarrier 12") and err.count("\n") == 1
        assert not (out / "mse_sweep.csv").exists()

    @pytest.mark.parametrize("seed", range(6))
    def test_ill_conditioned_design_infeasible_for_every_seed(self, seed, tmp_path, capsys):
        # Decided from P_k and q before any draw: neither the seed nor the
        # trial count can let the design through.
        cfg = tmp_path / "ill.cfg"
        cfg.write_text("channel = multipath\nchannel_seed = 41\nsnr_grid = 29.75\n")
        for trials in ("100", "200", "1000"):
            out = tmp_path / f"m{trials}"
            args = ["--config", str(cfg), "--seed", str(seed), "--out", str(out)]
            assert run([*args, "mse-sweep", "--trials", trials]) == EXIT_INFEASIBLE
            err = capsys.readouterr().err
            assert err.startswith("error: infeasible: subcarrier 12") and err.count("\n") == 1
            assert "'gaussian comm-optimal'" in err
            assert not (out / "mse_sweep.csv").exists()

    def test_infinite_snr_config_error(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "m"
        # (extra config, grid SNR, the SNR as named): a finite SNR also leaves
        # no noise when (P/N) / snr underflows, as 1e-300 / 1e300 does.
        cases = [("", snr, "inf") for snr in NOISE_FREE_SNRS]
        cases.append(("power_budget = 1e-300\n", "3000", "3000.0"))
        for extra, snr, named in cases:
            small_cfg.write_text(SMALL_CFG + extra + f"snr_grid = 0,{snr}\n")
            code = run(["--config", str(small_cfg), "--out", str(out), "mse-sweep"])
            assert code == EXIT_CONFIG
            err = assert_one_line_config_error(capsys)
            assert f"snr_grid holds {named} dB, which leaves no noise" in err
            assert not (out / "mse_sweep.csv").exists()

    def test_too_few_trials_config_error(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "m"
        code = run(["--config", str(small_cfg), "--out", str(out), "mse-sweep", "--trials", "99"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config: trials") and err.count("\n") == 1
        assert not (out / "mse_sweep.csv").exists()


def test_tail_prob_near_one_ends_in_finite_outputs(tmp_path):
    # At q = 1 - 1e-11, q + (1 - q) u once rounded to 1 for u within about 1e-5
    # of 1: an infinite Gaussian magnitude, a simulate traceback and NaN in every
    # sweep row, the constant-modulus rows included.
    cfg = tmp_path / "q.cfg"
    cfg.write_text("signaling = gaussian\ntail_prob = 0.99999999999\n")
    args = ["--config", str(cfg), "--seed", "0", "--out"]
    assert run([*args, str(tmp_path / "s"), "simulate"]) == EXIT_OK
    assert np.all(np.isfinite(np.loadtxt(tmp_path / "s" / "image_db.csv", delimiter=",")))
    assert run([*args, str(tmp_path / "m"), "mse-sweep"]) == EXIT_OK
    rows = read_csv(tmp_path / "m" / "mse_sweep.csv")[1:]
    assert len(rows) == 12
    assert np.all(np.isfinite([[float(row[2]), float(row[3])] for row in rows]))


def test_simulate_and_mse_sweep_start_no_thread(tmp_path, monkeypatch):
    # Pulse blocks are drawn on the calling thread, as each is taken.
    def refuse(thread):
        raise RuntimeError(f"started {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = tmp_path / "car.cfg"
    cfg.write_text("signaling = gaussian\nscene = car\n")
    assert run(["--config", str(cfg), "--out", str(tmp_path / "car"), "simulate"]) == EXIT_OK
    assert run(["--out", str(tmp_path / "m"), "mse-sweep"]) == EXIT_OK


class TestTradeoff:
    def test_flat_channel_constant_emse(self, small_cfg, tmp_path):
        out = tmp_path / "t"
        code = run(["--config", str(small_cfg), "--out", str(out), "tradeoff"])
        assert code == EXIT_OK
        rows = read_csv(out / "tradeoff.csv")
        assert rows[0] == ["rate_floor", "rate_achieved", "emse"]
        emses = [float(r[2]) for r in rows[1:]]
        assert len(emses) == 5
        # Equal gains: uniform power is optimal at every rate floor.
        assert max(emses) - min(emses) < 1e-9 * emses[0]

    def test_one_point_config_error(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "t"
        code = run(["--config", str(small_cfg), "--out", str(out), "tradeoff", "--points", "1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config: tradeoff_points") and err.count("\n") == 1
        assert not (out / "tradeoff.csv").exists()

    def test_infinite_snr_config_error(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "t"
        for snr in NOISE_FREE_SNRS:
            code = run(["--config", str(small_cfg), "--out", str(out), "tradeoff",
                        "--snr-db", snr])
            assert code == EXIT_CONFIG
            err = assert_one_line_config_error(capsys)
            assert "snr_db holds inf dB, which leaves no noise" in err
            assert not (out / "tradeoff.csv").exists()

    def test_selective_channel_monotone(self, tmp_path):
        cfg = tmp_path / "mp.cfg"
        cfg.write_text("n_subcarriers = 16\nchannel = multipath\ntradeoff_points = 8\n")
        out = tmp_path / "t"
        assert run(["--config", str(cfg), "--out", str(out), "tradeoff"]) == EXIT_OK
        rows = read_csv(out / "tradeoff.csv")
        emses = [float(r[2]) for r in rows[1:]]
        rates = [float(r[1]) for r in rows[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(emses, emses[1:]))
        assert rates == sorted(rates)

    def test_dry_subcarrier_at_capacity_reads_inf(self, tmp_path, capsys):
        # On multipath channel seed 0 at -10 dB water-filling leaves a
        # subcarrier without power, so the EMSE A sigma^2 sum 1/P_k at capacity
        # is infinite: a legal table value, written as inf, never nan.
        cfg = tmp_path / "mp.cfg"
        cfg.write_text("channel = multipath\nchannel_seed = 0\nsnr_db = -10\n")
        out = tmp_path / "t"
        code = run(["--config", str(cfg), "--out", str(out), "tradeoff", "--points", "8"])
        assert code == EXIT_OK
        capacity_row = read_csv(out / "tradeoff.csv")[-1]
        assert capacity_row[2] == "inf"
        assert all(np.isfinite(float(v)) for v in capacity_row[:2])
        capsys.readouterr()
        code = run(["--config", str(cfg), "--out", str(out), "allocate",
                    "--rate-target", "capacity"])
        assert code == EXIT_OK
        assert "emse = inf" in capsys.readouterr().out.splitlines()
        powers = [float(r[1]) for r in read_csv(out / "allocation.csv")[1:]]
        assert min(powers) == 0.0 and not any(np.isnan(powers))

    def test_zero_floor_is_uniform_at_very_low_snr(self, tmp_path, capsys):
        # At -150 dB capacity lies below the solver's rate tolerance.  Tested
        # before the uniform endpoint, it returned water-filling for every
        # floor, dry subcarriers and all, and the rate-0 EMSE read inf.
        cfg = tmp_path / "mp.cfg"
        cfg.write_text("channel = multipath\nsnr_db = -150\n")
        out = tmp_path / "t"

        def emse(*argv):
            assert run(["--config", str(cfg), "--out", str(out), "allocate", *argv]) == EXIT_OK
            line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("emse"))
            return float(line.split("=")[1])

        uniform = emse()
        assert np.isfinite(uniform)
        assert emse("--rate-target", "0") == uniform
        assert run(["--config", str(cfg), "--out", str(out), "tradeoff", "--points", "8"]) \
            == EXIT_OK
        rate_floor, _, row_emse = read_csv(out / "tradeoff.csv")[1]
        assert float(rate_floor) == 0.0 and float(row_emse) == uniform

    @pytest.mark.parametrize(
        "taps, code",
        [("0", EXIT_CONFIG), ("-1", EXIT_CONFIG), ("17", EXIT_CONFIG), ("16", EXIT_OK)],
    )
    def test_channel_taps_range(self, tmp_path, capsys, taps, code):
        # The gains are the N-point DFT of the taps, which would cut taps
        # beyond N without a word.
        cfg = tmp_path / "mp.cfg"
        cfg.write_text(
            f"n_subcarriers = 16\nchannel = multipath\nchannel_taps = {taps}\n"
            "tradeoff_points = 4\n"
        )
        out = tmp_path / "t"
        assert run(["--config", str(cfg), "--out", str(out), "tradeoff"]) == code
        if code == EXIT_OK:
            assert (out / "tradeoff.csv").exists()
        else:
            assert "channel_taps" in assert_one_line_config_error(capsys)
