"""Smoke runs of the point-target script on a 16-subcarrier configuration."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import ofdmsar

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(ofdmsar.__file__).resolve().parents[1]
SMALL_CFG = "n_subcarriers = 16\nprf = 16\naperture_time = 1.0\n"


def launch(name, tmp_path, *args, extra_cfg=""):
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG + extra_cfg)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, str(ROOT / "scripts" / name), "--config", str(cfg),
           "--out", str(tmp_path / "out"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)


def run_script(name, tmp_path, *args, extra_cfg=""):
    proc = launch(name, tmp_path, *args, extra_cfg=extra_cfg)
    assert proc.returncode == 0, proc.stderr
    return tmp_path / "out"


def test_run_point_target(tmp_path):
    out = run_script("run_point_target.py", tmp_path)
    for tag in ("constant_modulus", "gaussian"):
        assert (out / f"image_{tag}.pgm").read_bytes().startswith(b"P5\n16 16\n255\n")
        for cut in ("azimuth", "range"):
            with open(out / f"{cut}_cut_{tag}.csv", newline="") as fh:
                assert len(list(csv.reader(fh))[0]) == 16


def test_run_point_target_snr_defaults_to_config(tmp_path):
    by_key = run_script("run_point_target.py", tmp_path / "key", extra_cfg="snr_db = 40\n")
    by_flag = run_script("run_point_target.py", tmp_path / "flag", "--snr-db", "40")
    names = sorted(f.name for f in by_flag.iterdir())
    assert names == sorted(f.name for f in by_key.iterdir()) and len(names) == 6
    for name in names:
        assert (by_key / name).read_bytes() == (by_flag / name).read_bytes(), name


def test_run_point_target_bad_config_one_line(tmp_path):
    # Exit codes and messages as the ofdmsar command gives them.
    proc = launch("run_point_target.py", tmp_path, "--snr-db", "nan")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: config: SNR of nan dB gives no finite noise power"
    ]
    assert not (tmp_path / "out").exists()


def test_run_point_target_missing_config_io_error(tmp_path):
    missing = tmp_path / "missing.cfg"
    proc = launch("run_point_target.py", tmp_path, "--config", str(missing))
    assert proc.returncode == 4
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: io: ") and str(missing) in proc.stderr
