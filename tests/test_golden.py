"""Digests of every output of a fixed matrix of CLI runs, against ``golden.json``.

Each entry holds the sha256 of every file one run writes, and of its stdout
with the output directory written as ``<out>``.  A change that moves an
output fails here, naming each moved entry, so that every output change is a
reviewed diff of ``golden.json``.  Set ``OFDMSAR_REGEN_GOLDEN=1`` to rewrite
the file from the code as it stands.  The bytes depend on numpy's floating
point, so the file records the numpy version it was made with, and the test
fails naming both versions under another.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from ofdmsar.cli import EXIT_OK, run

GOLDEN = Path(__file__).with_name("golden.json")
MULTIPATH = "channel = multipath\nchannel_seed = 5\n"
LOW_SNR = ["--snr-db", "-10.0"]

#: entry name -> (config text, argv after ``--config`` and ``--out``)
RUNS = {
    **{f"simulate/point/constant-modulus/seed{s}": ("", ["--seed", str(s), "simulate"])
       for s in (0, 1)},
    **{f"simulate/point/gaussian/seed{s}": ("signaling = gaussian\n",
                                             ["--seed", str(s), "simulate"])
       for s in (0, 1)},
    **{f"simulate/car/gaussian/seed{s}": ("scene = car\nsignaling = gaussian\n",
                                          ["--seed", str(s), "simulate"])
       for s in (0, 1)},
    "simulate/car/constant-modulus/seed0": ("scene = car\n", ["--seed", "0", "simulate"]),
    "mse-sweep/multipath": (MULTIPATH + "trials = 100\n", ["--seed", "3", "mse-sweep"]),
    # The Gaussian law at a second q.
    "mse-sweep/multipath/tail0.5": (MULTIPATH + "trials = 100\ntail_prob = 0.5\n",
                                    ["--seed", "3", "mse-sweep"]),
    "tradeoff/multipath/8": (MULTIPATH, ["tradeoff", *LOW_SNR, "--points", "8"]),
    # Capacity below the solver's rate tolerance: every row is the uniform allocation.
    "tradeoff/multipath/8/-150dB": (MULTIPATH, ["tradeoff", "--snr-db", "-150.0",
                                                "--points", "8"]),
    # At 0 dB: 6 binding floors and 36 root solves.
    "tradeoff/multipath/32/0dB": (MULTIPATH, ["tradeoff", "--snr-db", "0.0", "--points", "32"]),
    "allocate/multipath/uniform": (MULTIPATH, ["allocate", *LOW_SNR]),
    "allocate/multipath/rate-11": (MULTIPATH, ["allocate", *LOW_SNR, "--rate-target", "11"]),
    "allocate/multipath/capacity": (MULTIPATH,
                                    ["allocate", *LOW_SNR, "--rate-target", "capacity"]),
    # An interior floor between the uniform rate 51.70 and the capacity 64.83.
    "allocate/multipath/rate-58/0dB": (MULTIPATH, ["allocate", "--snr-db", "0.0",
                                                   "--rate-target", "58"]),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(tmp_path: Path) -> dict:
    result = {}
    for i, (name, (config, argv)) in enumerate(RUNS.items()):
        cfg, out = tmp_path / f"{i}.cfg", tmp_path / f"out{i}"
        cfg.write_text(config)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(["--config", str(cfg), "--out", str(out), *argv])
        assert code == EXIT_OK, name
        entry = {"stdout": sha256(stdout.getvalue().replace(str(out), "<out>").encode())}
        entry.update({f.name: sha256(f.read_bytes()) for f in sorted(out.iterdir())})
        result[name] = entry
    return result


def test_outputs_match_golden_digests(tmp_path):
    actual = digests(tmp_path)
    if os.environ.get("OFDMSAR_REGEN_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps({"numpy": np.__version__, "runs": actual}, indent=1) + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert golden["numpy"] == np.__version__, (
        f"golden.json was made with numpy {golden['numpy']}, this is numpy {np.__version__}")
    moved = sorted(f"{name}: {key}" for name in RUNS
                   for key in set(actual[name]) | set(golden["runs"].get(name, {}))
                   if actual[name].get(key) != golden["runs"].get(name, {}).get(key))
    assert not moved, "moved outputs:\n" + "\n".join(moved)
    assert set(golden["runs"]) == set(RUNS)
