"""Short-mode runs of every workload, and the refusal to run without the program.

Run with: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], *args]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", "0", "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # The short image-car round is seeds 12 and 0; the Gaussian fault fails 12.
    share = 0.5 if workload == "image-car" else 0.0
    assert result["failed"] == share * result["attempted"]
    for m in SPEC["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert value["value"] > 0
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


def test_short_traced_run_reports_every_layer():
    proc = _run(ROOT, "--workload", "image-point", "--seed", "7", "--seconds", "1",
                "--trace", "1", "--short")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert [(n, v["unit"]) for n, v in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    assert metrics["geometry.scene_coefficients.calls"]["value"] == 800
    assert metrics["echo.synthesize_pulse.calls"]["value"] == 800


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "image-point", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
