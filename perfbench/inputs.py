"""Workload inputs: config files, per-operation command lines and seed lists.

Only the standard library is imported here, because the set-up probe times a
fresh interpreter that imports ``ofdmsar`` and builds these inputs, and a
heavy import of the benchmark's own would be counted as the program's.

Every run attempts whole rounds of the same operations. A round is one
operation on ``image-point`` and ``mse-sweep``, the fixed 20 simulate seeds
on ``image-car`` and the fixed eight channel seeds on ``tradeoff``, so the
share of failed operations is the same in every run whatever its seed and
length.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"

WORKLOADS = ("image-point", "image-car", "mse-sweep", "tradeoff")

#: Simulate seeds of one image-car round. Seeds 12, 13 and 15 draw a
#: Gaussian symbol below the LS conditioning floor; they stay in the round
#: and count as failed until the program handles that case.
CAR_SEEDS = tuple(range(20))
#: Channel seeds of one tradeoff round. The sweeps of seeds 0, 1, 3, 4 and 5
#: fall short of a rate floor by more than the solver's tolerance; they stay
#: in the round and count as failed until the solver meets its tolerance.
CHANNEL_SEEDS = tuple(range(8))

#: The default config's numerology and geometry: 64 subcarriers, 800 Hz PRF
#: over a 1 s aperture, 40 m/s at sqrt(2) km slant range, 9 GHz carrier.
N_SUBCARRIERS = 64
N_PULSES = 800
PRF = 800.0
APERTURE_TIME = 1.0
VELOCITY = 40.0
SLANT_RANGE = 2.0**0.5 * 1000.0
CARRIER_FREQ = 9.0e9
POWER_BUDGET = 64.0
TAIL_PROB = 1e-3

CHANNEL_TAPS = 4
MSE_CHANNEL_SEED = 0
MSE_SNR_DB = 20.0  # every design keeps power on every subcarrier here
MSE_TRIALS = 1000
TRADEOFF_SNR_DB = -10.0
TRADEOFF_POINTS = 8


@dataclass(frozen=True)
class Op:
    """One in-process call of ``ofdmsar.cli.run``."""

    argv: tuple  # command line without ``--out``
    units: int  # pulses, Monte Carlo trials or rate-grid points produced
    key: int  # simulate seed or channel seed, for reports


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    workdir: Path
    warmup: tuple
    round_ops: Callable[[int], tuple]  # round index -> the round's ops

    @property
    def outdir(self) -> Path:
        return self.workdir / "out"


def use_checkout_src() -> None:
    """Import ``ofdmsar`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ofdmsar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ofdmsar package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _config_text(workload: str, channel_seed: int = 0) -> str:
    if workload == "image-point":
        return "scene = point\nsignaling = constant-modulus\n"
    if workload == "image-car":
        return "scene = car\nsignaling = gaussian\n"
    if workload == "mse-sweep":
        return (
            f"channel = multipath\nchannel_taps = {CHANNEL_TAPS}\n"
            f"channel_seed = {MSE_CHANNEL_SEED}\nsnr_grid = {MSE_SNR_DB!r}\n"
            f"trials = {MSE_TRIALS}\n"
        )
    if workload == "tradeoff":
        return (
            f"channel = multipath\nchannel_taps = {CHANNEL_TAPS}\n"
            f"channel_seed = {channel_seed}\n"
        )
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, short: bool = False) -> Plan:
    """Write the workload's config files and return its operation plan."""
    workdir = WORK / workload
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    if workload in ("image-point", "image-car", "mse-sweep"):
        cfg = workdir / "workload.cfg"
        cfg.write_text(_config_text(workload))
        command = "mse-sweep" if workload == "mse-sweep" else "simulate"
        units = MSE_TRIALS if workload == "mse-sweep" else N_PULSES

        def op(s: int) -> Op:
            return Op(("--config", str(cfg), "--seed", str(s), command), units, s)

        if workload == "image-car":
            order = list((12, 0) if short else CAR_SEEDS)
            rng.shuffle(order)
            warmup = () if short else (op(0),)
            return Plan(workload, seed, workdir, warmup,
                        lambda index: tuple(op(s) for s in order))
        base = 10_000 * seed
        warmup = () if short else (op(base + 9_999), op(base + 9_998))
        return Plan(workload, seed, workdir, warmup,
                    lambda index: (op(base + index),))

    if workload == "tradeoff":
        cfgs = {}
        for cs in CHANNEL_SEEDS:
            cfgs[cs] = workdir / f"channel{cs}.cfg"
            cfgs[cs].write_text(_config_text(workload, cs))

        def op(cs: int) -> Op:
            argv = ("--config", str(cfgs[cs]), "tradeoff",
                    "--snr-db", repr(TRADEOFF_SNR_DB), "--points", str(TRADEOFF_POINTS))
            return Op(argv, TRADEOFF_POINTS, cs)

        shift = seed % len(CHANNEL_SEEDS)
        order = (2,) if short else CHANNEL_SEEDS[shift:] + CHANNEL_SEEDS[:shift]
        warmup = () if short else (op(2),)
        return Plan(workload, seed, workdir, warmup,
                    lambda index: tuple(op(cs) for cs in order))

    raise ValueError(f"unknown workload {workload!r}")
