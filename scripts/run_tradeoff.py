#!/usr/bin/env python3
"""Imaging-vs-communication tradeoff experiment.

Sweeps the rate floor from zero to the water-filling capacity on a
frequency-selective channel and writes the expected imaging MSE achieved at
each floor, together with the two closed-form endpoint allocations.
"""

import argparse
from pathlib import Path

import numpy as np

from ofdmsar import tradeoff_sweep, water_filling
from ofdmsar.config import load_config
from ofdmsar.output import write_allocation_csv, write_table_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--snr-db", type=float, default=None)
    parser.add_argument("--points", type=int, default=32)
    parser.add_argument("--out", type=Path, default=Path("tradeoff_out"))
    args = parser.parse_args()

    cfg = load_config(args.config)
    if cfg.channel == "flat":
        cfg.channel = "multipath"  # a flat channel has a degenerate tradeoff
    snr_db = cfg.snr_db if args.snr_db is None else args.snr_db
    sigma2 = cfg.waveform_spec().noise_power(snr_db)
    ch = cfg.channel_gains().rescaled(sigma2)
    args.out.mkdir(parents=True, exist_ok=True)

    points = tradeoff_sweep(
        ch, cfg.power_budget, sigma2, cfg.truncation_policy(), args.points
    )
    rows = [
        {"rate_floor": p.rate_floor, "rate_achieved": p.rate_achieved, "emse": p.emse}
        for p in points
    ]
    write_table_csv(args.out / "tradeoff.csv", rows)
    write_allocation_csv(args.out / "alloc_imaging.csv", points[0].allocation, ch)
    write_allocation_csv(
        args.out / "alloc_waterfilling.csv", water_filling(ch, cfg.power_budget), ch
    )
    finite = [p.emse for p in points if np.isfinite(p.emse)]
    print(f"{len(points)} grid points; EMSE spans "
          f"{min(finite):.4g} .. {max(finite):.4g} "
          f"({len(points) - len(finite)} infinite at the capacity end)")
    print(f"outputs in {args.out}/")


if __name__ == "__main__":
    main()
