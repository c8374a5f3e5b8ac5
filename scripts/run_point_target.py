#!/usr/bin/env python3
"""Point-target imaging experiment.

Synthesizes a full aperture over a single point scatterer for both signal
types (constant-modulus and Gaussian symbols), focuses the images, and writes
PGM rasters plus the peak-cut range/azimuth profiles in dB.  Reproduces the
"nearly identical azimuth profiles, worse range sidelobes for Gaussian"
behavior at a glance.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from ofdmsar import (
    PowerAllocation,
    Signaling,
    azimuth_compress,
    range_profile_cube,
    rcmc_bulk,
    sidelobe_stats,
    synthesize_raw,
)
from ofdmsar.cli import EXIT_CONFIG, EXIT_IO
from ofdmsar.config import load_config
from ofdmsar.errors import ConfigError, SceneFormatError
from ofdmsar.output import write_db_csv, write_pgm
from ofdmsar.scenes import point_scene


def main() -> int:
    """Run the experiment; a bad config or an I/O failure ends in one line
    and the exit code of the ``ofdmsar`` command (2 config, 4 I/O)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--snr-db", type=float, default=None,
                        help="defaults to the config's snr_db")
    parser.add_argument("--out", type=Path, default=Path("point_target_out"))
    args = parser.parse_args()
    try:
        run(args)
    except (SceneFormatError, OSError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


def run(args: argparse.Namespace) -> None:
    cfg = load_config(args.config)
    geom = cfg.geometry()
    snr_db = cfg.snr_db if args.snr_db is None else args.snr_db
    sigma2 = cfg.waveform_spec().noise_power(snr_db)
    args.out.mkdir(parents=True, exist_ok=True)

    for signaling in (Signaling.CONSTANT_MODULUS, Signaling.GAUSSIAN):
        spec = dataclasses.replace(cfg, signaling=signaling.value).waveform_spec()
        scene = point_scene(spec, 1)
        alloc = PowerAllocation.uniform(spec.n_subcarriers, spec.power_budget)
        cube = synthesize_raw(spec, geom, scene, alloc, sigma2, args.seed)
        profiles = range_profile_cube(cube)
        image = azimuth_compress(
            rcmc_bulk(profiles, geom, scene.range_cell_size), geom
        )
        tag = signaling.value.replace("-", "_")
        write_pgm(args.out / f"image_{tag}.pgm", image.db_image)
        peak = np.unravel_index(
            np.argmax(np.abs(image.complex_image)), image.db_image.shape
        )
        write_db_csv(args.out / f"azimuth_cut_{tag}.csv",
                     image.db_image[peak[0]][None, :])
        write_db_csv(args.out / f"range_cut_{tag}.csv",
                     image.db_image[:, peak[1]][None, :])
        rng_profile = np.abs(image.complex_image[:, peak[1]]) ** 2
        pslr, islr = sidelobe_stats(rng_profile)
        print(f"{signaling.value}: peak at cell ({int(peak[0])}, {int(peak[1])}), "
              f"range PSLR {pslr:.2f} dB, ISLR {islr:.2f} dB")
    print(f"outputs in {args.out}/")


if __name__ == "__main__":
    sys.exit(main())
