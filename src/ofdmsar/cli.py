"""Batch command-line front-end.

Subcommands: ``allocate`` (power allocation for a channel and rate target),
``simulate`` (scene -> raw data -> focused image files; for a one-scatterer
scene the range sidelobe ratios), ``mse-sweep`` (MSE-vs-SNR table),
``tradeoff`` (imaging-vs-rate curve), ``scene-gen`` (demo scene files).  A
flag named after a config key (``--snr-db``, ``--scene``, ``--trials``;
``--points`` for ``tradeoff_points``) overrides that key, and every run
echoes the resolved configuration and master seed; identical config + seed
gives byte-identical outputs.

Exit codes: 0 ok, else the code of an ``OfdmSarError`` (2 config error, 3
infeasible problem, 4 bad scene file) or 4 for an ``OSError``, with one line on
stderr.  Any other exception is a fault and ends in a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import allocation, azimuth, metrics, scenes
from .config import Config, load_config
from .errors import EXIT_IO, EXIT_OK, ConfigError, NoPeakError, OfdmSarError
from .geometry import load_scene, save_scene
from .output import write_db_csv, write_pgm, write_table_csv

_KEYS = {f.name for f in dataclasses.fields(Config)}


@functools.cache  # one parser a process, built by the first run, not on import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdmsar",
        description="OFDM SAR imaging and joint-waveform-design toolkit",
    )
    parser.add_argument("--config", type=Path, default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    # An override flag's dest is the config key it sets; `command` is the handler.
    p = sub.add_parser("allocate", help="compute a power allocation")
    p.set_defaults(command=_cmd_allocate)
    p.add_argument("--rate-target", type=str, default=None,
                   help="rate floor in bits per channel use, or 'capacity'")
    p.add_argument("--snr-db", type=float, default=None)

    p = sub.add_parser("simulate", help="synthesize echoes and form a SAR image")
    p.set_defaults(command=_cmd_simulate)
    p.add_argument("--scene", type=str, default=None,
                   help="'point', 'car', or a scene file path (overrides config)")
    p.add_argument("--snr-db", type=float, default=None)

    p = sub.add_parser("mse-sweep", help="empirical vs analytic MSE over SNR")
    p.set_defaults(command=_cmd_mse_sweep)
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("tradeoff", help="imaging EMSE vs communication rate curve")
    p.set_defaults(command=_cmd_tradeoff)
    p.add_argument("--points", dest="tradeoff_points", type=int, default=None)
    p.add_argument("--snr-db", type=float, default=None)

    p = sub.add_parser("scene-gen", help="write a demo scene file")
    p.set_defaults(command=_cmd_scene_gen)
    p.add_argument("--kind", choices=["point", "car"], default="point")

    return parser


def _echo_config(cfg: Config, seed: int) -> None:
    for name, value in cfg.items():
        print(f"{name} = {value}")
    print(f"seed = {seed}")


def _resolve_scene(cfg: Config, spec):
    if cfg.scene in ("point", "car"):
        # The point scatterer's middle column lies at offset 0 at any width, so one
        # column images the same; a width below 1 is still refused.
        return scenes.make_scene(cfg.scene, spec, min(cfg.scene_azimuth, 1))
    return load_scene(cfg.scene, spec)


def _noise_power(spec, snr_db: float, key: str) -> float:
    """sigma^2 at ``snr_db``, the value of config key ``key``, for a channel: an SNR
    of at most 1000 dB keeps P_k g_k <= N^2 1e100, and the gains, at most N at unit
    noise power as their mean is 1, are divided by sigma^2."""
    sigma2 = spec.noise_power(snr_db, key)
    if not (snr_db <= 1000.0 and spec.n_subcarriers < sigma2 * sys.float_info.max):
        raise ConfigError(f"{key} holds {snr_db!r} dB, which leaves no noise power for a "
                          f"channel (sigma^2 = {sigma2!r}): SNR past 1000 dB or N / sigma^2 inf")
    return sigma2


def _channel_setup(cfg: Config):
    """Spec, noise power at ``snr_db`` and channel gains at that noise power."""
    spec = cfg.waveform_spec()
    sigma2 = _noise_power(spec, cfg.snr_db, "snr_db")
    return spec, sigma2, cfg.channel_gains().rescaled(sigma2)


def _cmd_allocate(cfg: Config, args, out: Path) -> int:
    spec, sigma2, ch = _channel_setup(cfg)
    policy = cfg.truncation_policy()
    capacity = allocation.achievable_rate(allocation.water_filling(ch, spec.power_budget), ch)
    if args.rate_target is None:
        alloc = allocation.PowerAllocation.uniform(len(ch), spec.power_budget)
    else:
        try:
            r0 = capacity if args.rate_target == "capacity" else float(args.rate_target)
        except ValueError:
            r0 = np.nan
        if not r0 > -np.inf:  # not a number, NaN or -inf
            raise ConfigError("--rate-target takes a number of bits or 'capacity', "
                              f"not {args.rate_target!r}")
        alloc = allocation.emse_rate_constrained(ch, spec.power_budget, r0, policy)
    rate = allocation.achievable_rate(alloc, ch)
    emse = allocation.emse_of_alloc(alloc, sigma2, policy)
    print(f"capacity_bits = {capacity!r}")
    print(f"rate_bits = {rate!r}")
    print(f"rate_bits_scaled_by_bandwidth = {rate * spec.bandwidth!r}")
    print(f"emse = {emse!r}")
    rows = [{"k": k, "P_k": float(p), "g_k": float(g)}
            for k, (p, g) in enumerate(zip(alloc.powers, ch.gains))]
    write_table_csv(out / "allocation.csv", rows)
    print(f"wrote {out / 'allocation.csv'}")
    return EXIT_OK


def _cmd_simulate(cfg: Config, args, out: Path) -> int:
    spec = cfg.waveform_spec()
    geom = cfg.geometry()
    sigma2 = spec.noise_power(cfg.snr_db)
    scene = _resolve_scene(cfg, spec)
    alloc = allocation.PowerAllocation.uniform(spec.n_subcarriers, spec.power_budget)
    image = azimuth.form_image(spec, geom, scene, alloc, sigma2, args.seed, cfg.symbol_policy())
    row, col = image.peak_cell
    print(f"peak_cell = {row} {col}")
    if scene.occupied[0].size == 1:  # else the cut crosses other scatterers
        try:
            pslr, islr = metrics.sidelobe_stats(np.abs(image.complex_image[:, col]) ** 2)
        except NoPeakError:
            pass  # fewer than 3 range cells: no ratios to report
        else:
            print(f"range_pslr_db = {pslr!r}")
            print(f"range_islr_db = {islr!r}")
    db = image.db_image
    del image  # only the raster is held through the writers' buffers
    write_pgm(out / "image.pgm", db)
    write_db_csv(out / "image_db.csv", db)
    print(f"wrote {out / 'image.pgm'}")
    print(f"wrote {out / 'image_db.csv'}")
    return EXIT_OK


def _cmd_mse_sweep(cfg: Config, args, out: Path) -> int:
    spec, grid = cfg.waveform_spec(), cfg.snr_grid_values()
    for snr_db in grid:
        _noise_power(spec, snr_db, "snr_grid")
    rows = metrics.mse_vs_snr(
        spec, cfg.channel_gains(), grid, cfg.trials, args.seed, cfg.truncation_policy())
    write_table_csv(out / "mse_sweep.csv", rows)
    print(f"wrote {out / 'mse_sweep.csv'}")
    return EXIT_OK


def _cmd_tradeoff(cfg: Config, args, out: Path) -> int:
    spec, sigma2, ch = _channel_setup(cfg)
    points = allocation.tradeoff_sweep(
        ch, spec.power_budget, sigma2, cfg.truncation_policy(), cfg.tradeoff_points
    )
    rows = [{"rate_floor": pt.rate_floor, "rate_achieved": pt.rate_achieved, "emse": pt.emse}
            for pt in points]
    write_table_csv(out / "tradeoff.csv", rows)
    print(f"wrote {out / 'tradeoff.csv'}")
    return EXIT_OK


def _cmd_scene_gen(cfg: Config, args, out: Path) -> int:
    spec = cfg.waveform_spec()
    cfg.geometry()  # the scene's range swath must lie in front of the platform
    scene = scenes.make_scene(args.kind, spec, cfg.scene_azimuth)
    path = out / f"scene_{args.kind}.txt"
    save_scene(scene, path)
    print(f"wrote {path}")
    return EXIT_OK


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed {args.seed} must be >= 0")
        cfg = load_config(args.config)
        flags = {k: v for k, v in vars(args).items() if v is not None and k in _KEYS}
        cfg = dataclasses.replace(cfg, **flags)
        args.out.mkdir(parents=True, exist_ok=True)
        _echo_config(cfg, args.seed)
        return args.command(cfg, args, args.out)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except OfdmSarError as exc:
        if exc.exit_code is None:
            raise
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
