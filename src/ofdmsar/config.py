"""Flat key=value experiment configuration with strict key checking.

Defaults reproduce the reference airborne scenario: 1 km altitude, sqrt(2) km
slant range, 40 m/s platform, 1 s aperture, 1.5 GHz bandwidth over 64
subcarriers at 9 GHz carrier, 800 Hz PRF.  Unknown keys are errors so typos
cannot silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .allocation import ChannelGains, TruncationPolicy
from .errors import ConfigError
from .geometry import Geometry, range_cell_size
from .waveform import WaveformSpec

__all__ = ["Config", "parse_config", "load_config"]

_MAX_IMAGE_CELLS = 2**24  # N x n_pulses; simulate peaks near 38 B a cell, 567 MiB at the cap


@dataclass
class Config:
    n_subcarriers: int = 64
    bandwidth: float = 1.5e9
    power_budget: float = 64.0
    signaling: str = "constant-modulus"
    altitude: float = 1000.0
    slant_range_center: float = math.sqrt(2.0) * 1000.0
    velocity: float = 40.0
    carrier_freq: float = 9.0e9
    prf: float = 800.0
    aperture_time: float = 1.0
    snr_db: float = 15.0
    tail_prob: float = 1e-3
    channel: str = "flat"  # "flat" or "multipath"
    channel_taps: int = 4
    channel_seed: int = 0
    scene: str = "point"  # "point", "car", or a scene-file path
    scene_azimuth: int = 64
    trials: int = 1000
    snr_grid: str = "0,10,20,30"
    tradeoff_points: int = 16

    def waveform_spec(self) -> WaveformSpec:
        self._gaussian()  # every subcommand rejects an unknown signaling
        # The spec sees only bandwidth / N, so the two keys are checked here, and
        # neither bandwidth / N nor the range cell c / (2 N (bandwidth / N)) may be 0.
        if self.n_subcarriers < 1:
            raise ConfigError(f"n_subcarriers = {self.n_subcarriers} must be >= 1")
        spacing = self.bandwidth / self.n_subcarriers
        if not (0.0 < spacing and 2.0 * self.n_subcarriers * spacing < np.inf):
            raise ConfigError(f"bandwidth = {self.bandwidth} must be finite and positive, "
                              "with bandwidth / n_subcarriers and c / (2 bandwidth) above 0")
        return WaveformSpec(self.n_subcarriers, spacing, self.power_budget)

    def geometry(self) -> Geometry:
        """Geometry of an image of N x n_pulses <= 2**24 cells, its swath in front of
        the platform and its ``scene_azimuth`` columns, a pulse apart or more, in it."""
        geom = Geometry(**{f.name: getattr(self, f.name) for f in fields(Geometry)})
        spec = self.waveform_spec()
        if spec.n_subcarriers * geom.n_pulses > _MAX_IMAGE_CELLS:
            raise ConfigError(f"prf * aperture_time = {geom.n_pulses} pulses times N = "
                              f"{spec.n_subcarriers} exceeds {_MAX_IMAGE_CELLS} image cells")
        # Row 0 of closest_approach_ranges, alone: the row array can overflow.
        near = geom.slant_range_center - (spec.n_subcarriers / 2) * range_cell_size(spec)
        if not near > 0.0:
            raise ConfigError(
                f"closest-approach range {near:.6g} m of the swath's near edge is "
                "not positive: slant_range_center must exceed n_subcarriers / 2 cells "
                "of c / (2 * bandwidth)"
            )
        if self.scene_azimuth > geom.n_pulses:
            raise ConfigError(f"scene_azimuth = {self.scene_azimuth} exceeds the pulse count "
                              f"{geom.n_pulses}, round(prf * aperture_time)")
        return geom

    def truncation_policy(self) -> TruncationPolicy:
        return TruncationPolicy(self.tail_prob)

    def symbol_policy(self) -> TruncationPolicy | None:
        """``simulate``'s symbol law: None (constant modulus) or ``truncation_policy()``."""
        policy = self.truncation_policy()  # tail_prob is checked under either law
        return policy if self._gaussian() else None

    def _gaussian(self) -> bool:
        if self.signaling not in ("constant-modulus", "gaussian"):
            raise ConfigError(f"unknown signaling mode {self.signaling!r}")
        return self.signaling == "gaussian"

    def channel_gains(self) -> ChannelGains:
        """Squared channel gains at unit noise power.

        "flat" is all-ones; "multipath" draws ``channel_taps`` i.i.d. complex
        Gaussian taps (seeded by ``channel_seed``) and takes the squared DFT
        magnitude, normalized to unit mean, giving a frequency-selective
        profile.
        """
        n = self.n_subcarriers
        if self.channel == "flat":
            return ChannelGains(np.ones(n))
        if self.channel == "multipath":
            m = self.channel_taps
            if not 1 <= m <= n:
                raise ConfigError(f"channel_taps = {m} is not in 1..n_subcarriers={n}")
            rng = np.random.default_rng(self.channel_seed)
            taps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            profile = np.abs(np.fft.fft(taps / np.sqrt(2.0 * m), n)) ** 2
            return ChannelGains(profile / profile.mean())
        raise ConfigError(f"unknown channel model {self.channel!r}")

    def snr_grid_values(self) -> list[float]:
        try:
            grid = [float(tok) for tok in self.snr_grid.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"malformed snr_grid {self.snr_grid!r}") from None
        if not grid:
            raise ConfigError(f"snr_grid {self.snr_grid!r} holds no SNR value")
        return grid

    def items(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def parse_config(text: str) -> Config:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    cfg = Config()
    if "n_subcarriers" in values:
        # power_budget and scene_azimuth track N unless set explicitly.
        cfg.n_subcarriers = values["n_subcarriers"]
        cfg.power_budget = float(cfg.n_subcarriers)
        cfg.scene_azimuth = cfg.n_subcarriers
    for key, value in values.items():
        setattr(cfg, key, value)
    return cfg


def load_config(path=None) -> Config:
    if path is None:
        return Config()
    return parse_config(Path(path).read_text())
