"""Demo scene generators: point target and an extended car silhouette."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import _MAX_CELLS, Scene, range_cell_size
from .waveform import WaveformSpec

__all__ = ["point_scene", "car_scene", "make_scene"]


def point_scene(spec: WaveformSpec, n_azimuth: int = 1) -> Scene:
    """Unit scatterer at the center of the range swath and of the columns."""
    rcs = np.zeros((spec.n_subcarriers, n_azimuth))
    rcs[spec.n_subcarriers // 2, n_azimuth // 2] = 1.0
    return Scene(rcs, range_cell_size(spec))


def car_scene(spec: WaveformSpec) -> Scene:
    """Side-view car silhouette of 0/1 scatterers on an N x N grid.

    Rows are range cells, columns azimuth cells; each occupied cell is a
    unit-RCS point scatterer.
    """
    n = spec.n_subcarriers
    if n * n > _MAX_CELLS:
        raise ConfigError(f"n_subcarriers = {n} makes a car scene of N^2 cells past {_MAX_CELLS}")
    grid = np.zeros((n, n))
    # Proportional layout so any N >= 16 yields a recognizable shape.
    r0, r1 = int(0.40 * n), int(0.60 * n)  # body rows
    c0, c1 = int(0.15 * n), int(0.85 * n)  # body columns
    grid[r0:r1, c0:c1] = 1.0
    # Cabin on top of the body.
    cr0 = int(0.28 * n)
    cc0, cc1 = int(0.32 * n), int(0.68 * n)
    grid[cr0:r0, cc0:cc1] = 1.0
    # Wheels below the body.
    wr0, wr1 = r1, min(int(0.68 * n), n)
    ww = max(1, int(0.08 * n))
    for wc in (int(0.25 * n), int(0.70 * n)):
        grid[wr0:wr1, wc : wc + ww] = 1.0
    return Scene(grid, range_cell_size(spec))


def make_scene(kind: str, spec: WaveformSpec, n_azimuth: int) -> Scene:
    """The demo scene ``kind``; ``n_azimuth`` >= 1 sets the point scene's width, not the car's."""
    if kind == "point":
        return point_scene(spec, n_azimuth)
    if kind == "car":
        return car_scene(spec)
    raise ValueError(f"unknown scene kind {kind!r}")
