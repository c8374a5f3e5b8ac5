"""Side-looking SAR geometry, slow-time grid, scenes, and pulse coefficients.

A scatterer in range cell m and azimuth column a contributes, at pulse p, the
weighting coefficient

    d_m = g_m * env(o / prf) * exp(-j 4 pi f_c R_m(o / prf) / c)

where o = p - n_pulses // 2 - s_a is the pulse's offset from the column's
closest approach, R_m is row m's hyperbolic slant-range history and env a
rectangular aperture window of width T_a.  Columns lie a whole number of
pulses apart, so the scatterers of row m share one range-history kernel on the
in-beam offsets, summed pulse-major in ascending column order with the dense
sum's bits; ``scene_coefficients`` returns d at every pulse of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, SceneFormatError
from .waveform import WaveformSpec

SPEED_OF_LIGHT = 299792458.0
_LOG_PHASE_LIMIT = 32 * np.log(2.0)
# Cells of one array: the image, N x n_pulses (simulate peaks near 30 B a cell under
# tracemalloc at 256 x 2048, 425 MiB RSS at the cap), the car N x N, the tradeoff N x points.
_MAX_CELLS = 2**24

__all__ = ["SPEED_OF_LIGHT", "Geometry", "Scene", "range_cell_size", "slant_range",
           "scene_coefficients", "load_scene", "save_scene"]


@dataclass(frozen=True)
class Geometry:
    """Broadside stripmap geometry of the moving platform."""

    slant_range_center: float
    velocity: float
    carrier_freq: float
    prf: float
    aperture_time: float

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < np.inf:
                raise ConfigError(f"{f.name} must be finite and positive")
        if not 1.5 <= self.prf * self.aperture_time < np.inf:  # n_pulses rounds it
            raise ConfigError("prf * aperture_time must round to a finite count of >= 2 pulses")
        # Range histories square R_m < 2 R_c, v and v eta with |eta| <= T / 2.
        vt = self.velocity * self.aperture_time
        if not (0.0 < vt and max(self.slant_range_center, self.velocity, vt) <= 1e150):
            raise ConfigError("velocity * aperture_time must not round to 0, and neither it, "
                              "velocity nor slant_range_center may exceed 1e150")
        # Phases past 2**32 rad resolve worse than 1e-6 rad in float64; summed as
        # logs, the bounds are checked without overflow.
        f, r, vt = np.log([self.carrier_freq, self.slant_range_center, vt])
        if np.log(4 * np.pi / SPEED_OF_LIGHT) + f + r > _LOG_PHASE_LIMIT:
            raise ConfigError("carrier phase 4 pi carrier_freq slant_range_center / c "
                              "exceeds 2**32 rad")
        if np.log(np.pi / (2 * SPEED_OF_LIGHT)) + 2 * vt + f - r > _LOG_PHASE_LIMIT:
            raise ConfigError("azimuth chirp phase pi (velocity aperture_time)^2 / "
                              "(2 wavelength slant_range_center) exceeds 2**32 rad")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def n_pulses(self) -> int:
        return int(round(self.prf * self.aperture_time))

    def slow_time(self) -> np.ndarray:
        """Centered slow-time grid, one entry per pulse."""
        n = self.n_pulses
        return (np.arange(n) - n // 2) / self.prf

    def azimuth_resolution(self) -> float:
        return self.wavelength * self.slant_range_center / (
            2.0 * self.velocity * self.aperture_time
        )


@dataclass(frozen=True)
class Scene:
    """Complex RCS grid: rows are range cells, columns azimuth cells.  ``rcs`` is a
    read-only copy of the array given, so a scene cannot change once made."""

    rcs: np.ndarray
    range_cell_size: float

    def __post_init__(self):
        rcs = np.array(np.atleast_2d(self.rcs), dtype=complex)
        rcs.flags.writeable = False
        object.__setattr__(self, "rcs", rcs)
        if self.range_cell_size <= 0:
            raise ValueError("range_cell_size must be positive")

    @property
    def n_range_cells(self) -> int:
        return self.rcs.shape[0]

    @property
    def n_azimuth(self) -> int:
        return self.rcs.shape[1]


def range_cell_size(spec: WaveformSpec) -> float:
    """Range resolution c / (2 B) of the waveform: a scene's row spacing."""
    return SPEED_OF_LIGHT / (2.0 * spec.bandwidth)


def slant_range(geom: Geometry, r_bar, eta) -> float | np.ndarray:
    """Hyperbolic range history sqrt(r_bar^2 + (v * eta)^2), broadcast over
    ``r_bar`` and ``eta``; ``Config.geometry`` keeps every r_bar positive."""
    return np.sqrt(r_bar**2 + (geom.velocity * np.asarray(eta)) ** 2)


def closest_approach_ranges(geom: Geometry, m: int, cell_size: float) -> np.ndarray:
    """Closest-approach ranges of m range cells one cell apart, from R_c - (m/2)
    cells, so the swath-center cell m // 2 sits exactly at the reference range."""
    r0 = geom.slant_range_center - (m / 2) * cell_size
    return r0 + np.arange(m) * cell_size


def aperture_envelope(geom: Geometry, eta) -> np.ndarray:
    """Rectangular azimuth envelope: 1 inside the aperture, 0 outside."""
    return (np.abs(eta) <= geom.aperture_time / 2.0).astype(float)


def scene_coefficients(geom: Geometry, scene: Scene) -> np.ndarray:
    """Coefficients d_m summed over the columns, (M, n_pulses): column p is
    pulse p of ``geom.slow_time()``.

    The kernel exp(-j 4 pi f_c R_m(o / prf) / c) is evaluated pulse-major, over
    the occupied rows m only, on the in-beam offsets o = -k..k (on 0..k and
    mirrored, as R_m depends on o^2).  In ascending column order, each occupied
    column adds rcs times the slice of it on the grid to one contiguous block of
    a pulse-major sum; adjacent columns of equal rcs share one product.  Each
    term is rounded once, as the dense sum rounds it, and the ±0 terms of empty
    cells change no bit of a sum that starts at +0.  It is copied once into d.
    """
    n = geom.n_pulses
    rows, cols = np.nonzero(scene.rcs.T)[::-1]  # by column
    base = n // 2 + 1  # above every in-beam |o|, as prf T < n_pulses + 1
    o = np.arange(-base, base + 1)
    o = o[aperture_envelope(geom, o / geom.prf).astype(bool)]
    k = o.size // 2  # o is -k..k
    kernel_rows = np.unique(rows)
    rbar = closest_approach_ranges(geom, scene.n_range_cells, scene.range_cell_size)
    r = slant_range(geom, rbar[kernel_rows], o[k:, None] / geom.prf)
    kernel = np.empty((o.size, kernel_rows.size), dtype=complex)
    kernel[k:] = np.exp(-4j * np.pi * geom.carrier_freq * r / SPEED_OF_LIGHT)
    kernel[:k] = kernel[:k:-1]
    # Columns lie max(1, round(prf rho_a / v)) pulses apart, the count nearest one azimuth
    # cell; a step past n_pulses, where no other column is ever in the beam, is held.
    step = max(1, round(min(geom.prf * geom.azimuth_resolution() / geom.velocity, n)))
    columns = np.unique(cols)
    firsts = n // 2 + (columns - scene.n_azimuth // 2) * step + o[0]  # pulse at o[0]
    lo, hi = np.maximum(firsts, 0), np.minimum(firsts + o.size, n)
    columns, firsts, lo, hi = (x[lo < hi] for x in (columns, firsts, lo, hi))
    rcs = scene.rcs[kernel_rows]
    new = np.ones(columns.size, dtype=bool)  # a run starts where != finds a difference
    new[1:] = np.any(rcs[:, columns[1:]] != rcs[:, columns[:-1]], axis=0)
    acc, prod = np.zeros((n, kernel_rows.size), dtype=complex), np.empty_like(kernel)
    starts = np.flatnonzero(new)
    for j0, j1 in zip(starts, [*starts[1:], columns.size]):
        klo, khi = lo[j1 - 1] - firsts[j1 - 1], hi[j0] - firsts[j0]  # later columns read lower o
        np.multiply(rcs[:, columns[j0]], kernel[klo:khi], out=prod[klo:khi])
        for s, a, b in zip(firsts[j0:j1], lo[j0:j1], hi[j0:j1]):
            acc[a:b] += prod[a - s:b - s]
    kernel = prod = None  # freed before the result is allocated
    d = np.zeros((scene.n_range_cells, n), dtype=complex)
    d[kernel_rows] = acc.T
    return d


# --- scene file I/O ---------------------------------------------------------
#
# Plain text: a header line "# M n_az", then M rows of n_az comma-separated
# values.  Real entries are bare floats; complex entries use "re:im".


def _format_value(z: complex) -> str:
    if z.imag == 0.0:
        return repr(float(z.real))
    return f"{float(z.real)!r}:{float(z.imag)!r}"


def _parse_value(tok: str) -> complex:
    try:
        re_s, im_s = tok.split(":") if ":" in tok else (tok, "0")
        z = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise SceneFormatError(f"bad scene value {tok!r}") from exc
    if not np.isfinite(z):
        raise SceneFormatError(f"non-finite scene value {tok!r}")
    if abs(z) > 1e100:  # the echo and its image would overflow
        raise SceneFormatError(f"scene value {tok!r} exceeds 1e100 in magnitude")
    return z


def save_scene(scene: Scene, path) -> None:
    lines = [f"# {scene.n_range_cells} {scene.n_azimuth}"]
    for row in scene.rcs:
        lines.append(",".join(_format_value(z) for z in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_text(path) -> str:
    try:  # a decode error is a ValueError: raise the OSError that exits 4, naming the file
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_scene(path, spec: WaveformSpec) -> Scene:
    """Parse a scene file and validate it against the waveform numerology."""
    text = read_text(path)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise SceneFormatError("missing '# M n_az' header line")
    try:
        m, n_az = (int(t) for t in lines[0][1:].split())
    except ValueError as exc:
        raise SceneFormatError("malformed header line") from exc
    if min(m, n_az) < 1:
        raise SceneFormatError(f"header '{lines[0]}' holds a count below 1")
    rows = lines[1:]
    if len(rows) != m:
        raise SceneFormatError(f"expected {m} rows, found {len(rows)}")
    for i, width in enumerate(row.count(",") + 1 for row in rows):  # before sizing rcs
        if width != n_az:
            raise SceneFormatError(f"row {i}: expected {n_az} values, got {width}")
    rcs = np.empty((m, n_az), dtype=complex)
    for i, row in enumerate(rows):
        rcs[i] = [_parse_value(t) for t in row.split(",")]
    if m != spec.n_subcarriers:
        raise SceneFormatError(
            f"scene has {m} range cells but SWMP requires {spec.n_subcarriers}"
        )
    return Scene(rcs, range_cell_size(spec))
