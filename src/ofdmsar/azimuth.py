"""Bulk RCMC, Range-Doppler azimuth compression, and ``form_image``, the chain.

Range cell migration is corrected with nearest-cell shifts computed from the
swath-center hyperbola; at the default geometry the total migration is under
two range cells, so sub-cell interpolation buys nothing.  Azimuth focusing
correlates each range row with the conjugate quadratic-phase reference (zero
Doppler centroid, single reference range), in the frequency domain.  Both work
in place, so ``form_image`` forms an image in its scene-coefficient array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import echo, rangeproc
from .allocation import ConstantModulus, PowerAllocation, SymbolLaw
from .errors import DimensionError
from .geometry import Geometry, Scene, slant_range
from .waveform import WaveformSpec

__all__ = ["SarImage", "rcmc_bulk", "rcmc_shifts", "azimuth_reference", "azimuth_compress",
           "form_image"]

DB_FLOOR = -40.0


@dataclass(frozen=True)
class SarImage:
    """Focused complex image, its peak-normalized dB magnitude raster and the
    (row, column) of its first largest magnitude, as ``argmax`` finds it.

    The raster lies in [DB_FLOOR, 0] on a 1e-4 dB grid, far finer than a PGM
    grey level (40/255 dB), so every value prints back exactly to 4 decimals.
    """

    complex_image: np.ndarray
    db_image: np.ndarray
    peak_cell: tuple[int, int]

    @classmethod
    def from_complex(cls, img: np.ndarray) -> "SarImage":
        db = np.abs(img)  # the raster's one array: each step below writes into it
        first = int(np.argmax(db))
        peak, cell = db.flat[first], tuple(int(i) for i in np.unravel_index(first, db.shape))
        if peak == 0.0:
            # Degenerate all-zero input: the raster is all-floor by convention.
            return cls(img, np.full(img.shape, DB_FLOOR), cell)
        with np.errstate(divide="ignore"):
            np.log10(np.divide(db, peak, out=db), out=db)
        np.clip(np.multiply(db, 20.0, out=db), DB_FLOOR, 0.0, out=db)
        np.divide(np.rint(np.multiply(db, 1e4, out=db), out=db), 1e4, out=db)
        return cls(img, np.add(db, 0.0, out=db), cell)  # + 0.0 turns -0.0 into 0.0


def _check_pulses(profiles: np.ndarray, geom: Geometry) -> None:
    if profiles.shape[1] != geom.n_pulses:
        raise DimensionError(
            f"profiles have {profiles.shape[1]} pulses, geometry has {geom.n_pulses}"
        )


def rcmc_shifts(geom: Geometry, range_cell_size: float, n_cells: int) -> np.ndarray:
    """Integer cell shifts round(dR(eta) / cell) from the center hyperbola, held to
    [-n_cells, n_cells], as a shift of n_cells or more empties a column anyway."""
    rc = geom.slant_range_center
    dr = slant_range(geom, rc, geom.slow_time()) - rc
    return np.rint(np.clip(dr / range_cell_size, -n_cells, n_cells)).astype(int)


def rcmc_bulk(
    profiles: np.ndarray, geom: Geometry, range_cell_size: float
) -> np.ndarray:
    """Shift each pulse's range column back by its bulk migration, in place.

    Output cell m of pulse p is input cell m + shift_p; cells whose source
    lies outside the swath are zeroed.  ``profiles`` is overwritten and
    returned; the pulses that share a shift move together.
    """
    _check_pulses(profiles, geom)
    n = profiles.shape[0]
    shifts = rcmc_shifts(geom, range_cell_size, n)
    for s in np.unique(shifts[shifts != 0]).tolist():
        pulses, lo, hi = shifts == s, max(0, -s), min(n, n - s)  # lo:hi have a source
        profiles[lo:hi, pulses] = profiles[lo + s:hi + s, pulses]
        profiles[:lo, pulses] = profiles[hi:, pulses] = 0.0
    return profiles


def azimuth_reference(geom: Geometry) -> np.ndarray:
    """Quadratic-phase azimuth chirp exp(-j 2 pi v^2 t^2 / (lambda R_c))."""
    t = geom.slow_time()
    lam_rc = geom.wavelength * geom.slant_range_center
    return np.exp(-2j * np.pi * geom.velocity**2 * t**2 / lam_rc)


def azimuth_compress(profiles: np.ndarray, geom: Geometry) -> SarImage:
    """Correlate every range row with the conjugate azimuth reference.

    Circular correlation via FFT; the output is rolled so a scatterer whose
    closest approach falls at pulse index p peaks at azimuth index p.  A
    complex ``profiles`` is overwritten, a block of whole rows at a time, and
    becomes the image's ``complex_image``.
    """
    _check_pulses(profiles, geom)
    profiles = np.asarray(profiles, dtype=complex)
    ref_f = np.conj(np.fft.fft(azimuth_reference(geom)))
    rows = max(1, echo._BLOCK_CELLS // geom.n_pulses)
    for r in range(0, profiles.shape[0], rows):
        corr = np.fft.fft(profiles[r:r + rows], axis=1)
        corr *= ref_f
        profiles[r:r + rows] = np.roll(np.fft.ifft(corr, axis=1), geom.n_pulses // 2, axis=1)
    return SarImage.from_complex(profiles)


def form_image(spec: WaveformSpec, geom: Geometry, scene: Scene, alloc: PowerAllocation,
               sigma2: float, seed: int, law: SymbolLaw = ConstantModulus()) -> SarImage:
    """The image of ``scene``, formed in its scene-coefficient array: synthesis and LS
    run on the blocks of whole pulses that ``echo.pulse_blocks`` draws from the seed's
    streams 0 and 1, each as it is taken, and each block's profiles overwrite its
    coefficients; RCMC and focusing then work in place.
    ``azimuth_compress(rcmc_bulk(range_profile_cube(synthesize_raw(...))))`` draws the
    same streams as one cube: the whole-cube reference the tests and perfbench use.
    Each stage is looked up through its module, where a tracer can wrap it."""
    cells, p = echo.scene_coefficients(geom, scene), 0
    for symbols, noise in echo.pulse_blocks(seed, (), spec, alloc, law, sigma2, geom.n_pulses):
        block = cells[:, p:p + symbols.shape[1]]
        block[:] = rangeproc.ls_estimate(echo.synthesize_pulse(symbols, block, noise),
                                         symbols, alloc)
        p += symbols.shape[1]
    return azimuth_compress(rcmc_bulk(cells, geom, scene.range_cell_size), geom)
