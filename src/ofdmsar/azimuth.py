"""Bulk RCMC and Range-Doppler azimuth compression.

Range cell migration is corrected with nearest-cell shifts computed from the
swath-center hyperbola, applied as one gather over all pulses; at the default
geometry the total migration is under two range cells, so sub-cell
interpolation buys nothing.  Azimuth focusing correlates each range row with
the conjugate quadratic-phase reference (zero Doppler centroid, single
reference range), implemented in the frequency domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .geometry import Geometry, slant_range

__all__ = ["SarImage", "rcmc_bulk", "rcmc_shifts", "azimuth_reference", "azimuth_compress"]

DB_FLOOR = -40.0


@dataclass(frozen=True)
class SarImage:
    """Focused complex image plus its peak-normalized dB magnitude raster.

    The raster lies in [DB_FLOOR, 0] on a 1e-4 dB grid, far finer than a PGM
    grey level (40/255 dB), so every value prints back exactly to 4 decimals.
    """

    complex_image: np.ndarray
    db_image: np.ndarray

    @classmethod
    def from_complex(cls, img: np.ndarray) -> "SarImage":
        mag = np.abs(img)
        peak = mag.max()
        if peak == 0.0:
            # Degenerate all-zero input: the raster is all-floor by convention.
            return cls(img, np.full(img.shape, DB_FLOOR))
        with np.errstate(divide="ignore"):
            db = np.clip(20.0 * np.log10(mag / peak), DB_FLOOR, 0.0)
        del mag  # freed first, so rounding adds no array to the peak memory
        return cls(img, np.rint(db * 1e4) / 1e4 + 0.0)  # + 0.0 turns -0.0 into 0.0


def _check_pulses(profiles: np.ndarray, geom: Geometry) -> None:
    if profiles.shape[1] != geom.n_pulses:
        raise DimensionError(
            f"profiles have {profiles.shape[1]} pulses, geometry has {geom.n_pulses}"
        )


def rcmc_shifts(geom: Geometry, range_cell_size: float) -> np.ndarray:
    """Integer cell shifts round(dR(eta) / cell) from the center hyperbola."""
    rc = geom.slant_range_center
    dr = slant_range(geom, rc, geom.slow_time()) - rc
    return np.rint(dr / range_cell_size).astype(int)


def rcmc_bulk(
    profiles: np.ndarray, geom: Geometry, range_cell_size: float
) -> np.ndarray:
    """Shift each pulse's range column back by its bulk migration.

    Output cell m of pulse p is input cell m + shift_p; cells whose source
    lies outside the swath are zeroed (validity mask).
    """
    _check_pulses(profiles, geom)
    n = profiles.shape[0]
    src = np.arange(n)[:, None] + rcmc_shifts(geom, range_cell_size)[None, :]
    valid = (src >= 0) & (src < n)
    out = np.take_along_axis(profiles, np.clip(src, 0, n - 1), axis=0)
    out[~valid] = 0.0
    return out


def azimuth_reference(geom: Geometry) -> np.ndarray:
    """Quadratic-phase azimuth chirp exp(-j 2 pi v^2 t^2 / (lambda R_c))."""
    t = geom.slow_time()
    lam_rc = geom.wavelength * geom.slant_range_center
    return np.exp(-2j * np.pi * geom.velocity**2 * t**2 / lam_rc)


def azimuth_compress(profiles: np.ndarray, geom: Geometry) -> SarImage:
    """Correlate every range row with the conjugate azimuth reference.

    Circular correlation via FFT; the output is rolled so a scatterer whose
    closest approach falls at pulse index p peaks at azimuth index p.
    """
    _check_pulses(profiles, geom)
    ref_f = np.conj(np.fft.fft(azimuth_reference(geom)))
    corr = np.fft.ifft(np.fft.fft(profiles, axis=1) * ref_f[None, :], axis=1)
    focused = np.roll(corr, geom.n_pulses // 2, axis=1)
    return SarImage.from_complex(focused)
