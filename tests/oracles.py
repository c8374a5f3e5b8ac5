"""Explicit forms of what the package computes a faster way, kept as test oracles.

The package works in the received-spectrum domain of the symbol-eigenvalue
circular model only; these build the fast-time view of that model
(``apply_waveform``), the CP'd pulse, its circulant matrix and the linear
convolution with the cyclic prefix that the model replaces, so the tests can
check the two agree.  ``scene_coefficients_dense`` evaluates every grid cell
at every pulse with its own exponential and adds the columns in ascending
order, where the package evaluates one range-history kernel per occupied row
and adds each occupied column's in-beam window of it, and
``synthesize_raw_per_pulse`` builds noise-free echoes one pulse at a time in
fast time, where the package batches the pulses in the subcarrier domain.
The tests draw symbols through the package's ``draw_symbols``, whose one
Gaussian magnitude law is the law under which the EMSE constant A holds.
``write_db_csv_rows`` formats the dB raster one Python call per row, where the
package builds the same bytes from integer counts in numpy.
"""

import numpy as np
from scipy.linalg import circulant

from ofdmsar import Geometry, Scene, WaveformSpec
from ofdmsar.errors import DimensionError
from ofdmsar.geometry import (
    SPEED_OF_LIGHT,
    aperture_envelope,
    closest_approach_ranges,
    slant_range,
)


def apply_waveform(symbols: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Fast-time circular model ``ifft(S * fft(d))`` along axis 0 of (N,) or (N, P)."""
    return np.fft.ifft(symbols * np.fft.fft(d, axis=0), axis=0)


def modulate(symbols: np.ndarray, spec: WaveformSpec) -> np.ndarray:
    """The CP'd pulse: unitary IFFT of the (N,) symbols, last N-1 samples first."""
    if symbols.shape != (spec.n_subcarriers,):
        raise DimensionError(f"symbol shape {symbols.shape} != ({spec.n_subcarriers},)")
    body = np.fft.ifft(symbols, norm="ortho")
    return np.concatenate([body[body.size - spec.cp_len :], body])


def circulant_from_pulse(samples: np.ndarray, spec: WaveformSpec) -> np.ndarray:
    """Explicit circulant with the pulse body as first column.

    ``samples`` is the CP'd pulse from ``modulate``.  Column j is the body
    cyclically shifted down by j.  Its eigenvalues are the unnormalized DFT of
    the body, i.e. sqrt(N) times the modulated symbols; the
    1/sqrt(N)-normalized echo model matrix is this divided by sqrt(N).
    """
    body = samples[spec.cp_len :]
    if body.size != spec.n_subcarriers:
        raise DimensionError("pulse body length != N")
    return circulant(body)


def synthesize_pulse_linear_cp(samples: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Linear convolution of the CP'd pulse with d, then trimming.

    ``samples`` holds the N-1 sample prefix and the N-sample body.  Convolves
    them with d, drops the first and last N - 1 samples, and removes the
    sqrt(N) body scale so the result is directly comparable to the circular
    model.
    """
    d = np.asarray(d, dtype=complex)
    n = (samples.size + 1) // 2
    if d.size != n:
        raise DimensionError(f"coefficient length {d.size} != N = {n}")
    full = np.convolve(samples, d)
    return full[n - 1 : 2 * n - 1] / np.sqrt(n)


def scene_coefficients_dense(geom: Geometry, scene: Scene) -> np.ndarray:
    """Weighting coefficients d_m at every pulse of the grid, (M, n_pulses).

    Columns lie max(1, round(prf * rho_a / v)) pulses apart, the middle one
    at pulse n // 2.  Every grid cell is evaluated at every pulse with its own
    exponential, and the columns' terms are added one column at a time in
    ascending order.
    """
    p = np.arange(geom.n_pulses)
    step = max(1, round(geom.prf * geom.azimuth_resolution() / geom.velocity))
    rbar = closest_approach_ranges(geom, scene.n_range_cells, scene.range_cell_size)
    d = np.zeros((scene.n_range_cells, p.size), dtype=complex)
    for a in range(scene.n_azimuth):  # the columns in ascending order
        eta = (p - geom.n_pulses // 2 - (a - scene.n_azimuth // 2) * step) / geom.prf
        r = slant_range(geom, rbar[:, None], eta)
        phase = np.exp(-4j * np.pi * geom.carrier_freq * r / SPEED_OF_LIGHT)
        d += scene.rcs[:, a, None] * aperture_envelope(geom, eta) * phase
    return d


def synthesize_raw_per_pulse(
    geom: Geometry, scene: Scene, symbols: np.ndarray
) -> np.ndarray:
    """Noise-free fast-time echoes (N, P), one pulse at a time.

    Pulse p passes every grid cell's weighting coefficients at that pulse
    through the circular model with its own symbols, column p of ``symbols``.
    """
    d = scene_coefficients_dense(geom, scene)
    y = np.empty(symbols.shape, dtype=complex)
    for p in range(geom.n_pulses):
        y[:, p] = apply_waveform(symbols[:, p], d[:, p])
    return y


def write_db_csv_rows(path, db_image: np.ndarray) -> None:
    """The dB raster as CSV through one ``%.4f`` row format, rows ended in "\\r\\n"."""
    db = np.asarray(db_image, dtype=float)
    row_fmt = ",".join(["%.4f"] * db.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.writelines(row_fmt % tuple(row.tolist()) for row in db)
