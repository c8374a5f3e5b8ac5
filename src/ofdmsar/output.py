"""File writers: binary PGM images and CSV tables.

All writers are deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .azimuth import DB_FLOOR

__all__ = ["write_pgm", "write_db_csv", "write_table_csv"]


def write_pgm(path, db_image: np.ndarray) -> None:
    """8-bit binary PGM (P5) with dB values mapped [DB_FLOOR, 0] -> [0, 255]."""
    db = np.asarray(db_image, dtype=float)
    scaled = np.clip((db - DB_FLOOR) / (-DB_FLOOR), 0.0, 1.0)
    pixels = np.rint(scaled * 255.0).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def write_db_csv(path, db_image: np.ndarray) -> None:
    """dB raster as CSV to four decimals, one row per range cell.

    Each row ends in "\\r\\n", as ``csv.writer`` ends it.  A ``SarImage``
    raster is on the 1e-4 dB grid, so every value reads back exactly.
    """
    db = np.asarray(db_image, dtype=float)
    row_fmt = ",".join(["%.4f"] * db.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.writelines(row_fmt % tuple(row.tolist()) for row in db)


def write_table_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    header = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(v) if isinstance(v, float) else v for v in (row[h] for h in header)]
            )
