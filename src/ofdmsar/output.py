"""File writers: binary PGM images and CSV tables.

All writers are deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .azimuth import DB_FLOOR

__all__ = ["write_pgm", "write_db_csv", "write_table_csv"]

_BLOCK_CELLS = 4096  # cells encoded at a time, in whole rows; about 50 B of arrays each
#: A CSV cell's parts as integers of their bytes, padded with 0 bytes that are dropped:
#: "-", whole dB and "." (_HEADS[w + 1] for w dB, _HEADS[0] for 0); two pairs of decimals.
_HEADS = np.array(["0.", *(f"-{w}." for w in range(1 - int(DB_FLOOR)))]).astype("S").view("<u4")
_PAIRS = np.array([f"{i:02}" for i in range(100)]).astype("S").view("<u2")
_CELL = np.dtype([("head", "<u4"), ("hi", "<u2"), ("lo", "<u2"), ("end", "S2")])


def write_pgm(path, db_image: np.ndarray) -> None:
    """8-bit binary PGM (P5) with dB values mapped [DB_FLOOR, 0] -> [0, 255]."""
    db = np.asarray(db_image, dtype=float)
    scaled = np.clip((db - DB_FLOOR) / (-DB_FLOOR), 0.0, 1.0)
    pixels = np.rint(scaled * 255.0).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def write_db_csv(path, db_image: np.ndarray) -> None:
    """dB raster as CSV, each cell as "%.4f" writes it (0 as "0.0000") and each
    row ended in "\\r\\n", as ``csv.writer`` ends it.  The raster must lie on the
    1e-4 dB grid in [DB_FLOOR, 0], as a ``SarImage`` raster does, so every value
    reads back exactly; else ``ValueError`` is raised before the file is opened.
    """
    db = np.asarray(db_image, dtype=float)
    blocks = np.array_split(db, max(1, db.size // _BLOCK_CELLS))
    for block in blocks:
        k = np.rint(block * -1e4)
        if not ((k / -1e4 == block) & (k >= 0) & (k <= -1e4 * DB_FLOOR)).all():
            raise ValueError(f"dB raster holds a value off the 1e-4 dB grid in [{DB_FLOOR}, 0]")
    with open(path, "wb") as fh:
        for block in blocks:
            whole, rest = np.divmod(np.rint(block * -1e4).astype(np.int32), 10**4)
            cells = np.empty(block.shape, _CELL)
            cells["head"] = _HEADS[whole + (block < 0)]
            cells["hi"], cells["lo"] = _PAIRS[rest // 100], _PAIRS[rest % 100]
            cells["end"] = b","
            cells["end"][:, -1] = b"\r\n"
            fh.write(cells.tobytes().replace(b"\0", b""))


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
