"""File writers: binary PGM images and CSV tables.

All writers are deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import echo
from .azimuth import DB_FLOOR

__all__ = ["write_pgm", "write_db_csv", "write_table_csv"]

#: A CSV cell's text as the integer of its bytes, padded with 0 bytes that are dropped:
#: "-", whole dB and "." in the low 4 bytes (_HEADS[w + 1] for w dB, _HEADS[0] for 0),
#: the 4 decimals (_DECIMALS[i] for i / 1e4 dB) in the high 4.
_HEADS = np.array(["0.", *(f"-{w}." for w in range(1 - int(DB_FLOOR)))], "S4")
_HEADS = _HEADS.view("<u4").astype("<u8")
_DECIMALS = sum((np.arange(10**4, dtype="<u8") // 10**(3 - j) % 10 + ord("0")) << (32 + 8 * j)
                for j in range(4))
_CELL = np.dtype([("body", "<u8"), ("end", "S2")])


def write_pgm(path, db_image: np.ndarray) -> None:
    """8-bit binary PGM (P5) with dB values mapped [DB_FLOOR, 0] -> [0, 255]."""
    scaled = np.subtract(db_image, DB_FLOOR, dtype=float)  # the one float array, reused
    np.clip(np.divide(scaled, -DB_FLOOR, out=scaled), 0.0, 1.0, out=scaled)
    pixels = np.rint(np.multiply(scaled, 255.0, out=scaled), out=scaled).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def write_db_csv(path, db_image: np.ndarray) -> None:
    """dB raster as CSV, each cell as "%.4f" writes it (0 as "0.0000") and each
    row ended in "\\r\\n", as ``csv.writer`` ends it.  The raster must lie on the
    1e-4 dB grid in [DB_FLOOR, 0], as a ``SarImage`` raster does, so every value
    reads back exactly; else ``ValueError`` is raised before the file is opened.
    It is encoded in row-major slices of ``echo._BLOCK_CELLS`` cells, which may cut a row.
    """
    db = np.asarray(db_image, dtype=float)
    flat, cols, size = db.reshape(-1), db.shape[-1], echo._BLOCK_CELLS
    starts = range(0, flat.size, size)
    for i in starts:
        block = flat[i:i + size]
        k = np.rint(block * -1e4)
        if not ((k / -1e4 == block) & (k >= 0) & (k <= -1e4 * DB_FLOOR)).all():
            raise ValueError(f"dB raster holds a value off the 1e-4 dB grid in [{DB_FLOOR}, 0]")
    with open(path, "wb") as fh:
        for i in starts:
            block = flat[i:i + size]
            whole, rest = np.divmod(np.rint(block * -1e4).astype(np.int32), 10**4)
            cells = np.empty(block.size, _CELL)
            cells["body"] = _HEADS.take(whole + (block < 0)) | _DECIMALS.take(rest)
            cells["end"] = b","
            # A row ends at each flat index i + j with (i + j + 1) % cols == 0.
            cells["end"][(-i - 1) % cols::cols] = b"\r\n"
            fh.write(cells.tobytes().translate(None, b"\0"))


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
