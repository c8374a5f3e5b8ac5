import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ofdmsar import echo
from ofdmsar.azimuth import DB_FLOOR, SarImage
from ofdmsar.cli import EXIT_OK, run
from ofdmsar.output import write_db_csv, write_pgm
from oracles import write_db_csv_rows

# dB magnitudes in [-40, 0]; -4e-5 dB rounds to a zero that must not print as
# "-0.0000", and -5e-5 dB lies on a rounding boundary.
DB_RASTERS = arrays(
    float,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-40.0, 0.0) | st.sampled_from([-4e-5, -5e-5]),
)


@settings(max_examples=60, deadline=None)
@given(db=DB_RASTERS)
@example(db=np.array([[-40.0, 0.0, -4e-5], [-5e-5, -0.30000000000000004, -12.5]]))
def test_db_csv_reads_back_the_raster_exactly(db):
    raster = SarImage.from_complex(10.0 ** (db / 20.0)).db_image
    assert (np.rint(raster * 1e4) / 1e4 + 0.0).tobytes() == raster.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "image_db.csv"
        write_db_csv(path, raster)
        text = path.read_bytes().decode("ascii")
    rows = text.split("\r\n")
    assert rows.pop() == "" and len(rows) == raster.shape[0]
    cells = [row.split(",") for row in rows]
    assert all("\n" not in cell and cell != "-0.0000" for row in cells for cell in row)
    read = np.array([[float(cell) for cell in row] for row in cells])
    assert read.shape == raster.shape
    assert read.tobytes() == raster.tobytes()


@pytest.mark.parametrize(
    "scene_cfg", ["scene = point\n", "scene = car\nsignaling = gaussian\n"]
)
@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_pgm_is_the_quantization_of_the_db_csv(tmp_path, scene_cfg, seed):
    # What the benchmark checks on every image: image.pgm, re-derived from the
    # parsed image_db.csv, is the same file, and the raster peaks at 0 dB.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_subcarriers = 16\nprf = 64\n" + scene_cfg)
    out = tmp_path / "run"
    assert run(["--config", str(cfg), "--seed", seed, "--out", str(out),
                "simulate"]) == EXIT_OK
    lines = (out / "image_db.csv").read_text().split()
    db = np.array([[float(v) for v in line.split(",")] for line in lines])
    write_pgm(tmp_path / "reference.pgm", db)
    assert (out / "image.pgm").read_bytes() == (tmp_path / "reference.pgm").read_bytes()
    assert db.shape == (16, 64) and db.max() == 0.0


# Every on-grid value from the floor to 0 dB, and the cells whose text is
# irregular: 0 (no sign), the floor, one whole-dB digit against two.
GRID_RASTERS = arrays(
    float,
    st.tuples(st.integers(1, 6), st.integers(1, 9)),
    elements=st.floats(DB_FLOOR, 0.0)
    | st.sampled_from([0.0, DB_FLOOR, -9.9999, -10.0, -0.0001, -4e-5, -5e-5]),
)


@settings(max_examples=100, deadline=None)
@given(db=GRID_RASTERS, block=st.integers(1, 64))
@example(db=np.array([[0.0]]), block=8192)
@example(db=np.array([[DB_FLOOR], [-9.9999], [-10.0], [0.0]]), block=8192)
@example(db=np.array([[0.0, DB_FLOOR, -9.9999, -10.0, -0.0001, -0.9999, -39.9999, -1.0, -12.3456]]),
         block=8192)
@example(db=np.array([[0.0, -1.0, -2.0], [-3.0, -4.0, -5.0], [-6.0, -7.0, -8.0]]), block=2)
def test_db_csv_bytes_equal_the_row_format_oracle(db, block):
    # Blocks of echo._BLOCK_CELLS cells may begin and end inside a row.
    raster = SarImage.from_complex(10.0 ** (db / 20.0)).db_image
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(echo, "_BLOCK_CELLS", block)
        write_db_csv(Path(tmp) / "numpy.csv", raster)
        write_db_csv_rows(Path(tmp) / "oracle.csv", raster)
        assert (Path(tmp) / "numpy.csv").read_bytes() == (Path(tmp) / "oracle.csv").read_bytes()


@pytest.mark.parametrize("shape", [(1, 2**18), (4, 2**16)])
def test_db_csv_peak_memory_of_few_long_rows(tmp_path, shape):
    # Blocks of cells, not of whole rows: a raster of fewer rows than blocks
    # peaks at about 1.6 bytes a cell, as a 64 x 4096 one does, where blocks
    # of whole rows took 42 at one row.
    raster = (np.arange(2**18) % (round(-DB_FLOOR * 1e4) + 1) / -1e4 + 0.0).reshape(shape)
    tracemalloc.start()
    try:
        write_db_csv(tmp_path / "image_db.csv", raster)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * raster.size


def test_db_csv_bytes_of_every_grid_value(tmp_path):
    raster = (np.arange(round(-DB_FLOOR * 1e4) + 1) / -1e4 + 0.0).reshape(-1, 1)
    write_db_csv(tmp_path / "numpy.csv", raster)
    write_db_csv_rows(tmp_path / "oracle.csv", raster)
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("value", [-0.00005, DB_FLOOR - 1e-4, 1e-4, np.nan, -np.inf])
def test_db_csv_rejects_a_value_off_the_grid(tmp_path, value):
    db = np.full((3, 4), -12.5)
    db[2, 1] = value
    with pytest.raises(ValueError, match="1e-4 dB grid"):
        write_db_csv(tmp_path / "image_db.csv", db)
    assert not (tmp_path / "image_db.csv").exists()


def test_db_csv_checks_every_block_before_it_opens_the_file(tmp_path, monkeypatch):
    # Blocks of 5 cells: the bad value lies in the third, mid-row.
    monkeypatch.setattr(echo, "_BLOCK_CELLS", 5)
    db = np.full((3, 4), -12.5)
    db[2, 1] = np.nan
    with pytest.raises(ValueError, match="1e-4 dB grid"):
        write_db_csv(tmp_path / "image_db.csv", db)
    assert not (tmp_path / "image_db.csv").exists()
