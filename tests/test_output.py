import csv

import numpy as np

from ofdmsar.output import write_db_csv


def test_db_csv_bytes_match_csv_writer(tmp_path):
    # 0.1 + 0.2 has a 17-digit repr; -0.0 keeps its sign.
    raster = np.array([[-40.0, 0.0, -0.0], [1e-05, 0.1 + 0.2, -12.5]])
    write_db_csv(tmp_path / "fast.csv", raster)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in raster:
            writer.writerow([repr(float(v)) for v in row])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert repr(0.1 + 0.2) == "0.30000000000000004"
