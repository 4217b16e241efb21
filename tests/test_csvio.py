import csv
import math

import numpy as np

from aggrekin.csvio import write_csv

VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -1e-300, 5e-324,
    0.1, 1.0 / 3.0, -2.5e17, 1.7976931348623157e308, 7, np.float64(0.3), np.float64(-0.0),
]


def csv_writer_bytes(path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % v for v in row])
    return path.read_bytes()


def test_bytes_match_csv_writer(tmp_path):
    header = ["t", "x", "rho1_mass"]
    rng = np.random.default_rng(0)
    rows = [tuple(rng.choice(np.array(VALUES, dtype=object), 3)) for _ in range(200)]
    rows += [(VALUES[i], VALUES[(i + 1) % len(VALUES)], VALUES[(i + 2) % len(VALUES)]) for i in range(len(VALUES))]
    write_csv(tmp_path / "new.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", header, rows)


def test_array_columns_and_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    x, m = rng.normal(size=500), rng.uniform(size=500) * 1e-12
    write_csv(tmp_path / "new.csv", ["position", "mass"], zip(x, m))
    assert (tmp_path / "new.csv").read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", ["position", "mass"], zip(x, m))
    back = np.loadtxt(tmp_path / "new.csv", delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], x) and np.array_equal(back[:, 1], m)


def test_header_only(tmp_path):
    write_csv(tmp_path / "new.csv", ["a", "b"], [])
    assert (tmp_path / "new.csv").read_bytes() == b"a,b\r\n"
