import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from aggrekin.csvio import write_csv, write_grid_csv
from aggrekin.fv import GridState, cfl_dt, make_flux, step
from aggrekin.kernel import exponential_kernel
from aggrekin.measures import ModelParams

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


# the grid writer against write_csv over the full arrays

GRID_HEADER = ["x", "rho1_mass", "rho2_mass"]
KERNEL = exponential_kernel()


def assert_grid_file_is_write_csv(tmp_path, st):
    write_grid_csv(tmp_path / "grid.csv", GRID_HEADER, st)
    write_csv(tmp_path / "ref.csv", GRID_HEADER, zip(st.centers, st.rho1, st.rho2))
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def grid_state(n, lo, hi, rho2=None, xmin=-1.0, dx=0.01, seed=0):
    """Masses of species 1 on cells [lo, hi) of an n-cell grid, species 2
    as given (default: empty)."""
    r1 = np.zeros(n)
    r1[lo:hi] = np.random.default_rng(seed).uniform(0.0, 1.0, hi - lo)
    return GridState(xmin, dx, r1, np.zeros(n) if rho2 is None else rho2)


N_CELLS = 300


@pytest.mark.parametrize(
    "lo, hi", [(0, 20), (280, N_CELLS), (0, N_CELLS), (0, 1), (N_CELLS - 1, N_CELLS), (140, 141), (100, 180)]
)
def test_grid_writer_on_windows_touching_either_end(tmp_path, lo, hi):
    st = grid_state(N_CELLS, lo, hi, seed=lo + hi)
    assert st.window == (lo, hi)
    assert_grid_file_is_write_csv(tmp_path, st)


def test_grid_writer_on_the_empty_state(tmp_path):
    st = GridState(-1.0, 0.01, np.zeros(N_CELLS), np.zeros(N_CELLS))
    assert st.window == (0, 0)
    assert_grid_file_is_write_csv(tmp_path, st)
    assert (tmp_path / "grid.csv").read_bytes().count(b",0,0\r\n") == N_CELLS


def test_grid_writer_on_a_negative_zero_outside_the_window(tmp_path):
    # an empty species snaps a -0.0 cell to +0.0, so every cell outside the
    # window is written as 0, also after a step
    p = ModelParams(chi1=3.0, chi2=0.5)
    for cell in (0, 7, 49):
        r2 = np.zeros(50)
        r2[cell] = -0.0
        st = grid_state(50, 20, 30, rho2=r2)
        dt = cfl_dt(st.dx, KERNEL, p, 0.9, st.total_masses())
        for _ in range(3):
            assert_grid_file_is_write_csv(tmp_path, st)
            assert not np.signbit(st.rho2).any() and b",-0" not in (tmp_path / "grid.csv").read_bytes()
            st = step(st, make_flux(st, KERNEL, p), dt)


def test_grids_of_equal_size_keep_their_own_rows(tmp_path):
    # the same number of cells at other positions, written alternately
    states = [grid_state(N_CELLS, 50, 60, xmin=xmin) for xmin in (-1.0, -1.0 + 1e-12, 2.0)]
    for st in states + states[::-1]:
        assert_grid_file_is_write_csv(tmp_path, st)


mass_values = hs.sampled_from([0.0, 0.0, 0.0, -0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 7.0])


@settings(max_examples=150, deadline=None)
@given(
    xmin=hs.floats(-1e6, 1e6),
    dx=hs.floats(1e-300, 1e3),
    masses=hs.integers(1, 40).flatmap(
        lambda n: hs.lists(hs.lists(mass_values, min_size=n, max_size=n), min_size=2, max_size=2)
    ),
)
def test_grid_writer_is_write_csv_on_any_grid_state(tmp_path_factory, xmin, dx, masses):
    st = GridState(xmin, dx, np.array(masses[0]), np.array(masses[1]))
    assert_grid_file_is_write_csv(tmp_path_factory.mktemp("grid"), st)
