"""The one CSV writer of the package: a header line, then rows of numbers
written as ``%.17g``, which round-trips every float64.

The bytes are exactly those ``csv.writer`` writes for the same strings:
fields joined by commas, lines ended by ``\\r\\n``, nothing quoted.  No
quoting is ever needed, because the header names are plain identifiers
and a formatted number holds only digits, a sign, '.', 'e', 'nan' or
'inf'.  Formatting a whole row with one format string is about twice as
fast as ``csv.writer``.  :func:`write_grid_csv` writes the same bytes for
the cells of a grid state and formats its empty cells' rows once per grid.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np

from .lattice import GridState, _cell_centers

__all__ = ["write_csv", "write_grid_csv"]


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and one line per row; every row has one number per
    header name."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % tuple(row) for row in rows)


def write_grid_csv(path, header: list[str], state: GridState) -> None:
    """Write ``header``, three names, and one line per cell j of ``state``:
    its centre, then the masses of species 1 and 2 at j.

    The file is byte for byte ``write_csv(path, header, zip(state.centers,
    state.rho1, state.rho2))``.  Every cell outside the state's window is
    empty, and the rows ``x,0,0`` of those cells are formatted once per grid.
    """
    lo, hi = state.window
    empty, starts = _empty_rows(state.xmin, state.dx, state.n_cells)
    rows = zip(state.window_centers.tolist(), state.rho1[lo:hi].tolist(), state.rho2[lo:hi].tolist())
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(empty[: starts[lo]])
        fh.writelines("%.17g,%.17g,%.17g\r\n" % row for row in rows)
        fh.write(empty[starts[hi] :])


@lru_cache(maxsize=4)
def _empty_rows(xmin: float, dx: float, n: int) -> tuple[str, np.ndarray]:
    """The rows ``x,0,0`` of the n cells of the grid from ``xmin`` in steps
    of ``dx``, joined, and where each row starts in it (one past the last
    row at the end), read-only."""
    rows = ["%.17g,0,0\r\n" % v for v in _cell_centers(xmin, dx, n).tolist()]
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=starts[1:])
    starts.flags.writeable = False
    return "".join(rows), starts
