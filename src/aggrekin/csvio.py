"""The one CSV writer of the package: a header line, then rows of numbers
written as ``%.17g``, which round-trips every float64.

The bytes are exactly those ``csv.writer`` writes for the same strings:
fields joined by commas, lines ended by ``\\r\\n``, nothing quoted.  No
quoting is ever needed, because the header names are plain identifiers
and a formatted number holds only digits, a sign, '.', 'e', 'nan' or
'inf'.  Formatting a whole row with one format string is about twice as
fast as ``csv.writer``.  :func:`write_grid_csv` writes the same bytes for
per-cell columns and formats the empty cells' rows once per grid.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = ["write_csv", "write_grid_csv"]


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and one line per row; every row has one number per
    header name."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % tuple(row) for row in rows)


def write_grid_csv(path, header: list[str], x: np.ndarray, *masses: np.ndarray) -> None:
    """Write ``header`` and one line per cell j: ``x[j]``, then each array
    of ``masses`` at j.

    The file is byte for byte ``write_csv(path, header, zip(x, *masses))``.
    Most cells of a grid lie outside the span of those holding mass, and
    their rows ``x,0,...,0`` are formatted once per grid.  A -0.0 mass
    counts as held, so it keeps its sign.
    """
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    held = np.zeros(len(x), dtype=bool)
    for m in masses:
        held |= (m != 0.0) | np.signbit(m)
    cells = np.flatnonzero(held)
    lo, hi = (int(cells[0]), int(cells[-1]) + 1) if cells.size else (0, 0)
    empty, starts = _empty_rows(np.ascontiguousarray(x, dtype=float).tobytes(), len(masses))
    rows = zip(x[lo:hi].tolist(), *(m[lo:hi].tolist() for m in masses))
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(empty[: starts[lo]])
        fh.writelines(line % row for row in rows)
        fh.write(empty[starts[hi] :])


@lru_cache(maxsize=4)
def _empty_rows(cells: bytes, n_masses: int) -> tuple[str, np.ndarray]:
    """The rows ``x,0,...,0`` (``n_masses`` zeros) of the cells at the
    float64 positions ``cells``, joined, and where each row starts in it
    (one past the last row at the end), read-only."""
    rows = ["%.17g" % v + ",0" * n_masses + "\r\n" for v in np.frombuffer(cells).tolist()]
    starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=starts[1:])
    starts.flags.writeable = False
    return "".join(rows), starts
