"""The one CSV writer of the package: a header line, then rows of numbers
written as ``%.17g``, which round-trips every float64.

The bytes are exactly those ``csv.writer`` writes for the same strings:
fields joined by commas, lines ended by ``\\r\\n``, nothing quoted.  No
quoting is ever needed, because the header names are plain identifiers
and a formatted number holds only digits, a sign, '.', 'e', 'nan' or
'inf'.  Formatting a whole row with one format string is about twice as
fast as ``csv.writer``.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["write_csv"]


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and one line per row; every row has one number per
    header name."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % tuple(row) for row in rows)
