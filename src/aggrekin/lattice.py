"""The mass lattice shared by every solver.

Each species' masses are snapped to multiples of one power-of-two quantum
q chosen from the species total, so sums and differences of masses never
round: per-species totals are conserved to 0 ulp and positivity is exact.
The finite-volume grid, the kinetic state and the aggregate solver all
snap through :func:`snap`, and the grid states reject bad cell values
through :func:`checked_cells` and :func:`check_grid`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["mass_quantum", "snap", "checked_cells", "check_grid"]


def mass_quantum(total: float) -> float:
    """Power-of-two quantum q with total/q in [2^51, 2^52).

    Multiples of q up to ~2 * total are exactly representable, so sums and
    differences of quantized cell masses never round.
    """
    if not total > 0.0:
        return 0.0
    _, exp = math.frexp(total)
    return math.ldexp(1.0, exp - 52)


# adding 2^52 to a float in [0, 2^52] rounds it to an integer, ties to even,
# exactly as np.rint does; unlike np.rint it costs a Python float no numpy
# call, which matters to the aggregate solver's few masses per step
_ROUND_TO_INTEGER = 2.0**52


def snap(values, q: float):
    """``values`` -- a float or an array of them, each in [0, 2^52 q], as
    every mass of a species is under the quantum of its total -- rounded to
    the nearest multiple of ``q``, ties to even.  A species whose quantum
    is 0 holds no mass, so every value becomes 0.
    """
    if q == 0.0:
        return values * 0.0
    # one scratch array for an array input; every step is exact but the rounding
    x = values / q
    x += _ROUND_TO_INTEGER
    x -= _ROUND_TO_INTEGER
    x *= q
    return x


def checked_cells(name: str, values) -> np.ndarray:
    """A float copy of the per-cell masses ``values``.

    A NaN or inf in any cell, a total that overflows and a negative cell
    are rejected with ``name`` in the message.
    """
    r = np.asarray(values, dtype=float).copy()
    # a NaN or inf in any cell, or an overflowing total, makes the sum non-finite;
    # the array methods skip the dispatch of np.sum/np.min, a third of their cost
    # on a few thousand cells
    if not math.isfinite(r.sum()):
        raise ValueError(f"{name} holds a non-finite cell mass or total")
    if r.size and r.min() < 0:
        raise ValueError(f"{name}: cell masses must be nonnegative")
    return r


def check_grid(xmin: float, dx: float) -> None:
    """Reject a non-finite left edge or a spacing that is not positive and finite."""
    if not math.isfinite(xmin):
        raise ValueError(f"xmin must be finite, got {xmin!r}")
    if not (dx > 0 and math.isfinite(dx)):
        raise ValueError(f"dx must be positive and finite, got {dx!r}")
