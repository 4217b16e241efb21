"""The mass lattice and the grid shared by every solver.

Each species' masses are snapped to multiples of one power-of-two quantum
q chosen from the species total, so sums and differences of masses never
round: per-species totals are conserved to 0 ulp and positivity is exact.
The finite-volume grid, the kinetic state and the aggregate solver all
snap through :func:`snap`.  Both grid states are a :class:`GridCells`, and
both grid solvers' runs step through :func:`march`.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measures import DiscreteMeasure, ModelParams, SpeciesPair

__all__ = ["mass_quantum", "snap", "checked_cells", "GridCells", "check_boundary", "march"]


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
    r = np.array(values, dtype=float)
    # a NaN or inf in any cell, or an overflowing total, makes the sum non-finite;
    # the array methods skip the dispatch of np.sum/np.min, a third of their cost
    # on a few thousand cells
    if not math.isfinite(r.sum()):
        raise ValueError(f"{name} holds a non-finite cell mass or total")
    if r.size and r.min() < 0:
        raise ValueError(f"{name}: cell masses must be nonnegative")
    return r


def _occupied_span(rho1: np.ndarray, rho2: np.ndarray, offset: int = 0) -> tuple[int, int]:
    """(lo, hi) spanning the nonzero cells of rho1 + rho2, shifted by ``offset``; (0, 0) if none."""
    occupied = (rho1 + rho2) != 0
    lo = int(np.argmax(occupied))
    if not occupied[lo]:
        return 0, 0
    return offset + lo, offset + occupied.size - int(np.argmax(occupied[::-1]))


@dataclass(frozen=True)
class GridCells:
    """Per-cell masses of both species on a uniform grid.

    ``xmin`` is the left edge of the first cell; cell centers sit at
    xmin + (j + 1/2) dx.  Cell values are masses (density times dx).  Each
    subclass declares ``time``, ``q1`` and ``q2`` after its own fields.  On
    construction each species is snapped to its mass quantum (computed from
    its total unless given as ``q1``/``q2`` >= 0); the quanta ride along so
    subsequent steps stay on the same lattice.  Non-finite input (NaN or
    inf in ``xmin``, ``dx`` or a cell mass) is rejected with the name of the
    offending field.
    """

    xmin: float
    dx: float
    rho1: np.ndarray
    rho2: np.ndarray

    def __post_init__(self):
        r1 = checked_cells("rho1", self.rho1)
        r2 = checked_cells("rho2", self.rho2)
        if r1.shape != r2.shape or r1.ndim != 1 or r1.size == 0:
            raise ValueError("rho1 and rho2 must be 1-D arrays of equal nonzero length")
        if not math.isfinite(self.xmin):
            raise ValueError(f"xmin must be finite, got {self.xmin!r}")
        if not (self.dx > 0 and math.isfinite(self.dx)):
            raise ValueError(f"dx must be positive and finite, got {self.dx!r}")
        for name, r, q in (("1", r1, self.q1), ("2", r2, self.q2)):
            q = q if q >= 0 else mass_quantum(float(np.sum(r)))
            object.__setattr__(self, "rho" + name, snap(r, q))
            object.__setattr__(self, "q" + name, q)

    def _successor(self, time: float, **cells):
        """This state at ``time`` with the arrays ``cells`` replaced.

        A solver step's successor: its cells are already values of this
        state's lattice, so it skips the copy, the checks and the snap of
        the public constructor, which would return it unchanged.  A step
        that knows the successor's ``window`` passes it among ``cells``.
        """
        new = object.__new__(type(self))
        values = {name: getattr(self, name) for name in self.__dataclass_fields__}
        values.update(cells, time=time)
        new.__dict__.update(values)
        return new

    @property
    def n_cells(self) -> int:
        return self.rho1.size

    @cached_property
    def window(self) -> tuple[int, int]:
        """(lo, hi): the first and one-past-last cell holding mass of either
        species; (0, 0) for the empty state.  Every cell outside is zero.
        Computed once per state, so the cell arrays must not be written to
        after construction."""
        return _occupied_span(self.rho1, self.rho2)

    @cached_property
    def window_centers(self) -> np.ndarray:
        """The centres of the window's cells, computed once per state."""
        lo, hi = self.window
        return self.xmin + (np.arange(lo, hi) + 0.5) * self.dx

    def _padded_window(self) -> tuple[int, int]:
        """The window grown by one empty cell on each side, within the grid."""
        lo, hi = self.window
        return max(lo - 1, 0), min(hi + 1, self.n_cells)

    @property
    def centers(self) -> np.ndarray:
        return self.xmin + (np.arange(self.n_cells) + 0.5) * self.dx

    def species_measure(self, species: int) -> DiscreteMeasure:
        rho = self.rho1 if species == 1 else self.rho2
        return DiscreteMeasure(self.centers, rho)

    def species_pair(self) -> SpeciesPair:
        return SpeciesPair(self.species_measure(1), self.species_measure(2))

    def total_masses(self) -> tuple[float, float]:
        return float(np.sum(self.rho1)), float(np.sum(self.rho2))

    def weighted_center(self, p: ModelParams) -> float:
        lo, hi = self.window
        return (p.theta1 / p.chi1) * float((self.window_centers * self.rho1[lo:hi]).sum()) + (
            p.theta2 / p.chi2
        ) * float((self.window_centers * self.rho2[lo:hi]).sum())


def check_boundary(state: GridCells, total: float) -> None:
    """Abort a run whose outermost cells hold more than 1e-9 of the total
    mass: the domain is supposed to be large enough that they stay empty."""
    boundary = state.rho1[0] + state.rho2[0] + state.rho1[-1] + state.rho2[-1]
    if total > 0 and boundary > 1e-9 * total:
        raise RuntimeError(
            f"mass leak: boundary cells hold {boundary:.3e} at t = {state.time:.6f}; "
            "enlarge the domain"
        )


def march(initial: GridCells, T: float, dt: float, snapshot_times, advance, record):
    """The step loop of a grid solver's run.

    Takes n = floor(T / dt) steps ``state = advance(state)`` from
    ``initial``, and refuses a T > 0 so short that n = 0.  Every state, the
    initial one included, must pass :func:`check_boundary`; then
    ``record(state)`` returns its snapshot entry.  Each requested time in
    ``snapshot_times`` gets the entry of the last step boundary at or
    before it (the last state for times past it).  Returns the snapshot
    entries, the final state, n and the wall time.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if any(t < 0 or t > T for t in snapshot_times):
        raise ValueError("snapshot times must lie in [0, T]")
    t_start = _time.perf_counter()
    n_steps = int(math.floor(T / dt + 1e-12)) if T > 0 else 0
    total = sum(initial.total_masses())
    requested = sorted(snapshot_times)
    snapshots = []
    state = initial
    check_boundary(state, total)
    if T > 0 and n_steps == 0:
        raise ValueError(f"the step dt = {dt!r} is longer than T = {T!r}, so the run takes no step")
    for k in range(n_steps + 1):
        if k:
            state = advance(state)
            check_boundary(state, total)
        entry = record(state)
        # every requested time before the next step boundary maps to this one
        limit = state.time + dt if k < n_steps else math.inf
        while len(snapshots) < len(requested) and requested[len(snapshots)] < limit:
            snapshots.append(entry)
    return snapshots, state, n_steps, _time.perf_counter() - t_start
