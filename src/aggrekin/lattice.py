"""The mass lattice and the grid shared by every solver.

Each species' masses are snapped to multiples of one power-of-two quantum
q chosen from the species total, so sums and differences of masses never
round: per-species totals are conserved to 0 ulp and positivity is exact.
The finite-volume grid, the kinetic state and the aggregate solver all
snap through :func:`snap`.  Both grid solvers' states are a
:class:`GridState`, and their runs step through :func:`march`.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .measures import ModelParams

__all__ = [
    "mass_quantum", "snap", "whole_quanta", "checked_cells", "GridState", "check_boundary", "GridRun",
    "check_run_times", "march",
]


def mass_quantum(total: float) -> float:
    """Power-of-two quantum q with total/q in [2^51, 2^52), and at least
    2^-1074, of which every float below 2^-1022 is a multiple.

    Multiples of q up to ~2 * total are exactly representable, so sums and
    differences of quantized cell masses never round.
    """
    if not total > 0.0:
        return 0.0
    _, exp = math.frexp(total)
    return max(math.ldexp(1.0, exp - 52), 5e-324)


# adding 2^52 to a float in [0, 2^52] rounds it to an integer, ties to even,
# exactly as np.rint does; unlike np.rint it costs a Python float no numpy
# call, which matters to the aggregate solver's few masses per step
_ROUND_TO_INTEGER = 2.0**52


def snap(values, q: float):
    """``values`` -- a float or an array of them, each in [0, 2^52 q], as
    every mass of a species is under the quantum of its total -- rounded to
    the nearest multiple of ``q``, ties to even.  A species whose quantum
    is 0 holds no mass, so every value becomes +0.0, a -0.0 one included.
    """
    if q == 0.0:
        return abs(values) * 0.0
    # one scratch array for an array input; every step is exact but the rounding
    x = values / q
    x += _ROUND_TO_INTEGER
    x -= _ROUND_TO_INTEGER
    x *= q
    return x


def whole_quanta(x: np.ndarray, q, rounding=np.trunc) -> np.ndarray:
    """The transfers ``x``, a fresh array whose second-to-last axis holds the
    two species, rounded in place to whole multiples of their quanta ``q`` =
    (q1, q2) so that cells stay on the lattice; a species whose q is 0 is
    unchanged.  ``rounding`` acts on the transfers counted in quanta: the
    default ``np.trunc`` rounds toward zero, ``np.ceil`` rounds a
    nonnegative transfer up to the next whole quantum.  q is a power of two,
    so x * (1/q) is x / q exactly unless a subnormal q has no finite
    reciprocal; such a species is divided instead.  Each species is scaled
    by its own Python float: numpy multiplies a row by a scalar several
    times faster than a (2, w) block by a (2, 1) column."""
    for k, qa in enumerate(q):
        if qa > 0.0:
            row = x[..., k, :]
            if math.isfinite(1.0 / qa):
                row *= 1.0 / qa
            else:
                row /= qa
            rounding(row, out=row)
            row *= qa
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


def _occupied_span(rho: np.ndarray, offset: int = 0) -> tuple[int, int]:
    """(lo, hi) spanning the nonzero cells of rho[0] + rho[1], a (2, w) block
    of both species, shifted by ``offset``; (0, 0) if none."""
    occupied = (rho[0] + rho[1]) != 0
    lo = int(occupied.argmax())
    if not occupied[lo]:
        return 0, 0
    return offset + lo, offset + occupied.size - int(occupied[::-1].argmax())


@lru_cache(maxsize=8)
def _cell_centers(xmin: float, dx: float, n: int) -> np.ndarray:
    """xmin + (j + 1/2) dx for j = 0..n-1, read-only: the centres of one grid."""
    x = xmin + (np.arange(n) + 0.5) * dx
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class GridState:
    """Per-cell masses of both species on a uniform grid at ``time``.

    ``xmin`` is the left edge of the first cell; cell centers sit at
    xmin + (j + 1/2) dx.  Cell values are masses (density times dx), kept
    in one C-contiguous (2, n) array ``rho`` whose rows ``rho1`` and
    ``rho2`` are the two species.  On construction each species is snapped
    to the mass quantum ``q1``/``q2`` of its total; the quanta ride along so
    subsequent steps stay on the same lattice, and since a step conserves
    each total to 0 ulp they are the quanta its successor's totals give.
    ``time`` is a keyword, so a subclass adds fields after ``rho2``.
    Non-finite input (NaN or inf in ``xmin``, ``dx`` or a cell mass) is
    rejected with the name of the offending field.
    """

    xmin: float
    dx: float
    rho1: np.ndarray
    rho2: np.ndarray
    q1: float = field(init=False)
    q2: float = field(init=False)
    time: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        r1 = checked_cells("rho1", self.rho1)
        r2 = checked_cells("rho2", self.rho2)
        if r1.shape != r2.shape or r1.ndim != 1 or r1.size == 0:
            raise ValueError("rho1 and rho2 must be 1-D arrays of equal nonzero length")
        if not math.isfinite(self.xmin):
            raise ValueError(f"xmin must be finite, got {self.xmin!r}")
        if not (self.dx > 0 and math.isfinite(self.dx)):
            raise ValueError(f"dx must be positive and finite, got {self.dx!r}")
        rho = np.empty((2, r1.size))
        for k, (name, r) in enumerate((("1", r1), ("2", r2))):
            q = mass_quantum(float(np.sum(r)))
            rho[k] = snap(r, q)
            object.__setattr__(self, "q" + name, q)
        self.__dict__.update(rho=rho, rho1=rho[0], rho2=rho[1])

    def _successor(self, time: float, a: int, **blocks):
        """This state at ``time`` whose (2, n) arrays named in ``blocks``
        (``rho``, and ``J`` for the kinetic state) hold the (2, w) blocks a
        step computed from cell ``a`` on, and 0 in every other cell.

        A solver step's successor: its cells are already values of this
        state's lattice, so it skips the copy, the checks and the snap of
        the public constructor, which would return it unchanged.  Its
        window is found on the ``rho`` block.
        """
        new = object.__new__(type(self))
        fields = self.__dict__
        values = {name: fields[name] for name in self.__dataclass_fields__}
        for name, block in blocks.items():
            grid = np.zeros((2, self.n_cells))
            grid[:, a : a + block.shape[1]] = block
            values.update({name: grid, name + "1": grid[0], name + "2": grid[1]})
        new.__dict__.update(values, time=time, window=_occupied_span(blocks["rho"], a))
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
        return _occupied_span(self.rho)

    @cached_property
    def window_centers(self) -> np.ndarray:
        """The centres of the window's cells, a read-only slice of ``centers``."""
        lo, hi = self.window
        return self.centers[lo:hi]

    def _padded_window(self) -> tuple[int, int]:
        """The window grown by one empty cell on each side, within the grid."""
        lo, hi = self.window
        return max(lo - 1, 0), min(hi + 1, self.n_cells)

    @property
    def centers(self) -> np.ndarray:
        """The cell centres, read-only and computed once per grid."""
        return _cell_centers(self.xmin, self.dx, self.n_cells)

    def total_masses(self) -> tuple[float, float]:
        return tuple(self.rho.sum(axis=1).tolist())

    @cached_property
    def window_moments(self) -> tuple[list[float], np.ndarray, list[float]]:
        """Per species on the window, computed once per state: the mass, the
        (2, w) block of centre times mass of each cell, and its sum, the
        first moment.  The masses are sums of multiples of the species
        quantum that never round, so they are the species totals in any
        order of summation.  ``np.add.reduce`` is the function that
        ``ndarray.sum`` wraps: the same bits without the wrapper's cost."""
        lo, hi = self.window
        block = self.rho[:, lo:hi]
        xv = self.window_centers * block
        return np.add.reduce(block, axis=1).tolist(), xv, np.add.reduce(xv, axis=1).tolist()

    def weighted_center(self, p: ModelParams) -> float:
        _, _, (s1, s2) = self.window_moments
        return (p.theta1 / p.chi1) * s1 + (p.theta2 / p.chi2) * s2


def check_boundary(state: GridState, total: float) -> None:
    """Abort a run whose outermost cells hold more than 1e-9 of the total
    mass: the domain is supposed to be large enough that they stay empty."""
    boundary = state.rho1[0] + state.rho2[0] + state.rho1[-1] + state.rho2[-1]
    if total > 0 and boundary > 1e-9 * total:
        raise RuntimeError(
            f"mass leak: boundary cells hold {boundary:.3e} at t = {state.time:.6f}; "
            "enlarge the domain"
        )


@dataclass
class GridRun:
    """A grid solver's run from :func:`march`: its ``(t, state)`` snapshots,
    final state, step dt, step count and wall time."""

    snapshots: list[tuple[float, GridState]]
    final: GridState
    dt: float
    n_steps: int
    elapsed: float


def check_run_times(t0: float, T: float, snapshot_times) -> None:
    """Refuse a solver's run from ``t0`` to ``T`` unless T >= t0 and every
    time in ``snapshot_times``, a NaN one included, lies in [t0, T]."""
    if not T >= t0:
        raise ValueError(f"T = {T!r} precedes the initial time {t0!r}")
    if not all(t0 <= t <= T for t in snapshot_times):
        raise ValueError(
            f"snapshot times must lie in [t0, T] = [{t0!r}, {T!r}], got {list(snapshot_times)!r}"
        )


def march(initial: GridState, T: float, dt: float, snapshot_times, field, advance, record):
    """The step loop of a grid solver's run.

    Takes n = floor((T - t0) / dt) steps from ``initial`` at time t0 to the
    absolute time T; refuses the times :func:`check_run_times` refuses, a
    non-finite (T - t0) / dt and n = 0 for T > t0.  Each state, the initial
    one included, must pass :func:`check_boundary`; its field ``f =
    field(state)`` is computed once and handed to ``record(state, f)``,
    which returns nothing, and to ``advance(state, f)``, which returns its
    successor.  Each requested time t in ``snapshot_times`` gets the
    snapshot ``(state.time, state)`` of step floor((t - t0) / dt), counted
    as n is, so a time on a step boundary gets that boundary's state and T
    the final one.  Returns the run's :class:`GridRun`.
    """
    t0 = initial.time
    check_run_times(t0, T, snapshot_times)
    steps = (T - t0) / dt if dt > 0 else math.nan
    if not math.isfinite(steps):
        raise ValueError(f"(T - t0) / dt = ({T!r} - {t0!r}) / {dt!r} is not a finite step count")
    t_start = _time.perf_counter()
    n_steps = int(math.floor(steps + 1e-12))
    total = sum(initial.total_masses())
    # each requested time's step, counted as the run's steps are
    snapshot_steps = sorted(math.floor((t - t0) / dt + 1e-12) for t in snapshot_times)
    snapshots = []
    state = initial
    check_boundary(state, total)
    if T > t0 and n_steps == 0:
        raise ValueError(f"the step dt = {dt!r} is longer than the run from {t0!r} to T = {T!r}")
    for k in range(n_steps + 1):
        if k:
            state = advance(state, f)
            check_boundary(state, total)
        f = field(state)
        record(state, f)
        while len(snapshots) < len(snapshot_steps) and snapshot_steps[len(snapshots)] == k:
            snapshots.append((state.time, state))
    return GridRun(snapshots, state, dt, n_steps, _time.perf_counter() - t_start)
