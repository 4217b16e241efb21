"""Finite-volume upwind solver for the two-species aggregation system.

The scheme transports per-cell *masses* (Dirac reconstruction at cell
centers): the common velocity field a_hat is the hatted-kernel sum over
all other cells, each species is advected with its own chemosensitivity
chi_a, and the interface fluxes use flux-vector splitting
F = v^+ rho_left + v^- rho_right.

Mass transfers between cells are rounded up to whole multiples of a
per-species power-of-two quantum q (``aggrekin.lattice``), so every cell
value stays an exact float multiple of q.
All updates are then exact floating-point operations, which makes the
per-species total mass conserved to 0 ulp and positivity exact, at the
cost of an O(1e-16) relative perturbation per transfer -- below ordinary
roundoff for any other formulation.  Rounding up means a cell that holds
mass and moves sends at least one quantum, so the tails of the aggregates
empty and the occupied window, on which every step works, shrinks with
the mass after blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expconv import add_near_field, exp_velocity_scan, near_field
from .kernel import PointyKernel
from .lattice import GridRun, GridState, mass_quantum, march, whole_quanta
from .measures import ModelParams

__all__ = [
    "GridState",
    "FluxField",
    "Peak",
    "FvEvent",
    "FvRunResult",
    "mass_quantum",
    "make_flux",
    "cfl_dt",
    "step",
    "extract_peaks",
    "species_peaks",
    "run",
]


@dataclass(frozen=True)
class FluxField:
    """The velocity field of one state: the chi-free a_hat on the state's
    padded window ``span`` = [a, b), the only cells that can send mass, and
    ``amax`` = max|velocity|.  Each species moves at chi_a * a_hat, and
    ``step`` forms the upwind interface transfers from it."""

    chi1: float
    chi2: float
    span: tuple[int, int]
    velocity: np.ndarray
    amax: float


def make_flux(state: GridState, kernel: PointyKernel, p: ModelParams) -> FluxField:
    """The field that ``step`` transports ``state`` with: a_hat[j] =
    sum_{i != j} K'(x_j - x_i) w_i, w = theta1 rho1 + theta2 rho2, on the
    padded window alone, as no mass lies outside.  It is the exponential
    scan plus the kernel's near-field stencil, O(N) for every kernel."""
    a, b = state._padded_window()
    w = p.theta1 * state.rho1[a:b] + p.theta2 * state.rho2[a:b]
    v = add_near_field(exp_velocity_scan(w, state.dx), w, near_field(kernel, state.dx)[1])
    return FluxField(p.chi1, p.chi2, (a, b), v, float(np.abs(v).max()))


def cfl_dt(
    dx: float,
    kernel: PointyKernel,
    p: ModelParams,
    safety: float = 0.9,
    total_masses: tuple[float, float] = (1.0, 1.0),
) -> float:
    """Time step safety * dx / (max chi * |K'|_inf * (theta1 M1 + theta2 M2)).

    With unit masses and unit chemosensitivities this is the classical
    bound safety * dx / (|K'|_inf (theta1 + theta2)); for other masses the
    velocity bound scales with the actual total weighted mass.  No mass,
    and a step that overflows (subnormal masses, whose bound can underflow
    to 0) or underflows to 0 (a subnormal safety factor), is a ValueError.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError("safety factor must lie in (0, 1)")
    m1, m2 = total_masses
    if not (m1 > 0.0 or m2 > 0.0):
        raise ValueError("velocity bound is zero; no CFL restriction applies")
    speed = max(p.chi1, p.chi2) * kernel.lipschitz * (p.theta1 * m1 + p.theta2 * m2)
    dt = safety * dx / speed if speed > 0.0 else math.inf
    if not 0.0 < dt < math.inf:
        raise ValueError(
            f"CFL step is not finite or not positive: safety {safety!r} * dx {dx!r} / {speed!r} = {dt}"
        )
    return dt


def _quantized_outflows(rho: np.ndarray, a_hat: np.ndarray, speeds, q) -> np.ndarray:
    # on (2, w) blocks of both species: cell j of species k sends the transfer
    # t = speeds[k] a_hat[j] rho[k, j] to the right if t > 0 and -t to the left
    # if t < 0.  A cell sends one way only, so one magnitude |t| per cell,
    # speeds[k] |a_hat[j]| rho[k, j] bit for bit as speeds > 0 and rho >= 0,
    # is rounded up to whole quanta and split by the sign of a_hat, the sign
    # of t wherever |t| is not 0.  A cell that holds mass and moves sends at
    # least one quantum, so an aggregate's tail empties and the window shrinks
    m = np.multiply.outer(speeds, np.abs(a_hat))
    m *= rho
    whole_quanta(m, q, np.ceil)
    # strict CFL makes each transfer less than rho, a multiple of q, so the
    # rounded outflow is at most rho; the clamp only defends against
    # degenerate safety factors within one ulp of 1
    np.minimum(m, rho, out=m)
    out = np.zeros((2,) + m.shape)
    np.copyto(out[0], m, where=a_hat > 0.0)
    np.subtract(m, out[0], out=out[1])
    # the window's outer faces carry nothing: at a grid end that is the
    # boundary rule, and inside the grid those end cells are empty
    out[0, :, -1] = 0.0
    out[1, :, 0] = 0.0
    return out


def step(state: GridState, flux: FluxField, dt: float) -> GridState:
    """One upwind step.  Refuses to move if dt violates the CFL condition,
    or if ``flux`` does not span the state's padded window.

    All cell updates are exact float operations on multiples of the species
    quantum, so per-species mass is conserved to 0 ulp and no cell ever
    goes negative.  Only the occupied window plus one cell on each side can
    change, so the update runs on that slice of both species; an empty cell
    sends nothing, which makes the result bit-identical to the full-grid
    update.  The successor's window lies in that slice, and is found there.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    a, b = state._padded_window()
    if flux.span != (a, b):
        raise ValueError(f"flux spans cells {flux.span}, but the state's padded window is {(a, b)}")
    vmax = max(flux.chi1, flux.chi2) * flux.amax
    if dt * vmax >= state.dx:
        raise ValueError(
            f"CFL violation: dt * max|chi a_hat| = {dt * vmax:.3e} >= dx = {state.dx:.3e}"
        )
    c = dt / state.dx
    # the slice updated on a contiguous copy: numpy runs a strided (2, w)
    # view at about half the speed
    win = state.rho[:, a:b].copy()
    out_r, out_l = _quantized_outflows(
        win, flux.velocity, (c * flux.chi1, c * flux.chi2), (state.q1, state.q2)
    )
    win -= out_r
    win -= out_l
    # the inflows shifted along both rows at once: the outer faces send
    # nothing, so no mass crosses from one species' row to the other's
    flat = win.reshape(-1)
    flat[1:] += out_r.reshape(-1)[:-1]
    flat[:-1] += out_l.reshape(-1)[1:]
    return state._successor(state.time + dt, a, rho=win)


@dataclass(frozen=True)
class Peak:
    position: float
    mass1: float
    mass2: float


# a peak is a run of cells above a floor share of the total mass that holds
# strictly more than _PEAK_SHARE of it; the floor share is _COMBINED_FLOOR
# for the two species' combined mass and _SPECIES_FLOOR for one species
_PEAK_SHARE = 0.01
_COMBINED_FLOOR, _SPECIES_FLOOR = 1e-9, 1e-6


def _peaks(block: np.ndarray, totals: list[float], xv: np.ndarray, floor_frac: float):
    """Per row of ``block``, per-cell masses with row totals ``totals`` and
    products ``xv`` of cell centre and mass, the [s, e), mass-weighted
    centroid and mass of each peak: a maximal run of cells above
    ``floor_frac`` times the row's total that carries strictly more than
    ``_PEAK_SHARE`` of it.  The runs of every row come from one comparison
    and one search for the run edges; sums call ``np.add.reduce``, the
    function ``ndarray.sum`` wraps."""
    rows, w = block.shape
    # each row padded with an inactive cell at both ends, so its run edges
    # pair up: a run [s, e) starts at edge s and ends at edge e of its row
    active = np.zeros((rows, w + 2), dtype=bool)
    np.greater(block, floor_frac * np.array(totals)[:, None], out=active[:, 1:-1])
    edges = iter((active[:, 1:] != active[:, :-1]).ravel().nonzero()[0].tolist())
    peaks = [[] for _ in range(rows)]
    for start, end in zip(edges, edges):
        k, s = divmod(start, w + 1)
        e = end - k * (w + 1)
        run_mass = float(np.add.reduce(block[k, s:e]))
        if run_mass > _PEAK_SHARE * totals[k]:
            peaks[k].append((s, e, float(np.add.reduce(xv[k, s:e]) / run_mass), run_mass))
    return peaks


def extract_peaks(state: GridState) -> list[Peak]:
    """Peaks of the two species' combined mass on the state's window, with
    their per-species masses, sorted by position (see :func:`_peaks`)."""
    lo, hi = state.window
    r1, r2 = state.rho1[lo:hi], state.rho2[lo:hi]
    combined = (r1 + r2)[None]
    total = np.add.reduce(combined, axis=1).tolist()
    (peaks,) = _peaks(combined, total, state.window_centers * combined, _COMBINED_FLOOR)
    return [Peak(centroid, float(np.sum(r1[s:e])), float(np.sum(r2[s:e]))) for s, e, centroid, _ in peaks]


def species_peaks(state: GridState) -> tuple[list[list[float]], list[list[float]]]:
    """Each species' peaks, found on that species alone, as ``[centroid,
    mass]`` pairs sorted by position: one pass (:func:`_peaks`) over the
    window and the state's :attr:`GridState.window_moments`."""
    lo, hi = state.window
    totals, xv, _ = state.window_moments
    runs1, runs2 = _peaks(state.rho[:, lo:hi], totals, xv, _SPECIES_FLOOR)
    return [[c, m] for _, _, c, m in runs1], [[c, m] for _, _, c, m in runs2]


@dataclass(frozen=True)
class FvEvent:
    """A detected transition in the peak configuration.

    Kinds: ``contact`` (a species-1 peak and a species-2 peak coincide at
    grid resolution: centroids within 1.5 cells, i.e. supports on the same
    or adjacent cells), ``separate`` (a contacting pair moves apart past
    the 6-cell release distance; the asymmetry is hysteresis against
    jitter), ``merge_same_species`` (the number of peaks of one species
    drops).  ``peaks1`` and ``peaks2`` are the :func:`species_peaks` of the
    state that fired it, the ``[centroid, mass]`` pairs that its JSON holds.
    """

    time: float
    kind: str
    position: float
    species: int | None
    peaks1: list[list[float]]
    peaks2: list[list[float]]


# the contact enter and exit distances in cells (see FvEvent)
_ENTER_CELLS = 1.5
_EXIT_CELLS = 6.0


class _ContactTracker:
    """Tracks cross-species peak contacts with enter/exit hysteresis."""

    def __init__(self, dx: float):
        self.enter = _ENTER_CELLS * dx
        self.exit = _EXIT_CELLS * dx
        self.active: list[float] = []
        self.prev1: list[float] | None = None
        self.prev2: list[float] | None = None
        self.events: list[FvEvent] = []

    def update(self, t: float, pk1: list[list[float]], pk2: list[list[float]]) -> None:
        p1 = [c for c, _ in pk1]
        p2 = [c for c, _ in pk2]
        for prev, cur, species in ((self.prev1, p1, 1), (self.prev2, p2, 2)):
            if prev is not None and len(cur) < len(prev):
                gaps = [b - a for a, b in zip(prev, prev[1:])]
                where = gaps.index(min(gaps)) if gaps else 0
                pos = 0.5 * (prev[where] + prev[where + 1]) if gaps else prev[0]
                self.events.append(FvEvent(t, "merge_same_species", pos, species, pk1, pk2))
        survivors = []
        for mid in self.active:
            if not p1 or not p2:
                continue
            a = min(p1, key=lambda v: abs(v - mid))
            b = min(p2, key=lambda v: abs(v - mid))
            if abs(a - b) > self.exit:
                self.events.append(FvEvent(t, "separate", 0.5 * (a + b), None, pk1, pk2))
            else:
                survivors.append(0.5 * (a + b))
        self.active = survivors
        for a in p1:
            for b in p2:
                mid = 0.5 * (a + b)
                if abs(a - b) <= self.enter and all(
                    abs(mid - m) > self.exit for m in self.active
                ):
                    self.active.append(mid)
                    self.events.append(FvEvent(t, "contact", mid, None, pk1, pk2))
        self.prev1, self.prev2 = p1, p2


@dataclass
class FvRunResult(GridRun):
    """An FV run's :class:`aggrekin.lattice.GridRun`, its per-step diagnostics and its events."""

    diagnostics: dict[str, np.ndarray]
    events: list[FvEvent]


def run(
    initial: GridState,
    kernel: PointyKernel,
    p: ModelParams,
    T: float,
    snapshot_times: tuple[float, ...] = (),
    safety: float = 0.9,
    dt_max: float | None = None,
    track_peaks: bool = True,
) -> FvRunResult:
    """Advance the scheme from ``initial.time`` to the absolute time T with
    per-step diagnostics (see :func:`aggrekin.lattice.march`).

    Snapshots are ``(t, state)`` pairs, one per requested time, at the step
    boundary that :func:`aggrekin.lattice.march` maps it to.  Aborts through
    :func:`aggrekin.lattice.check_boundary` if mass reaches the outermost
    cells.  The per-step diagnostics are read off the occupied window:
    ``max_velocity`` is max|a_hat| over the window and its two neighbour
    cells, which for the exponential kernel is the maximum over the grid.
    """
    dt = cfl_dt(initial.dx, kernel, p, safety, initial.total_masses())
    if dt_max is not None:
        dt = min(dt, dt_max)
    diag = {k: [] for k in ("t", "mass1", "mass2", "weighted_center", "max_velocity", "min_cell")}
    tracker = _ContactTracker(initial.dx) if track_peaks else None

    def record(st: GridState, flux: FluxField):
        if tracker is not None:
            tracker.update(st.time, *species_peaks(st))
        (mass1, mass2), _, _ = st.window_moments
        diag["t"].append(st.time)
        diag["mass1"].append(mass1)
        diag["mass2"].append(mass2)
        diag["weighted_center"].append(st.weighted_center(p))
        diag["max_velocity"].append(flux.amax)
        # a window narrower than the grid leaves empty cells outside it
        full = st.window == (0, st.n_cells)
        diag["min_cell"].append(float(min(np.min(st.rho1), np.min(st.rho2))) if full else 0.0)

    res = march(
        initial, T, dt, snapshot_times,
        lambda st: make_flux(st, kernel, p), lambda st, flux: step(st, flux, dt), record,
    )
    return FvRunResult(
        **vars(res),
        diagnostics={k: np.asarray(v) for k, v in diag.items()},
        events=tracker.events if tracker is not None else [],
    )
