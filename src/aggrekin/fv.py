"""Finite-volume upwind solver for the two-species aggregation system.

The scheme transports per-cell *masses* (Dirac reconstruction at cell
centers): the common velocity field a_hat is the hatted-kernel sum over
all other cells, each species is advected with its own chemosensitivity
chi_a, and the interface fluxes use flux-vector splitting
F = v^+ rho_left + v^- rho_right.

Mass transfers between cells are quantized to a per-species power-of-two
quantum q (``aggrekin.lattice``), so every cell value stays an exact float
multiple of q.
All updates are then exact floating-point operations, which makes the
per-species total mass conserved to 0 ulp and positivity exact, at the
cost of an O(1e-16) relative perturbation per transfer -- below ordinary
roundoff for any other formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expconv import direct_velocity, exp_velocity_scan, use_scan
from .kernel import PointyKernel
from .lattice import GridCells, _occupied_span, check_boundary, mass_quantum, march
from .measures import ModelParams

__all__ = [
    "GridState",
    "FluxField",
    "Peak",
    "FvEvent",
    "FvRunResult",
    "mass_quantum",
    "assemble_velocity",
    "make_flux",
    "cfl_dt",
    "step",
    "extract_peaks",
    "species_peaks",
    "check_boundary",
    "run",
]

@dataclass(frozen=True)
class GridState(GridCells):
    """The finite-volume state: per-cell masses of both species on a
    uniform grid at ``time``, each snapped to its quantum ``q1``/``q2``
    (see :class:`aggrekin.lattice.GridCells`)."""

    time: float = 0.0
    q1: float = -1.0
    q2: float = -1.0


@dataclass(frozen=True)
class FluxField:
    """Velocity field for one time level.

    ``a_hat`` is the chi-free velocity on every cell of the grid; each
    species moves at chi_a * a_hat, and ``step`` forms the upwind
    interface transfers from it.
    """

    a_hat: np.ndarray
    chi1: float
    chi2: float


def assemble_velocity(
    state: GridState, kernel: PointyKernel, p: ModelParams, method: str = "auto"
) -> np.ndarray:
    """Hatted-kernel velocity a_hat[j] = sum_{i != j} K'(x_j - x_i) w_i
    with w = theta1 rho1 + theta2 rho2.

    ``method`` is "auto", "direct" (O(N^2)) or "scan" (O(N)), chosen as
    :func:`aggrekin.expconv.use_scan` says; the two agree to 1e-12 relative.

    The scan runs only on the occupied window plus one empty cell on each
    side.  Beyond those edge cells no mass remains on the far side, so the
    velocity there is the edge value decaying by e^{-dx} per cell, and the
    tails are filled exactly that way.  Hence max|a_hat| sits on the
    scanned cells.
    """
    if not use_scan(method, kernel, state.n_cells):
        return direct_velocity(state.centers, p.theta1 * state.rho1 + p.theta2 * state.rho2, kernel)
    a, b = state._padded_window()
    n = state.n_cells
    a_hat = np.empty(n)
    a_hat[a:b] = exp_velocity_scan(p.theta1 * state.rho1[a:b] + p.theta2 * state.rho2[a:b], state.dx)
    decay = _tail_decay(state.dx, n)
    a_hat[:a] = a_hat[a] * decay[:a][::-1]
    a_hat[b:] = a_hat[b - 1] * decay[: n - b]
    return a_hat


@lru_cache(maxsize=8)
def _tail_decay(dx: float, n: int) -> np.ndarray:
    """e^{-k dx} for k = 1..n, read-only: the decay of the velocity tails."""
    decay = np.exp(-dx * np.arange(1, n + 1))
    decay.flags.writeable = False
    return decay


def make_flux(state: GridState, kernel: PointyKernel, p: ModelParams) -> FluxField:
    """Assemble the velocity field that ``step`` transports with."""
    return FluxField(assemble_velocity(state, kernel, p), p.chi1, p.chi2)


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
    velocity bound scales with the actual total weighted mass.  A bound of
    zero, or one so small that the step is not finite, is a ValueError.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError("safety factor must lie in (0, 1)")
    m1, m2 = total_masses
    speed = max(p.chi1, p.chi2) * kernel.lipschitz * (p.theta1 * m1 + p.theta2 * m2)
    if speed <= 0.0:
        raise ValueError("velocity bound is zero; no CFL restriction applies")
    dt = safety * dx / speed
    if not math.isfinite(dt):
        # a velocity bound so small (subnormal masses) that dx over it overflows
        raise ValueError(f"CFL step is not finite: {safety} * {dx} / {speed!r} = {dt}")
    return dt


def _quantized_outflows(
    rho: np.ndarray, v: np.ndarray, c: float, q: float
) -> tuple[np.ndarray, np.ndarray]:
    # a cell sends c |v| rho one way only, so one signed transfer t holds
    # both outflows; rounding is symmetric, so trunc(t / q) = +-floor(|t| / q)
    t = c * v * rho
    if q > 0.0:
        # q is a power of two, so x * (1/q) is x / q exactly unless a
        # subnormal q has no finite reciprocal
        inv = 1.0 / q
        t = np.trunc(t * inv if math.isfinite(inv) else t / q)
        t *= q
    t[0] = max(t[0], 0.0)
    t[-1] = min(t[-1], 0.0)
    # trunc + strict CFL already guarantee |t| <= rho; the clamp only
    # defends against degenerate safety factors within one ulp of 1
    np.minimum(t, rho, out=t)
    np.maximum(t, -rho, out=t)
    return np.maximum(t, 0.0), np.maximum(-t, 0.0)


def step(state: GridState, flux: FluxField, dt: float) -> GridState:
    """One upwind step.  Refuses to move if dt violates the CFL condition.

    All cell updates are exact float operations on multiples of the species
    quantum, so per-species mass is conserved to 0 ulp and no cell ever
    goes negative.  Only the occupied window plus one cell on each side can
    change, so the update runs on that slice; an empty cell sends nothing,
    which makes the result bit-identical to the full-grid update.  The
    successor's window lies in that slice, and is found there and handed over.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    a, b = state._padded_window()
    a_win = flux.a_hat[a:b]
    vmax = max(flux.chi1, flux.chi2) * float(np.abs(a_win).max())
    if dt * vmax >= state.dx:
        raise ValueError(
            f"CFL violation: dt * max|chi a_hat| = {dt * vmax:.3e} >= dx = {state.dx:.3e}"
        )
    c = dt / state.dx
    new = []
    for chi, rho, q in ((flux.chi1, state.rho1, state.q1), (flux.chi2, state.rho2, state.q2)):
        # the outflows zero the slice's outer faces: at a grid end that is
        # the boundary rule, and inside the grid those end cells are empty
        out_r, out_l = _quantized_outflows(rho[a:b], chi * a_win, c, q)
        nxt = rho.copy()
        win = nxt[a:b]
        win[:] = rho[a:b] - out_r - out_l
        win[1:] += out_r[:-1]
        win[:-1] += out_l[1:]
        new.append(nxt)
    window = _occupied_span(new[0][a:b], new[1][a:b], a)
    return state._successor(state.time + dt, rho1=new[0], rho2=new[1], window=window)


@dataclass(frozen=True)
class Peak:
    position: float
    mass1: float
    mass2: float


def _runs(values: np.ndarray, floor: float) -> list[tuple[int, int]]:
    """[s, e) of each maximal run of ``values`` above ``floor``."""
    active = values > floor
    edges = (np.flatnonzero(active[1:] != active[:-1]) + 1).tolist()
    if active[0]:
        edges.insert(0, 0)
    if active[-1]:
        edges.append(active.size)
    return list(zip(edges[::2], edges[1::2]))


def _peaks(
    state: GridState, values: np.ndarray, mass_threshold: float, cell_floor_frac: float, masses
) -> list[Peak]:
    """Peaks of ``values``, the per-cell masses on the state's window.

    Cells above ``cell_floor_frac`` times the total form contiguous runs;
    runs carrying strictly more than ``mass_threshold`` of the total become
    peaks at their mass-weighted centroid, with per-species masses
    ``masses(s, e, run_mass)`` for window cells [s, e).
    """
    total = float(values.sum())
    if total <= 0.0:
        return []
    x = state.window_centers
    peaks = []
    for s, e in _runs(values, cell_floor_frac * total):
        run_mass = float(values[s:e].sum())
        if run_mass > mass_threshold * total:
            centroid = float((x[s:e] * values[s:e]).sum() / run_mass)
            peaks.append(Peak(centroid, *masses(s, e, run_mass)))
    return peaks


def extract_peaks(
    state: GridState, mass_threshold: float = 0.01, cell_floor_frac: float = 1e-9
) -> list[Peak]:
    """Cluster contiguous runs of occupied cells into peaks.

    Cells whose combined two-species mass exceeds ``cell_floor_frac`` times
    the total mass are grouped into contiguous runs; runs carrying strictly
    more than ``mass_threshold`` of the total mass are reported with their
    mass-weighted centroid and per-species masses, sorted by position.
    """
    if not 0.0 < mass_threshold < 1.0:
        raise ValueError("mass_threshold must lie in (0, 1)")
    lo, hi = state.window
    r1, r2 = state.rho1[lo:hi], state.rho2[lo:hi]
    return _peaks(
        state, r1 + r2, mass_threshold, cell_floor_frac,
        lambda s, e, _: (float(np.sum(r1[s:e])), float(np.sum(r2[s:e]))),
    )


def species_peaks(
    state: GridState,
    species: int,
    mass_threshold: float = 0.01,
    cell_floor_frac: float = 1e-6,
) -> list[Peak]:
    """Peaks of a single species (runs computed on that species alone)."""
    lo, hi = state.window
    rho = (state.rho1 if species == 1 else state.rho2)[lo:hi]
    return _peaks(
        state, rho, mass_threshold, cell_floor_frac,
        lambda s, e, m: (m, 0.0) if species == 1 else (0.0, m),
    )


@dataclass(frozen=True)
class FvEvent:
    """A detected transition in the peak configuration.

    Kinds: ``contact`` (a species-1 peak and a species-2 peak coincide at
    grid resolution: centroids within 1.5 cells, i.e. supports on the same
    or adjacent cells), ``separate`` (a contacting pair moves apart past
    the 6-cell release distance; the asymmetry is hysteresis against
    jitter), ``merge_same_species`` (the number of peaks of one species
    drops).
    """

    time: float
    kind: str
    position: float
    species: int | None
    peaks1: tuple[Peak, ...]
    peaks2: tuple[Peak, ...]


class _ContactTracker:
    """Tracks cross-species peak contacts with enter/exit hysteresis."""

    def __init__(self, dx: float, enter_cells: float = 1.5, exit_cells: float = 6.0):
        self.enter = enter_cells * dx
        self.exit = exit_cells * dx
        self.active: list[float] = []
        self.prev1: list[float] | None = None
        self.prev2: list[float] | None = None
        self.events: list[FvEvent] = []

    def update(self, t: float, pk1: list[Peak], pk2: list[Peak]) -> None:
        p1 = [q.position for q in pk1]
        p2 = [q.position for q in pk2]
        tup1, tup2 = tuple(pk1), tuple(pk2)
        for prev, cur, species in ((self.prev1, p1, 1), (self.prev2, p2, 2)):
            if prev is not None and len(cur) < len(prev):
                gaps = [b - a for a, b in zip(prev, prev[1:])]
                where = gaps.index(min(gaps)) if gaps else 0
                pos = 0.5 * (prev[where] + prev[where + 1]) if gaps else (prev[0] if prev else math.nan)
                self.events.append(
                    FvEvent(t, "merge_same_species", pos, species, tup1, tup2)
                )
        survivors = []
        for mid in self.active:
            if not p1 or not p2:
                continue
            a = min(p1, key=lambda v: abs(v - mid))
            b = min(p2, key=lambda v: abs(v - mid))
            if abs(a - b) > self.exit:
                self.events.append(
                    FvEvent(t, "separate", 0.5 * (a + b), None, tup1, tup2)
                )
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
                    self.events.append(FvEvent(t, "contact", mid, None, tup1, tup2))
        self.prev1, self.prev2 = p1, p2


@dataclass
class FvRunResult:
    snapshots: list[tuple[float, GridState]]
    diagnostics: dict[str, np.ndarray]
    events: list[FvEvent]
    final: GridState
    dt: float
    n_steps: int
    elapsed: float


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
    """Advance the scheme to time T with per-step diagnostics.

    Snapshots are recorded at the nearest step boundary <= each requested
    time (actual times reported).  Aborts through
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
    flux = None  # the velocity field of the last recorded state

    def record(st: GridState):
        nonlocal flux
        if tracker is not None:
            tracker.update(st.time, species_peaks(st, 1), species_peaks(st, 2))
        flux = make_flux(st, kernel, p)
        lo, hi = st.window
        a, b = st._padded_window()
        diag["t"].append(st.time)
        diag["mass1"].append(float(st.rho1[lo:hi].sum()))
        diag["mass2"].append(float(st.rho2[lo:hi].sum()))
        diag["weighted_center"].append(st.weighted_center(p))
        diag["max_velocity"].append(float(np.abs(flux.a_hat[a:b]).max()))
        # a window narrower than the grid leaves empty cells outside it
        full = (lo, hi) == (0, st.n_cells)
        diag["min_cell"].append(float(min(np.min(st.rho1), np.min(st.rho2))) if full else 0.0)
        return st.time, st

    snapshots, final, n_steps, elapsed = march(
        initial, T, dt, snapshot_times, lambda st: step(st, flux, dt), record
    )
    return FvRunResult(
        snapshots=snapshots,
        diagnostics={k: np.asarray(v) for k, v in diag.items()},
        events=tracker.events if tracker is not None else [],
        final=final,
        dt=dt,
        n_steps=n_steps,
        elapsed=elapsed,
    )
