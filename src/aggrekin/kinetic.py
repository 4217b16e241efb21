"""Two-velocity kinetic chemotaxis model in moment form, with an
asymptotic-preserving splitting.

The state carries the zeroth and first moments (rho, J) of the two-speed
distribution per species; f(+-1) = (rho +- J)/2.  One step of dt = dx is
(i) transport of f(+-1) at speeds +-1, an exact lattice shift, followed
by (ii) pointwise implicit relaxation of J toward chi * dS * rho with
rate 2 psi / epsilon.  The splitting is uniformly stable in epsilon.
With J on its equilibrium chi dS rho, shifting (rho +- J)/2 by one cell
is the Lax-Friedrichs scheme at dt = dx, so its epsilon -> 0 limit
differs from the finite-volume upwind scheme by O(dx).

The chemoattractant solves (1 - d^2/dx^2) S = theta1 rho1 + theta2 rho2
on the line, i.e. S is the exponential-kernel convolution of the weighted
density; its gradient uses the diagonal-zeroed kernel derivative.

Transport moves quantized mass parcels (multiples of the per-species
quantum), so per-species mass is conserved to 0 ulp and f(+-1) >= 0 is
exact, as in the finite-volume module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .expconv import add_near_field, exp_potential_scan, near_field
from .fv import FluxField, make_flux, run as fv_run
from .kernel import PointyKernel
from .lattice import GridRun, GridState, march, whole_quanta
from .measures import DiscreteMeasure, ModelParams, wasserstein2

__all__ = [
    "KineticState",
    "solve_chemo_field",
    "check_positivity_condition",
    "step",
    "well_prepared_state",
    "run",
    "limit_experiment",
    "write_limit_csv",
]


@dataclass(frozen=True)
class KineticState(GridState):
    """A grid state (:class:`aggrekin.lattice.GridState`) plus the signed
    per-cell fluxes of both species, the rows ``J1``, ``J2`` of ``J``.

    The flux bound |J| <= rho (equivalently f(+-1) >= 0) is enforced at
    construction, after rho is snapped to the per-species mass quantum.
    NaN or inf in ``xmin``, ``dx``, ``epsilon`` or a cell is rejected with
    the name of the offending field.
    """

    J1: np.ndarray
    J2: np.ndarray
    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        super().__post_init__()
        flux = np.empty_like(self.rho)
        for k, (rho_name, j_name) in enumerate((("rho1", "J1"), ("rho2", "J2"))):
            rho, j = getattr(self, rho_name), np.asarray(getattr(self, j_name), dtype=float)
            if j.ndim != 1:
                raise ValueError(f"{j_name} must be a 1-D array")
            if j.size != rho.size:
                raise ValueError("all state arrays must share one grid")
            excess = np.abs(j) - rho
            # a NaN or inf flux fails this test as well
            if not np.all(excess <= 1e-9 * float(np.max(rho, initial=0.0))):
                raise ValueError(f"{j_name} must be finite with |{j_name}| <= {rho_name} (f(+-1) >= 0)")
            flux[k] = np.clip(j, -rho, rho)
        self.__dict__.update(J=flux, J1=flux[0], J2=flux[1])


def check_positivity_condition(p: ModelParams) -> bool:
    """True iff chi_a (theta1 + theta2) < 1 for both species.

    This guarantees a positive tumbling kernel psi (1 + chi v dS) for
    normalized total masses.
    """
    theta = p.theta1 + p.theta2
    return p.chi1 * theta < 1.0 and p.chi2 * theta < 1.0


def solve_chemo_field(state: GridState, p: ModelParams, kernel: PointyKernel) -> tuple[np.ndarray, np.ndarray]:
    """``(S, dS)``: S = K * (theta1 rho1 + theta2 rho2) and its hatted-kernel
    gradient at the centre of every cell, the exponential scan plus the
    kernel's near-field stencils, O(N) for every kernel.  No step reads
    them; they are the field of the snapshot files and of well-prepared data."""
    w = p.theta1 * state.rho1 + p.theta2 * state.rho2
    fields = zip(exp_potential_scan(w, state.dx), near_field(kernel, state.dx))
    return tuple(add_near_field(f, w, c) for f, c in fields)


def step(state: KineticState, flux: FluxField, p: ModelParams) -> KineticState:
    """One transport + relaxation step of dt = dx (unit speeds) for both
    species on the state's padded window [a, b), which ``flux``, the
    :func:`aggrekin.fv.make_flux` field whose velocity is dS, must span.

    Transport, the exact lattice shift of quantized parcels of f(+-1),
    moves mass one cell at most, so every cell outside stays 0.  Outgoing
    mass at a domain end is retained in the boundary cell (the run driver
    monitors that the boundary stays empty)."""
    a, b = state._padded_window()
    if flux.span != (a, b):
        raise ValueError(f"flux spans cells {flux.span}, but the state's padded window is {(a, b)}")
    q = (state.q1, state.q2)
    # a contiguous copy: numpy runs a strided (2, w) view at a third of the speed
    rho = state.rho[:, a:b].copy()
    # |J| <= rho, so the right-moving half (rho + J)/2, rounded toward zero,
    # lies in [0, rho]
    right = whole_quanta((rho + state.J[:, a:b]) * 0.5, q)
    left = rho - right
    to_right, to_left = np.zeros(rho.shape), np.zeros(rho.shape)
    to_right[:, 1:] = right[:, :-1]
    to_left[:, :-1] = left[:, 1:]
    # an end cell of the window keeps its outflow: the grid's end cell, or an
    # empty cell, which adds +0.0
    to_right[:, -1] += right[:, -1]
    to_left[:, 0] += left[:, 0]
    rho = to_right + to_left
    j = to_right - to_left
    beta = [2.0 * psi * state.dx / state.epsilon for psi in (p.psi1, p.psi2)]
    if not all(map(math.isfinite, beta)):
        raise ValueError(
            f"epsilon = {state.epsilon!r} makes the relaxation rate 2 psi dx / epsilon not finite"
        )
    # relaxation toward chi dS rho, each species in the order of
    # (j + beta chi dS rho) / (1 + beta)
    target = np.multiply.outer((beta[0] * p.chi1, beta[1] * p.chi2), flux.velocity) * rho + j
    for row, rate in zip(target, beta):
        row /= 1.0 + rate
    j += 2.0 * whole_quanta(0.5 * (target - j), q)
    np.minimum(np.maximum(j, -rho, out=j), rho, out=j)
    return state._successor(state.time + state.dx, a, rho=rho, J=j)


def well_prepared_state(
    grid_state: GridState,
    p: ModelParams,
    epsilon: float,
    kernel: PointyKernel,
) -> KineticState:
    """Kinetic state with the equilibrium flux J = chi dS rho, dS of :func:`solve_chemo_field`.

    Starting on the local equilibrium removes the initial layer so limit
    experiments isolate the spatial dynamics.
    """
    _, dS = solve_chemo_field(grid_state, p, kernel)
    return KineticState(
        grid_state.xmin,
        grid_state.dx,
        grid_state.rho1,
        grid_state.rho2,
        p.chi1 * dS * grid_state.rho1,
        p.chi2 * dS * grid_state.rho2,
        epsilon,
        time=grid_state.time,
    )


def run(
    initial: KineticState,
    p: ModelParams,
    T: float,
    kernel: PointyKernel = PointyKernel(),
    snapshot_times: tuple[float, ...] = (),
) -> GridRun:
    """Advance from ``initial.time`` to the absolute time T in steps of
    dt = dx, each step reading the :func:`aggrekin.fv.make_flux` field of
    its state (see :func:`aggrekin.lattice.march`).  Each step shifts
    (rho +- J)/2 by one cell; with J on its equilibrium chi dS rho that is
    Lax-Friedrichs at dt = dx, whose numerical diffusion is O(dx).

    Snapshots are ``(t, state)`` pairs, one per requested time, at the step
    boundary that :func:`aggrekin.lattice.march` maps it to.  The run solves
    no S; a scenario run solves a snapshot's S and dS on every cell when it
    writes the snapshot.  Aborts through :func:`aggrekin.lattice.check_boundary`
    if mass reaches the outermost cells.  ``kernel`` defaults to the exponential one.
    """
    return march(
        initial, T, initial.dx, snapshot_times,
        lambda st: make_flux(st, kernel, p),
        lambda st, field: step(st, field, p),
        lambda st, field: None,
    )


def limit_experiment(
    initial: GridState,
    p: ModelParams,
    eps_list: list[float],
    T: float,
    kernel: PointyKernel = PointyKernel(),
    safety: float = 0.9,
) -> list[tuple[float, float, float]]:
    """Relaxation-limit sweep: kinetic runs vs. the aggregation reference.

    For each epsilon the kinetic solver starts from well-prepared data on
    ``initial``'s grid; the finite-volume solver provides the reference on
    the same grid.  Returns (epsilon, W2 species 1, W2 species 2) rows with
    normalized measures.  Requires chi_a (theta1 + theta2) < 1 and a
    non-empty, strictly decreasing eps_list.
    """
    if not check_positivity_condition(p):
        raise ValueError("limit experiment requires chi_a (theta1 + theta2) < 1 for both species")
    if not eps_list or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be non-empty and strictly decreasing")
    ref = fv_run(initial, kernel, p, T, safety=safety, dt_max=initial.dx, track_peaks=False).final
    x = ref.centers
    rows = []
    for eps in eps_list:
        kin0 = well_prepared_state(initial, p, eps, kernel)
        kin = run(kin0, p, T, kernel=kernel).final
        d1 = wasserstein2(DiscreteMeasure(x, kin.rho1), DiscreteMeasure(x, ref.rho1))
        d2 = wasserstein2(DiscreteMeasure(x, kin.rho2), DiscreteMeasure(x, ref.rho2))
        rows.append((eps, d1, d2))
    return rows


def write_limit_csv(path, rows: list[tuple[float, float, float]]) -> None:
    write_csv(path, ["epsilon", "w2_species1", "w2_species2"], rows)
