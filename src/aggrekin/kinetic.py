"""Two-velocity kinetic chemotaxis model in moment form, with an
asymptotic-preserving splitting.

The state carries the zeroth and first moments (rho, J) of the two-speed
distribution per species; f(+-1) = (rho +- J)/2.  One step is (i) exact
upwind transport of f(+-1) at speeds +-1 -- an exact lattice shift when
dt = dx -- followed by (ii) pointwise implicit relaxation of J toward
chi * dS * rho with rate 2 psi / epsilon.  The splitting is uniformly
stable in epsilon, and as epsilon -> 0 the flux relaxes onto the
aggregation-model limit flux.

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
from .expconv import direct_potential, exp_potential_scan, use_scan
from .fv import GridState
from .fv import run as fv_run
from .kernel import PointyKernel, exponential_kernel
from .lattice import GridCells, march
from .measures import DiscreteMeasure, ModelParams, wasserstein2

__all__ = [
    "KineticState",
    "ChemoField",
    "KineticRunResult",
    "solve_chemo_field",
    "check_positivity_condition",
    "step",
    "well_prepared_state",
    "run",
    "limit_experiment",
    "write_kinetic_snapshot_csv",
    "write_limit_csv",
]


@dataclass(frozen=True)
class KineticState(GridCells):
    """A grid state (:class:`aggrekin.lattice.GridCells`) plus the signed
    per-cell fluxes J of both species.

    The flux bound |J| <= rho (equivalently f(+-1) >= 0) is enforced at
    construction, after rho is snapped to the per-species mass quantum.
    NaN or inf in ``xmin``, ``dx``, ``epsilon`` or a cell is rejected with
    the name of the offending field.
    """

    J1: np.ndarray
    J2: np.ndarray
    epsilon: float
    time: float = 0.0
    q1: float = -1.0
    q2: float = -1.0

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        super().__post_init__()
        for rho_name, j_name in (("rho1", "J1"), ("rho2", "J2")):
            rho, j = getattr(self, rho_name), np.asarray(getattr(self, j_name), dtype=float)
            if j.ndim != 1:
                raise ValueError(f"{j_name} must be a 1-D array")
            if j.size != rho.size:
                raise ValueError("all state arrays must share one grid")
            excess = np.abs(j) - rho
            # a NaN or inf flux fails this test as well
            if not np.all(excess <= 1e-9 * max(1.0, float(np.max(rho, initial=0.0)))):
                raise ValueError(f"{j_name} must be finite with |{j_name}| <= {rho_name} (f(+-1) >= 0)")
            object.__setattr__(self, j_name, np.clip(j, -rho, rho))


@dataclass(frozen=True)
class ChemoField:
    """Chemoattractant values and gradient at cell centers."""

    S: np.ndarray
    dS: np.ndarray


def check_positivity_condition(p: ModelParams) -> bool:
    """True iff chi_a (theta1 + theta2) < 1 for both species.

    This guarantees a positive tumbling kernel psi (1 + chi v dS) for
    normalized total masses.
    """
    theta = p.theta1 + p.theta2
    return p.chi1 * theta < 1.0 and p.chi2 * theta < 1.0


def solve_chemo_field(
    rho1: np.ndarray,
    rho2: np.ndarray,
    dx: float,
    p: ModelParams,
    kernel: PointyKernel | None = None,
    centers: np.ndarray | None = None,
    method: str = "auto",
) -> ChemoField:
    """S = K * (theta1 rho1 + theta2 rho2) and its hatted-kernel gradient.

    ``method`` is "auto", "scan" (O(N), exponential kernel only) or
    "direct" (O(N^2)), chosen as :func:`aggrekin.expconv.use_scan` says.
    """
    w = p.theta1 * np.asarray(rho1, dtype=float) + p.theta2 * np.asarray(rho2, dtype=float)
    if kernel is None:
        kernel = exponential_kernel()
    if use_scan(method, kernel, w.size):
        s, ds = exp_potential_scan(w, dx)
    else:
        if centers is None:
            centers = (np.arange(w.size) + 0.5) * dx
        s, ds = direct_potential(centers, w, kernel)
    return ChemoField(s, ds)


def field_for(state: KineticState, p: ModelParams, kernel=None) -> ChemoField:
    return solve_chemo_field(state.rho1, state.rho2, state.dx, p, kernel, state.centers)


def _transport(rho: np.ndarray, j: np.ndarray, q: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Upwind transport of f(+-1) at speeds +-1 with quantized parcels.

    ``c`` = dt/dx <= 1; c == 1 is the exact lattice shift.  Outgoing mass
    at the domain ends is retained in the boundary cell (the run driver
    monitors that the boundary stays empty).
    """
    if q == 0.0:
        return rho.copy(), j.copy()
    a = np.floor(((rho + j) * 0.5) / q) * q
    a = np.minimum(np.maximum(a, 0.0), rho)
    b = rho - a
    if c >= 1.0:
        a_new = np.empty_like(a)
        a_new[0] = 0.0
        a_new[1:] = a[:-1]
        a_new[-1] += a[-1]
        b_new = np.empty_like(b)
        b_new[-1] = 0.0
        b_new[:-1] = b[1:]
        b_new[0] += b[0]
    else:
        t_a = np.floor(c * a / q) * q
        a_new = a - t_a
        a_new[1:] += t_a[:-1]
        a_new[-1] += t_a[-1]
        t_b = np.floor(c * b / q) * q
        b_new = b - t_b
        b_new[:-1] += t_b[1:]
        b_new[0] += t_b[0]
    return a_new + b_new, a_new - b_new


def step(state: KineticState, field: ChemoField, p: ModelParams, dt: float) -> KineticState:
    """One transport + relaxation step; refuses dt > dx (unit speeds)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if dt > state.dx * (1.0 + 1e-12):
        raise ValueError(f"CFL violation: dt = {dt} exceeds dx = {state.dx} at speeds +-1")
    c = min(dt / state.dx, 1.0)
    out = {}
    for alpha, (rho, j, q, chi, psi) in enumerate(
        (
            (state.rho1, state.J1, state.q1, p.chi1, p.psi1),
            (state.rho2, state.J2, state.q2, p.chi2, p.psi2),
        ),
        start=1,
    ):
        rho_new, j_t = _transport(rho, j, q, c)
        beta = 2.0 * psi * dt / state.epsilon
        target = (j_t + beta * chi * field.dS * rho_new) / (1.0 + beta)
        delta = 0.5 * (target - j_t)
        if q > 0.0:
            delta = np.trunc(delta / q) * q
        j_new = np.clip(j_t + 2.0 * delta, -rho_new, rho_new)
        out[f"rho{alpha}"] = rho_new
        out[f"J{alpha}"] = j_new
    return state._successor(state.time + dt, **out)


def well_prepared_state(
    grid_state: GridState,
    p: ModelParams,
    epsilon: float,
    kernel: PointyKernel | None = None,
) -> KineticState:
    """Kinetic state with the equilibrium flux J = chi dS rho.

    Starting on the local equilibrium removes the initial layer so limit
    experiments isolate the spatial dynamics.
    """
    field = solve_chemo_field(grid_state.rho1, grid_state.rho2, grid_state.dx, p, kernel)
    return KineticState(
        grid_state.xmin,
        grid_state.dx,
        grid_state.rho1,
        grid_state.rho2,
        p.chi1 * field.dS * grid_state.rho1,
        p.chi2 * field.dS * grid_state.rho2,
        epsilon,
        grid_state.time,
    )


@dataclass
class KineticRunResult:
    snapshots: list[tuple[float, KineticState, ChemoField]]
    diagnostics: dict[str, np.ndarray]
    final: KineticState
    final_field: ChemoField
    dt: float
    n_steps: int
    elapsed: float


def run(
    initial: KineticState,
    p: ModelParams,
    T: float,
    kernel: PointyKernel | None = None,
    snapshot_times: tuple[float, ...] = (),
) -> KineticRunResult:
    """Advance to time T in steps of dt = dx (exact characteristic shifts,
    no numerical diffusion), refreshing the chemo field every step.

    Snapshots are recorded at the last step boundary <= each requested
    time.  Aborts through :func:`aggrekin.lattice.check_boundary` if mass
    reaches the outermost cells.
    """
    dt = initial.dx
    diag = {k: [] for k in ("t", "mass1", "mass2")}
    field = None  # the chemo field of the last recorded state

    def record(st: KineticState):
        nonlocal field
        field = field_for(st, p, kernel)
        m1, m2 = st.total_masses()
        diag["t"].append(st.time)
        diag["mass1"].append(m1)
        diag["mass2"].append(m2)
        return st.time, st, field

    snapshots, final, n_steps, elapsed = march(
        initial, T, dt, snapshot_times, lambda st: step(st, field, p, dt), record
    )
    return KineticRunResult(
        snapshots=snapshots,
        diagnostics={k: np.asarray(v) for k, v in diag.items()},
        final=final,
        final_field=field,
        dt=dt,
        n_steps=n_steps,
        elapsed=elapsed,
    )


def limit_experiment(
    initial: GridState,
    p: ModelParams,
    eps_list: list[float],
    T: float,
    kernel: PointyKernel | None = None,
    safety: float = 0.9,
) -> list[tuple[float, float, float]]:
    """Relaxation-limit sweep: kinetic runs vs. the aggregation reference.

    For each epsilon the kinetic solver starts from well-prepared data on
    ``initial``'s grid; the finite-volume solver provides the reference on
    the same grid.  Returns (epsilon, W2 species 1, W2 species 2) rows with
    normalized measures.  Requires chi_a (theta1 + theta2) < 1 and a
    strictly decreasing eps_list.
    """
    if not check_positivity_condition(p):
        raise ValueError("limit experiment requires chi_a (theta1 + theta2) < 1 for both species")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if kernel is None:
        kernel = exponential_kernel()
    fv_result = fv_run(
        initial, kernel, p, T, safety=safety, dt_max=initial.dx, track_peaks=False
    )
    ref = fv_result.final
    x = ref.centers
    rows = []
    for eps in eps_list:
        kin0 = well_prepared_state(initial, p, eps, kernel)
        kin = run(kin0, p, T, kernel=kernel).final
        d1 = wasserstein2(DiscreteMeasure(x, kin.rho1), DiscreteMeasure(x, ref.rho1))
        d2 = wasserstein2(DiscreteMeasure(x, kin.rho2), DiscreteMeasure(x, ref.rho2))
        rows.append((eps, d1, d2))
    return rows


def write_kinetic_snapshot_csv(path, state: KineticState, field: ChemoField) -> None:
    write_csv(
        path,
        ["x", "rho1", "J1", "rho2", "J2", "S", "dS"],
        zip(state.centers, state.rho1, state.J1, state.rho2, state.J2, field.S, field.dS),
    )


def write_limit_csv(path, rows: list[tuple[float, float, float]]) -> None:
    write_csv(path, ["epsilon", "w2_species1", "w2_species2"], rows)
