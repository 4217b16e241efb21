"""Scenario configuration, the four example presets, and run orchestration.

A scenario is a JSON document with a fixed key schema (see SCHEMA below).
Initial data is given per species either as Gaussian bumps
(amplitude/center pairs, sampled on the grid for the grid solvers and
converted to point clusters of mass amplitude * m0 for the particle
solver, m0 = sqrt(pi/width)) or as an explicit cluster list.  Outputs are
plain CSV/JSON files in a per-run directory; reruns of the same scenario
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fv as fv_mod
from . import kinetic as kin_mod
from . import particles as part_mod
from .csvio import write_csv
from .fv import GridState, extract_peaks
from .kernel import PointyKernel, exponential_kernel, regularize
from .measures import ModelParams, bump_mass_unit, sample_gaussian_bumps
from .particles import Cluster, ClusterSet

__all__ = [
    "SOLVERS",
    "Scenario",
    "RunReport",
    "ScenarioError",
    "SCHEMA",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "write_scenario",
    "make_kernel",
    "preset",
    "PRESET_NAMES",
    "bumps_to_clusters",
    "initial_grid_state",
    "initial_cluster_set",
    "run_scenario",
    "report_sync_analysis",
]

SOLVERS = ("fv", "particles", "kinetic", "compare")

SCHEMA = """\
Scenario JSON schema (all masses in absolute units):
  name            str, run identifier (defaults to the file stem)
  params          {chi1, chi2, theta1, theta2, psi1, psi2}; chi required,
                  theta default 1.0, psi default 1.0 (kinetic only)
  kernel          {"kind": "exponential"} or {"kind": "regularized", "n": int >= 1}
  initial         {"species1": {...}, "species2": {...}} where each species is
                  {"bumps": [[amplitude, center], ...]} or
                  {"clusters": [[position, mass], ...]}  (exactly one form)
  bump_width      float > 0, Gaussian width w in A*exp(-w(x-c)^2) (default 5000)
  solver          "fv" | "particles" | "kinetic" | "compare"
  grid            {xmin, xmax, dx}; required for fv/kinetic/compare
  T               float > 0, final time
  snapshot_times  [float, ...] in [0, T] (default: 6 evenly spaced)
  cfl_safety      float in (0, 1), default 0.9 (grid solvers)
  gap_tol         float > 0, default 1e-9 (particles)
  dt_max          float > 0, default 1e-3 (particles)
  epsilon         float > 0, kinetic scaling parameter (default 0.1)
  eps_list        [float, ...] strictly decreasing (limit sweeps only)
  output_dir      str, per-run output directory (optional)
"""


# the scalar settings a scenario file may leave to their Scenario defaults
_OPTIONAL_NUMBERS = ("bump_width", "cfl_safety", "gap_tol", "dt_max", "epsilon")
# the model parameters it may set; theta and psi default to ModelParams' 1.0
_PARAM_KEYS = ("chi1", "chi2", "theta1", "theta2", "psi1", "psi2")


class ScenarioError(ValueError):
    """Configuration rejected, with the offending key in the message."""


def _number(key: str, value, kind=float):
    """``value`` as a ``kind`` (float or int); anything else -- a list, a
    word, null -- is a ScenarioError that names ``key``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{key}: expected a number, got {value!r}") from None


def _numbers(key: str, values) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"{key}: expected a list of numbers, got {values!r}")
    return tuple(_number(key, v) for v in values)


@dataclass
class Scenario:
    name: str
    params: ModelParams
    kernel_spec: dict
    initial1: dict
    initial2: dict
    solver: str
    T: float
    grid: tuple[float, float, float] | None = None
    bump_width: float = 5000.0
    snapshot_times: tuple[float, ...] = ()
    cfl_safety: float = 0.9
    gap_tol: float = 1e-9
    dt_max: float = 1e-3
    epsilon: float = 0.1
    eps_list: tuple[float, ...] | None = None
    output_dir: str | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ScenarioError(f"solver: unknown tag {self.solver!r}; valid: {', '.join(SOLVERS)}")
        for key in ("T", "bump_width", "gap_tol", "dt_max", "epsilon"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ScenarioError(f"{key}: must be positive and finite, got {getattr(self, key)!r}")
        if not 0.0 < self.cfl_safety < 1.0:
            raise ScenarioError("cfl_safety: must lie in (0, 1)")
        for label, spec in (("species1", self.initial1), ("species2", self.initial2)):
            forms = [key for key in ("bumps", "clusters") if key in spec]
            if len(forms) != 1:
                raise ScenarioError(
                    f"initial.{label}: exactly one of 'bumps' or 'clusters' is required"
                )
            for entry in spec[forms[0]]:
                if len(entry) != 2:
                    raise ScenarioError(f"initial.{label}: entries must be [value, value] pairs")
                if not all(map(math.isfinite, entry)):
                    raise ScenarioError(f"initial.{label}: entries must be finite, got {entry!r}")
                if forms[0] == "bumps" and entry[0] < 0:
                    raise ScenarioError(f"initial.{label}: negative bump amplitude")
                if forms[0] == "clusters" and entry[1] < 0:
                    raise ScenarioError(f"initial.{label}: negative cluster mass")
        if self.solver in ("fv", "kinetic", "compare"):
            if self.grid is None:
                raise ScenarioError(f"grid: required for solver {self.solver!r}")
            if "clusters" in self.initial1 or "clusters" in self.initial2:
                raise ScenarioError(
                    "initial: grid solvers require Gaussian-bump initial data"
                )
        if self.grid is not None:
            for key, value in zip(("xmin", "xmax", "dx"), self.grid):
                if not math.isfinite(value):
                    raise ScenarioError(f"grid.{key}: must be finite, got {value!r}")
            xmin, xmax, dx = self.grid
            if not (xmax > xmin and dx > 0):
                raise ScenarioError("grid: needs xmax > xmin and dx > 0")
        if not all(0.0 <= t <= self.T for t in self.snapshot_times):
            raise ScenarioError(f"snapshot_times: must lie in [0, T], got {list(self.snapshot_times)!r}")
        if self.eps_list is not None:
            if not all(0.0 < e < math.inf for e in self.eps_list) or any(
                b >= a for a, b in zip(self.eps_list, self.eps_list[1:])
            ):
                raise ScenarioError("eps_list: must be positive, finite and strictly decreasing")

    @property
    def mass_unit(self) -> float:
        """Reporting unit: bump mass m0 for bump scenarios, else 1."""
        if "bumps" in self.initial1 or "bumps" in self.initial2:
            return bump_mass_unit(self.bump_width)
        return 1.0


def scenario_to_dict(s: Scenario) -> dict:
    d = {
        "name": s.name,
        "params": {
            "chi1": s.params.chi1,
            "chi2": s.params.chi2,
            "theta1": s.params.theta1,
            "theta2": s.params.theta2,
            "psi1": s.params.psi1,
            "psi2": s.params.psi2,
        },
        "kernel": dict(s.kernel_spec),
        "initial": {"species1": dict(s.initial1), "species2": dict(s.initial2)},
        "bump_width": s.bump_width,
        "solver": s.solver,
        "T": s.T,
        "snapshot_times": list(s.snapshot_times),
        "cfl_safety": s.cfl_safety,
        "gap_tol": s.gap_tol,
        "dt_max": s.dt_max,
        "epsilon": s.epsilon,
    }
    if s.grid is not None:
        d["grid"] = {"xmin": s.grid[0], "xmax": s.grid[1], "dx": s.grid[2]}
    if s.eps_list is not None:
        d["eps_list"] = list(s.eps_list)
    if s.output_dir is not None:
        d["output_dir"] = s.output_dir
    return d


_KNOWN_KEYS = {
    "name",
    "params",
    "kernel",
    "initial",
    "bump_width",
    "solver",
    "grid",
    "T",
    "snapshot_times",
    "cfl_safety",
    "gap_tol",
    "dt_max",
    "epsilon",
    "eps_list",
    "output_dir",
}


def scenario_from_dict(d: dict, name: str = "scenario") -> Scenario:
    unknown = set(d) - _KNOWN_KEYS
    if unknown:
        raise ScenarioError(f"unknown key(s): {', '.join(sorted(unknown))}")
    for key in ("params", "initial", "solver", "T"):
        if key not in d:
            raise ScenarioError(f"{key}: missing required key")
    prm = d["params"]
    for key in ("chi1", "chi2"):
        if key not in prm:
            raise ScenarioError(f"params.{key}: missing required key")
    values = {key: _number(f"params.{key}", prm[key]) for key in _PARAM_KEYS if key in prm}
    try:
        params = ModelParams(**values)
    except ValueError as exc:
        raise ScenarioError(f"params: {exc}") from exc
    kernel_spec = dict(d.get("kernel", {"kind": "exponential"}))
    initial = d["initial"]
    if "species1" not in initial or "species2" not in initial:
        raise ScenarioError("initial: needs 'species1' and 'species2' entries")
    grid = None
    if "grid" in d:
        g = d["grid"]
        for key in ("xmin", "xmax", "dx"):
            if key not in g:
                raise ScenarioError(f"grid.{key}: missing required key")
        grid = tuple(_number(f"grid.{key}", g[key]) for key in ("xmin", "xmax", "dx"))
    T = _number("T", d["T"])
    snapshot_times = d.get("snapshot_times")
    if snapshot_times is None:
        snapshot_times = [round(i * T / 5.0, 12) for i in range(6)]
    return Scenario(
        name=str(d.get("name", name)),
        params=params,
        kernel_spec=kernel_spec,
        initial1=dict(initial["species1"]),
        initial2=dict(initial["species2"]),
        solver=str(d["solver"]),
        T=T,
        grid=grid,
        snapshot_times=_numbers("snapshot_times", snapshot_times),
        eps_list=_numbers("eps_list", d["eps_list"]) if "eps_list" in d else None,
        output_dir=d.get("output_dir"),
        **{key: _number(key, d[key]) for key in _OPTIONAL_NUMBERS if key in d},
    )


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file or resolve a builtin preset name.

    A config may set ``"preset": "<name>"`` to start from that preset's
    values; any other keys (T, solver, grid, ...) override the preset's
    defaults.
    """
    if str(path) in PRESET_NAMES:
        return preset(str(path))
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    with path.open() as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    if "preset" in data:
        base = scenario_to_dict(preset(str(data.pop("preset"))))
        base.pop("snapshot_times", None)
        base.update(data)
        data = base
    return scenario_from_dict(data, name=path.stem)


def write_scenario(path, s: Scenario) -> None:
    with Path(path).open("w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


def make_kernel(spec: dict) -> PointyKernel:
    kind = spec.get("kind")
    if kind == "exponential":
        return exponential_kernel()
    if kind == "regularized":
        if "n" not in spec:
            raise ScenarioError("kernel.n: required for the regularized kernel")
        return regularize(exponential_kernel(), _number("kernel.n", spec["n"], int))
    raise ScenarioError(f"kernel.kind: unknown tag {kind!r}; valid: exponential, regularized")


# --- presets -----------------------------------------------------------

PRESET_NAMES = ("example1", "example2", "example3", "example4")

_PRESETS = {
    # chi1, chi2, species-1 bumps, species-2 bumps, T, solver
    "example1": (10.0, 1.0, [[4.0, -0.5], [2.0, 0.5]], [[2.0, -0.15]], 2.5, "particles"),
    "example2": (10.0, 1.0, [[2.0, -0.5], [4.0, 0.5]], [[2.0, -0.15]], 2.5, "particles"),
    "example3": (10.0, 1.0, [[2.0, -0.5], [4.0, 0.5]], [[2.0, -0.3]], 3.0, "particles"),
    "example4": (10.0, 1.0, [[3.0, -0.8], [1.5, -0.02]], [[3.5, 0.02], [8.5, 0.5]], 3.5, "fv"),
}


def preset(name: str, solver: str | None = None, dx: float = 5e-4, T: float | None = None) -> Scenario:
    """One of the four canonical two-species scenarios.

    All use chi1 = 10, chi2 = 1, theta1 = theta2 = 1 and narrow Gaussian
    bumps of width 5000 on the domain [-2, 2].
    """
    if name not in _PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; valid: {', '.join(PRESET_NAMES)}")
    chi1, chi2, b1, b2, t_default, solver_default = _PRESETS[name]
    t_final = T if T is not None else t_default
    return Scenario(
        name=name,
        params=ModelParams(chi1=chi1, chi2=chi2),
        kernel_spec={"kind": "exponential"},
        initial1={"bumps": [list(b) for b in b1]},
        initial2={"bumps": [list(b) for b in b2]},
        solver=solver or solver_default,
        T=t_final,
        grid=(-2.0, 2.0, dx),
        snapshot_times=tuple(round(i * t_final / 5.0, 12) for i in range(6)),
    )


# --- initial data ------------------------------------------------------


def bumps_to_clusters(bumps: list, width: float) -> list[tuple[float, float]]:
    """(position, mass) atoms: each bump becomes a point of mass A * m0."""
    m0 = bump_mass_unit(width)
    return [(float(c), float(a) * m0) for a, c in bumps]


def initial_grid_state(s: Scenario) -> GridState:
    if s.grid is None:
        raise ScenarioError("grid: required to sample initial data")
    rho = []
    for spec in (s.initial1, s.initial2):
        if "bumps" not in spec:
            raise ScenarioError("initial: grid solvers require Gaussian-bump initial data")
        if spec["bumps"]:
            rho.append(sample_gaussian_bumps(spec["bumps"], s.grid, s.bump_width).masses)
        else:
            n = int(round((s.grid[1] - s.grid[0]) / s.grid[2]))
            rho.append(np.zeros(n))
    return GridState(s.grid[0], s.grid[2], rho[0], rho[1])


def initial_cluster_set(s: Scenario) -> ClusterSet:
    atoms: dict[float, list[float]] = {}
    for species, spec in ((1, s.initial1), (2, s.initial2)):
        if "clusters" in spec:
            pts = [(float(x), float(m)) for x, m in spec["clusters"]]
        else:
            pts = bumps_to_clusters(spec["bumps"], s.bump_width)
        for x, m in pts:
            slot = atoms.setdefault(x, [0.0, 0.0])
            slot[species - 1] += m
    clusters = [Cluster(x, m1, m2) for x, (m1, m2) in sorted(atoms.items()) if m1 + m2 > 0]
    return ClusterSet(clusters)


# --- reports -----------------------------------------------------------


@dataclass
class RunReport:
    scenario: dict
    solver: str
    mass_unit: float
    events: list[dict]
    conservation: dict
    collision_times: list[float]
    files: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        """The report that :meth:`to_dict` (or a ``report.json``) holds; a
        missing or unknown key is named in a ScenarioError."""
        try:
            return cls(**d)
        except TypeError as exc:
            raise ScenarioError(f"report: {exc}") from None


_FMT = "%.17g"


def _write_json(path: Path, payload) -> None:
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def resolve_output_dir(s: Scenario, out_root: str | None = None) -> Path:
    if s.output_dir is not None:
        base = Path(s.output_dir)
    else:
        root = out_root or os.environ.get("AGGREKIN_OUTPUT_ROOT", "runs")
        base = Path(root) / s.name
    base.mkdir(parents=True, exist_ok=True)
    return base


def _conservation(initial, final, p: ModelParams | None = None) -> dict:
    """Per-species masses before and after a run and their drifts, plus the
    weighted centre and its drift when ``p`` is given."""
    m1_0, m2_0 = initial.total_masses()
    m1_1, m2_1 = final.total_masses()
    out = {
        "mass1_initial": m1_0,
        "mass2_initial": m2_0,
        "mass1_final": m1_1,
        "mass2_final": m2_1,
        "mass1_drift": m1_1 - m1_0,
        "mass2_drift": m2_1 - m2_0,
    }
    if p is not None:
        wc0 = initial.weighted_center(p)
        out["weighted_center_initial"] = wc0
        out["weighted_center_drift"] = final.weighted_center(p) - wc0
    return out


def _run_particles(s: Scenario, kernel, out: Path) -> tuple[list[dict], dict, dict, list[str]]:
    cs0 = initial_cluster_set(s)
    res = part_mod.run(
        cs0, kernel, s.params, s.T,
        dt_max=s.dt_max, gap_tol=s.gap_tol,
        snapshot_times=s.snapshot_times,
    )
    conservation = _conservation(cs0, res.final, s.params)
    files = []
    traj_path = out / "trajectories.csv"
    rows = []
    for t, clusters in res.samples:
        for c in clusters:
            rows.append((t, c.id, c.position, c.m1, c.m2, 1.0 if c.glued else 0.0))
    write_csv(traj_path, ["t", "cluster_id", "position", "m1", "m2", "glued"], rows)
    files.append(traj_path.name)
    events = [e.to_dict() for e in res.events]
    ev_path = out / "events.json"
    _write_json(ev_path, events)
    files.append(ev_path.name)
    extra = {
        "final_clusters": [
            {"position": c.position, "m1": c.m1, "m2": c.m2, "glued": c.glued}
            for c in res.final.clusters
        ],
        "snapshots": {
            _FMT % t: [[c.position, c.m1, c.m2] for c in snap.clusters]
            for t, snap in res.snapshots
        },
    }
    return events, conservation, extra, files


def _run_fv(s: Scenario, kernel, out: Path) -> tuple[list[dict], dict, dict, list[str]]:
    st0 = initial_grid_state(s)
    res = fv_mod.run(
        st0, kernel, s.params, s.T,
        snapshot_times=s.snapshot_times, safety=s.cfl_safety,
    )
    conservation = _conservation(st0, res.final, s.params)
    conservation["min_cell"] = float(np.min(res.diagnostics["min_cell"]))
    conservation["max_velocity"] = float(np.max(res.diagnostics["max_velocity"]))
    files = []
    peaks_payload = []
    for i, (t, state) in enumerate(res.snapshots):
        snap_path = out / f"snapshot_{i:03d}.csv"
        write_csv(
            snap_path,
            ["x", "rho1_mass", "rho2_mass"],
            zip(state.centers, state.rho1, state.rho2),
        )
        files.append(snap_path.name)
        peaks_payload.append(
            {
                "time": t,
                "peaks": [
                    {"position": q.position, "mass1": q.mass1, "mass2": q.mass2}
                    for q in extract_peaks(state)
                ],
            }
        )
    diag_path = out / "diagnostics.csv"
    d = res.diagnostics
    write_csv(
        diag_path,
        ["t", "mass1", "mass2", "weighted_center", "max_velocity", "min_cell"],
        zip(d["t"], d["mass1"], d["mass2"], d["weighted_center"], d["max_velocity"], d["min_cell"]),
    )
    files.append(diag_path.name)
    peaks_path = out / "peaks.json"
    _write_json(peaks_path, peaks_payload)
    files.append(peaks_path.name)
    events = [
        {
            "time": ev.time,
            "kind": ev.kind,
            "position": ev.position,
            "species": ev.species,
            "peaks1": [[q.position, q.mass1] for q in ev.peaks1],
            "peaks2": [[q.position, q.mass2] for q in ev.peaks2],
        }
        for ev in res.events
    ]
    ev_path = out / "fv_events.json"
    _write_json(ev_path, events)
    files.append(ev_path.name)
    # wall-clock timing stays out of the report: reruns are byte-identical
    extra = {"dt": res.dt, "n_steps": res.n_steps}
    return events, conservation, extra, files


def _run_kinetic(s: Scenario, kernel, out: Path) -> tuple[list[dict], dict, dict, list[str]]:
    st0 = initial_grid_state(s)
    if not kin_mod.check_positivity_condition(s.params):
        raise ScenarioError(
            "params: kinetic runs require chi_a * (theta1 + theta2) < 1 for both species"
        )
    kin0 = kin_mod.well_prepared_state(st0, s.params, s.epsilon, kernel)
    res = kin_mod.run(kin0, s.params, s.T, kernel=kernel, snapshot_times=s.snapshot_times)
    conservation = _conservation(kin0, res.final)
    files = []
    for i, (t, state, fld) in enumerate(res.snapshots):
        snap_path = out / f"kinetic_{i:03d}.csv"
        kin_mod.write_kinetic_snapshot_csv(snap_path, state, fld)
        files.append(snap_path.name)
    extra = {"epsilon": s.epsilon, "dt": res.dt, "n_steps": res.n_steps}
    return [], conservation, extra, files


def run_scenario(s: Scenario, out_root: str | None = None) -> RunReport:
    """Dispatch a scenario to its solver and write all outputs.

    ``compare`` runs particles and the finite-volume scheme on the same
    scenario and reports per-event time agreement.
    """
    out = resolve_output_dir(s, out_root)
    kernel = make_kernel(s.kernel_spec)
    if s.solver == "particles":
        events, conservation, extra, files = _run_particles(s, kernel, out)
    elif s.solver == "fv":
        events, conservation, extra, files = _run_fv(s, kernel, out)
    elif s.solver == "kinetic":
        events, conservation, extra, files = _run_kinetic(s, kernel, out)
    elif s.solver == "compare":
        p_events, p_cons, p_extra, p_files = _run_particles(s, kernel, out)
        f_events, f_cons, f_extra, f_files = _run_fv(s, kernel, out)
        events = p_events
        conservation = {"particles": p_cons, "fv": f_cons}
        files = p_files + f_files
        extra = {
            "particles": p_extra,
            "fv": f_extra,
            "event_agreement": _match_events(p_events, f_events),
        }
    else:  # pragma: no cover - guarded by Scenario validation
        raise ScenarioError(f"solver: unknown tag {s.solver!r}")

    collision_times = sorted(
        e["time"]
        for e in events
        if e["kind"] in ("glue", "cross", "merge_same_species", "contact", "final_collapse")
    )
    report = RunReport(
        scenario=scenario_to_dict(s),
        solver=s.solver,
        mass_unit=s.mass_unit,
        events=events,
        conservation=conservation,
        collision_times=collision_times,
        files=files + ["report.json", "scenario.json"],
        extra=extra,
    )
    _write_json(out / "report.json", report.to_dict())
    write_scenario(out / "scenario.json", s)
    return report


def _match_events(p_events: list[dict], f_events: list[dict]) -> list[dict]:
    """Pair particle events with finite-volume peak events by kind and order.

    Particle glue/cross events correspond to FV contacts; same-species
    merges correspond on both sides.
    """
    def normalize(kind: str) -> str | None:
        if kind in ("glue", "cross", "contact"):
            return "contact"
        if kind == "merge_same_species":
            return "merge"
        return None

    p_seq = [(normalize(e["kind"]), e) for e in p_events if normalize(e["kind"])]
    f_seq = [(normalize(e["kind"]), e) for e in f_events if normalize(e["kind"])]
    matches = []
    j = 0
    for kind, pe in p_seq:
        while j < len(f_seq) and f_seq[j][0] != kind:
            j += 1
        if j >= len(f_seq):
            break
        fe = f_seq[j][1]
        matches.append(
            {
                "kind": kind,
                "particle_kind": pe["kind"],
                "t_particles": pe["time"],
                "t_fv": fe["time"],
                "dt": abs(pe["time"] - fe["time"]),
            }
        )
        j += 1
    return matches


def report_sync_analysis(report: RunReport) -> str:
    """Human-readable synchronising-condition table for a particle run.

    Masses, the external attraction and both sides of the condition are
    printed in units of the bump mass m0 so the numbers match the usual
    normalized tables.
    """
    unit = report.mass_unit or 1.0
    lines = [
        f"sync analysis (masses in units of m0 = {unit:.10g})",
        f"{'t':>9s} {'position':>10s} {'m1':>7s} {'m2':>7s} {'gamma':>9s} "
        f"{'LHS':>9s} {'RHS':>9s}  decision",
    ]
    for e in report.events:
        if e.get("sync_lhs") is None:
            continue
        kind = e["kind"]
        decision = {"glue": "synchronise", "cross": "separate", "unglue": "unglue"}.get(kind, kind)
        pos = e["positions"][0] if e.get("positions") else math.nan
        lines.append(
            f"{e['time']:9.4f} {pos:10.4f} {e['m1'] / unit:7.3f} {e['m2'] / unit:7.3f} "
            f"{e['gamma'] / unit:9.4f} {e['sync_lhs'] / unit:9.4f} {e['sync_rhs'] / unit:9.4f}"
            f"  {decision}"
        )
    if len(lines) == 2:
        lines.append("(no cross-species events)")
    return "\n".join(lines)
