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
import numbers
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import fv as fv_mod
from . import kinetic as kin_mod
from . import particles as part_mod
from .csvio import write_csv, write_grid_csv
from .fv import extract_peaks
from .kernel import PointyKernel, exponential_kernel, regularize
from .lattice import GridState, mass_quantum, snap
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
    "initial_grid_state",
    "initial_cluster_set",
    "run_scenario",
    "report_sync_analysis",
]

SOLVERS = ("fv", "particles", "kinetic", "compare")

SCHEMA = """\
Scenario JSON schema (all masses in absolute units):
  name            non-empty str, run identifier and directory name (defaults to the file stem)
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
  dt_max          float > 0, default 0.05 (particles): an upper bound on the
                  step, whose length the error control sets
  epsilon         float > 0, kinetic scaling parameter (default 0.1)
  eps_list        [float, ...] strictly decreasing (limit sweeps only)
  output_dir      str, per-run output directory (optional)
"""


# the model parameters it may set; theta and psi default to ModelParams' 1.0
_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))
# the top-level keys: the first word of each SCHEMA line indented by two
_KNOWN_KEYS = {line.split()[0] for line in SCHEMA.splitlines() if len(line) - len(line.lstrip()) == 2}
_KERNEL_KEYS = {"exponential": ("kind",), "regularized": ("kind", "n")}


class ScenarioError(ValueError):
    """Configuration rejected, with the offending key in the message."""


def _number(key: str, value) -> float:
    """``value``, a real number, as a float; anything else -- a string, a
    boolean, a list, null -- is a ScenarioError that names ``key``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ScenarioError(f"{key}: expected a number, got {value!r}")


def _object(key: str, value, known=None, required=()) -> dict:
    """``value``, which must be a JSON object holding every key of
    ``required`` and no key outside ``known`` (when given); anything else
    is a ScenarioError that names ``key`` or the first offending key below
    it (``key`` "" is the scenario itself)."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{key or 'scenario'}: expected a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(known), key=str) if known is not None else []
    missing = [k for k in required if k not in value]
    if unknown or missing:
        k, what = (unknown[0], "unknown key") if unknown else (missing[0], "missing required key")
        raise ScenarioError(f"{key + '.' if key else ''}{k}: {what}")
    return value


def _numbers(key: str, values) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"{key}: expected a list of numbers, got {values!r}")
    return tuple(_number(key, v) for v in values)


def _check_cluster_quanta(key: str, masses: list[float]) -> None:
    """Refuse a positive mass of ``masses``, one species' cluster masses,
    that snaps to 0 against the species total, naming its entry of ``key``."""
    try:
        q = mass_quantum(math.fsum(masses))
    except OverflowError:
        raise ScenarioError(f"{key}: the species' total mass overflows") from None
    for i, m in enumerate(masses):
        if m > 0 and snap(m, q) == 0.0:
            raise ScenarioError(
                f"{key}[{i}]: mass {m!r} is at most half the mass quantum {q!r} of the species total, "
                "so it rounds to 0"
            )


# the keys a scenario file may leave to their Scenario defaults, in SCHEMA
# order, each with the parser of its value; output_dir passes through, and
# Scenario checks that it is a string
_OPTIONAL = dict(
    bump_width=_number, snapshot_times=_numbers, cfl_safety=_number, gap_tol=_number,
    dt_max=_number, epsilon=_number, eps_list=_numbers, output_dir=lambda key, value: value,
)


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
    dt_max: float = 0.05
    epsilon: float = 0.1
    eps_list: tuple[float, ...] | None = None
    output_dir: str | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ScenarioError(f"solver: unknown tag {self.solver!r}; valid: {', '.join(SOLVERS)}")
        make_kernel(self.kernel_spec)  # a bad kernel spec fails here, by its key
        for key in ("T", "bump_width", "gap_tol", "dt_max", "epsilon"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ScenarioError(f"{key}: must be positive and finite, got {getattr(self, key)!r}")
        if not 0.0 < self.cfl_safety < 1.0:
            raise ScenarioError("cfl_safety: must lie in (0, 1)")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ScenarioError(f"output_dir: expected a string, got {self.output_dir!r}")
        # the run directory is <output root>/<name>: one plain path component
        if not (isinstance(self.name, str) and self.name not in ("", ".", "..") and not {"/", "\\"} & set(self.name)):
            raise ScenarioError(
                f"name: expected a non-empty string with no '/' or '\\' that is not '.' or '..', got {self.name!r}"
            )
        for label, attr in (("species1", "initial1"), ("species2", "initial2")):
            spec = _object(f"initial.{label}", getattr(self, attr), ("bumps", "clusters"))
            forms = [key for key in ("bumps", "clusters") if key in spec]
            if len(forms) != 1:
                raise ScenarioError(
                    f"initial.{label}: exactly one of 'bumps' or 'clusters' is required"
                )
            entries = spec[forms[0]]
            if not isinstance(entries, (list, tuple)):
                raise ScenarioError(
                    f"initial.{label}.{forms[0]}: expected a list of [value, value] pairs, got {entries!r}"
                )
            pairs = []
            for i, entry in enumerate(entries):
                key = f"initial.{label}.{forms[0]}[{i}]"
                if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                    raise ScenarioError(f"{key}: entries must be [value, value] pairs, got {entry!r}")
                entry = _numbers(key, entry)
                pairs.append(list(entry))
                if not all(map(math.isfinite, entry)):
                    raise ScenarioError(f"{key}: entries must be finite, got {entry!r}")
                if forms[0] == "bumps" and entry[0] < 0:
                    raise ScenarioError(f"{key}: negative bump amplitude")
                if forms[0] == "clusters" and entry[1] < 0:
                    raise ScenarioError(f"{key}: negative cluster mass")
            if forms[0] == "clusters":
                _check_cluster_quanta(f"initial.{label}.clusters", [m for _, m in pairs])
            # the initial data is read as the numbers checked here
            setattr(self, attr, {**spec, forms[0]: pairs})
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
            if not math.isfinite((xmax - xmin) / dx):
                raise ScenarioError(
                    f"grid: (xmax - xmin) / dx = ({xmax!r} - {xmin!r}) / {dx!r} is not a finite cell count"
                )
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
        "params": asdict(s.params),
        "kernel": dict(s.kernel_spec),
        "initial": {"species1": dict(s.initial1), "species2": dict(s.initial2)},
        "solver": s.solver,
        "T": s.T,
    }
    if s.grid is not None:
        d["grid"] = {"xmin": s.grid[0], "xmax": s.grid[1], "dx": s.grid[2]}
    # only particle runs read gap_tol and dt_max
    particle_only = () if s.solver in ("particles", "compare") else ("gap_tol", "dt_max")
    for key, parse in _OPTIONAL.items():
        value = getattr(s, key)
        if value is not None and key not in particle_only:
            d[key] = list(value) if parse is _numbers else value
    return d


def scenario_from_dict(d: dict, name: str = "scenario") -> Scenario:
    _object("", d, _KNOWN_KEYS, ("params", "initial", "solver", "T"))
    prm = _object("params", d["params"], _PARAM_KEYS, ("chi1", "chi2"))
    values = {key: _number(f"params.{key}", prm[key]) for key in _PARAM_KEYS if key in prm}
    try:
        params = ModelParams(**values)
    except ValueError as exc:
        raise ScenarioError(f"params: {exc}") from exc
    # its keys depend on its kind, and make_kernel checks them
    kernel_spec = dict(_object("kernel", d.get("kernel", {"kind": "exponential"})))
    initial = _object("initial", d["initial"], ("species1", "species2"), ("species1", "species2"))
    grid = None
    if "grid" in d:
        g = _object("grid", d["grid"], ("xmin", "xmax", "dx"), ("xmin", "xmax", "dx"))
        grid = tuple(_number(f"grid.{key}", g[key]) for key in ("xmin", "xmax", "dx"))
    T = _number("T", d["T"])
    if d.get("snapshot_times") is None:
        d = {**d, "snapshot_times": [round(i * T / 5.0, 12) for i in range(6)]}
    return Scenario(
        name=d.get("name", name),
        params=params,
        kernel_spec=kernel_spec,
        initial1=initial["species1"],
        initial2=initial["species2"],
        solver=str(d["solver"]),
        T=T,
        grid=grid,
        **{key: parse(key, d[key]) for key, parse in _OPTIONAL.items() if key in d},
    )


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file or resolve a builtin preset name.

    A config may set ``"preset": "<name>"`` to start from that preset's
    document; any other keys (T, solver, grid, ...) replace its entries.
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
    if "preset" in _object("", data):
        data = {**_preset_config(str(data.pop("preset"))), **data}
    return scenario_from_dict(data, name=path.stem)


def write_scenario(path, s: Scenario) -> None:
    _write_json(Path(path), scenario_to_dict(s))


def make_kernel(spec: dict) -> PointyKernel:
    kind = spec.get("kind")
    if kind not in _KERNEL_KEYS:
        raise ScenarioError(f"kernel.kind: unknown tag {kind!r}; valid: exponential, regularized")
    _object("kernel", spec, _KERNEL_KEYS[kind])
    if kind == "exponential":
        return exponential_kernel()
    if "n" not in spec:
        raise ScenarioError("kernel.n: required for the regularized kernel")
    n = _number("kernel.n", spec["n"])
    if not n.is_integer() or n < 1:
        raise ScenarioError(f"kernel.n: expected a positive integer, got {spec['n']!r}")
    return regularize(exponential_kernel(), int(n))


# --- presets -----------------------------------------------------------

PRESET_NAMES = ("example1", "example2", "example3", "example4")

_PRESETS = {
    # chi1, chi2, species-1 bumps, species-2 bumps, T, solver
    "example1": (10.0, 1.0, [[4.0, -0.5], [2.0, 0.5]], [[2.0, -0.15]], 2.5, "particles"),
    "example2": (10.0, 1.0, [[2.0, -0.5], [4.0, 0.5]], [[2.0, -0.15]], 2.5, "particles"),
    "example3": (10.0, 1.0, [[2.0, -0.5], [4.0, 0.5]], [[2.0, -0.3]], 3.0, "particles"),
    "example4": (10.0, 1.0, [[3.0, -0.8], [1.5, -0.02]], [[3.5, 0.02], [8.5, 0.5]], 3.5, "fv"),
}


def _preset_config(name: str, solver: str | None = None, dx: float = 5e-4, T: float | None = None) -> dict:
    """The scenario document of preset ``name``: chi1 = 10, chi2 = 1,
    theta1 = theta2 = 1 and narrow Gaussian bumps of width 5000 on the
    domain [-2, 2], with the default snapshot times."""
    if name not in _PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; valid: {', '.join(PRESET_NAMES)}")
    chi1, chi2, b1, b2, t_default, solver_default = _PRESETS[name]
    return {
        "name": name,
        "params": {"chi1": chi1, "chi2": chi2},
        "initial": {"species1": {"bumps": b1}, "species2": {"bumps": b2}},
        "solver": solver or solver_default,
        "T": T if T is not None else t_default,
        "grid": {"xmin": -2.0, "xmax": 2.0, "dx": dx},
    }


def preset(name: str, solver: str | None = None, dx: float = 5e-4, T: float | None = None) -> Scenario:
    """One of the four canonical two-species scenarios (:func:`_preset_config`)."""
    return scenario_from_dict(_preset_config(name, solver, dx, T))


# --- initial data ------------------------------------------------------


def initial_grid_state(s: Scenario) -> GridState:
    if s.grid is None:
        raise ScenarioError("grid: required to sample initial data")
    rho = []
    for spec in (s.initial1, s.initial2):
        if "bumps" not in spec:
            raise ScenarioError("initial: grid solvers require Gaussian-bump initial data")
        rho.append(sample_gaussian_bumps(spec["bumps"], s.grid, s.bump_width).masses)
    return GridState(s.grid[0], s.grid[2], rho[0], rho[1])


def initial_cluster_set(s: Scenario) -> ClusterSet:
    """The initial clusters; each bump becomes a point of mass A * m0."""
    m0 = bump_mass_unit(s.bump_width)
    atoms: dict[float, list[float]] = {}
    for species, spec in ((1, s.initial1), (2, s.initial2)):
        if "clusters" in spec:
            pts = [(float(x), float(m)) for x, m in spec["clusters"]]
        else:
            pts = [(float(c), float(a) * m0) for a, c in spec["bumps"]]
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
        missing or unknown key, and a value that :func:`report_sync_analysis`
        cannot read, is named by its path in a ScenarioError."""
        try:
            report = cls(**d)
        except TypeError as exc:
            raise ScenarioError(f"report: {exc}") from None
        _number("report.mass_unit", report.mass_unit)
        if not isinstance(report.events, list):
            raise ScenarioError(f"report.events: expected a list of events, got {report.events!r}")
        for i, e in enumerate(report.events):
            key = f"report.events[{i}]"
            if _object(key, e).get("sync_lhs") is not None:
                printed = ("time", "m1", "m2", "gamma", "sync_lhs", "sync_rhs")
                _object(key, e, required=printed + ("kind",))
                for k in printed:
                    _number(f"{key}.{k}", e[k])
                if not isinstance(e["kind"], str):
                    raise ScenarioError(f"{key}.kind: expected a string, got {e['kind']!r}")
                _numbers(f"{key}.positions", e.get("positions") or [])
        return report


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


def _run_particles(s: Scenario, kernel, write) -> tuple[list[dict], dict, dict]:
    cs0 = initial_cluster_set(s)
    res = part_mod.run(
        cs0, kernel, s.params, s.T,
        dt_max=s.dt_max, gap_tol=s.gap_tol,
        snapshot_times=s.snapshot_times,
    )
    rows = [
        (t, c.id, x, c.m1, c.m2, 1.0 if c.glued else 0.0)
        for t, clusters, positions in res.samples
        for c, x in zip(clusters, positions)
    ]
    write("trajectories.csv", write_csv, ["t", "cluster_id", "position", "m1", "m2", "glued"], rows)
    events = [e.to_dict() for e in res.events]
    write("events.json", _write_json, events)
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
    return events, _conservation(cs0, res.final, s.params), extra


def _run_fv(s: Scenario, kernel, write) -> tuple[list[dict], dict, dict]:
    st0 = initial_grid_state(s)
    res = fv_mod.run(
        st0, kernel, s.params, s.T,
        snapshot_times=s.snapshot_times, safety=s.cfl_safety,
    )
    d = res.diagnostics
    conservation = _conservation(st0, res.final, s.params)
    conservation["min_cell"] = float(np.min(d["min_cell"]))
    conservation["max_velocity"] = float(np.max(d["max_velocity"]))
    peaks_payload = []
    for i, (t, state) in enumerate(res.snapshots):
        write(f"snapshot_{i:03d}.csv", write_grid_csv, ["x", "rho1_mass", "rho2_mass"], state)
        peaks_payload.append({"time": t, "peaks": [asdict(q) for q in extract_peaks(state)]})
    write("diagnostics.csv", write_csv, list(d), zip(*d.values()))
    write("peaks.json", _write_json, peaks_payload)
    events = [asdict(ev) for ev in res.events]
    write("fv_events.json", _write_json, events)
    # wall-clock timing stays out of the report: reruns are byte-identical
    return events, conservation, {"dt": res.dt, "n_steps": res.n_steps}


def check_kinetic_params(p: ModelParams) -> None:
    """Refuse ``p`` outside the kinetic model with a ScenarioError naming params."""
    if not kin_mod.check_positivity_condition(p):
        raise ScenarioError("params: kinetic runs require chi_a * (theta1 + theta2) < 1 for both species")


def _run_kinetic(s: Scenario, kernel, write) -> tuple[list[dict], dict, dict]:
    st0 = initial_grid_state(s)
    check_kinetic_params(s.params)
    kin0 = kin_mod.well_prepared_state(st0, s.params, s.epsilon, kernel)
    res = kin_mod.run(kin0, s.params, s.T, kernel=kernel, snapshot_times=s.snapshot_times)
    for i, (_, st) in enumerate(res.snapshots):
        # the chemo field on every cell, solved for this file only
        fld = kin_mod.solve_chemo_field(st, s.params, kernel)
        write(f"kinetic_{i:03d}.csv", write_csv, ["x", "rho1", "J1", "rho2", "J2", "S", "dS"],
              zip(st.centers, st.rho1, st.J1, st.rho2, st.J2, fld.S, fld.dS))
    extra = {"epsilon": s.epsilon, "dt": res.dt, "n_steps": res.n_steps}
    return [], _conservation(kin0, res.final), extra


def _run_compare(s: Scenario, kernel, write) -> tuple[list[dict], dict, dict]:
    """Particles and then the finite-volume scheme on the same scenario,
    with the per-event time agreement of the two."""
    p_events, p_cons, p_extra = _run_particles(s, kernel, write)
    f_events, f_cons, f_extra = _run_fv(s, kernel, write)
    extra = {"particles": p_extra, "fv": f_extra, "event_agreement": _match_events(p_events, f_events)}
    return p_events, {"particles": p_cons, "fv": f_cons}, extra


# every solver's collision kinds, with the class in which compare pairs a particle
# event with an FV one: a glue or cross is a contact, a final collapse has no class
_COLLISION_CLASS = {
    "glue": "contact", "cross": "contact", "contact": "contact",
    "merge_same_species": "merge", "final_collapse": None,
}

_RUNS = {"particles": _run_particles, "fv": _run_fv, "kinetic": _run_kinetic, "compare": _run_compare}


def run_scenario(s: Scenario, out_root: str | None = None) -> RunReport:
    """Run a scenario on its solver and write all outputs.

    Every file goes through one ``write(name, writer, *args)``, which calls
    ``writer(out / name, *args)`` and lists ``name`` in the report's
    ``files``, in write order; the report and ``scenario.json``, written
    last, end the list.  ``compare`` runs particles and the finite-volume
    scheme on the same scenario and reports per-event time agreement.
    """
    out = resolve_output_dir(s, out_root)
    files = []

    def write(name, writer, *args):
        writer(out / name, *args)
        files.append(name)

    events, conservation, extra = _RUNS[s.solver](s, make_kernel(s.kernel_spec), write)
    collision_times = sorted(e["time"] for e in events if e["kind"] in _COLLISION_CLASS)
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
    """Pair particle events with finite-volume peak events by class and order.

    One pointer walks the FV events: each particle event of a class (see
    ``_COLLISION_CLASS``) pairs with the next FV event of its class, and
    the FV events it passes over stay unpaired.
    """
    fv = iter(f_events)
    matches = []
    for pe in p_events:
        kind = _COLLISION_CLASS.get(pe["kind"])
        if kind and (fe := next((e for e in fv if _COLLISION_CLASS.get(e["kind"]) == kind), None)):
            pair = dict(kind=kind, particle_kind=pe["kind"], t_particles=pe["time"], t_fv=fe["time"])
            matches.append({**pair, "dt": abs(pe["time"] - fe["time"])})
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
