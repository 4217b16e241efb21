"""The three benchmark workloads: seeded inputs, one timed pass, output
checks and the accuracy reference of each pass.

Every workload follows one protocol:

- ``build(seed, out)`` is the set-up a user pays before solving: the
  scenario, the kernel and the initial ``GridState``/``ClusterSet``.
- ``run_pass(inputs)`` is one timed pass through the public API, from the
  solver call through its last output file.
- ``check(inputs, result, out)`` lists what is wrong with the outputs.
- ``event_err(inputs, result, out)`` is the largest deviation of the
  pass's result from a reference at the same seed, in model units.
- ``describe(inputs, result)`` gives the grid size and step count.

Seed 0 reproduces the presets exactly.  Any other seed scales each bump
amplitude by 1 + u * 1e-5 and shifts each centre by u * 1e-6 (u uniform
in [-1, 1]).  That changes every input byte, so results cannot be reused
across seeds.  The event sequence and the event times stay the same to
about 1e-5, so ``event_err`` keeps its meaning: an FV event time moves
only in whole steps of dt (about 4.5e-4 here), and a larger jitter would
move ``event_err`` by tens of percent from seed to seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from aggrekin import kinetic, measures, particles, scenarios
from aggrekin.fv import GridState
from aggrekin.kernel import exponential_kernel

AMPLITUDE_JITTER = 1e-5
CENTRE_JITTER = 1e-6

# Example 2's first contact from the exact three-aggregate dynamics (README
# "Tests and acceptance suite"), not the 0.9 that TestCriterion2 pins.
EXAMPLE2_FIRST_CROSS = 0.789

PRESET_KINDS = {
    "example1": ["glue", "merge_same_species", "glue", "final_collapse"],
    "example2": ["cross", "merge_same_species", "glue", "final_collapse"],
    "example3": ["glue", "unglue", "merge_same_species", "glue", "final_collapse"],
    "example4": [
        "glue", "merge_same_species", "cross", "glue",
        "merge_same_species", "glue", "final_collapse",
    ],
}


def jitter_bumps(bumps: list, rng: np.random.Generator | None) -> list[list[float]]:
    """[[amplitude, centre], ...] perturbed by ``rng``; unchanged for None."""
    if rng is None:
        return [list(b) for b in bumps]
    return [
        [a * (1.0 + AMPLITUDE_JITTER * rng.uniform(-1.0, 1.0)), c + CENTRE_JITTER * rng.uniform(-1.0, 1.0)]
        for a, c in bumps
    ]


def seed_rng(seed: int) -> np.random.Generator | None:
    return None if seed == 0 else np.random.default_rng(seed)


def jittered_preset(name: str, rng, **overrides) -> scenarios.Scenario:
    s = scenarios.preset(name, **overrides)
    s.initial1 = {"bumps": jitter_bumps(s.initial1["bumps"], rng)}
    s.initial2 = {"bumps": jitter_bumps(s.initial2["bumps"], rng)}
    return s


# --- checks ------------------------------------------------------------


def check_conservation(conservation: dict) -> list[str]:
    """Per-species mass drift exactly 0.0 and no negative cell."""
    fails = [
        f"{key} = {conservation[key]!r}, expected exactly 0.0"
        for key in ("mass1_drift", "mass2_drift")
        if conservation[key] != 0.0
    ]
    if "min_cell" in conservation and not conservation["min_cell"] >= 0.0:
        fails.append(f"min_cell = {conservation['min_cell']!r} < 0")
    return fails


def check_first_contact(events: list[dict], t=0.947, t_tol=0.05, x=-0.18, x_tol=0.02) -> list[str]:
    """Example 1's first FV contact in its acceptance window, and no separation."""
    contacts = [e for e in events if e["kind"] == "contact"]
    if not contacts:
        return ["no FV contact event"]
    first = contacts[0]
    fails = []
    if abs(first["time"] - t) > t_tol:
        fails.append(f"first contact at t = {first['time']!r}, expected {t} +- {t_tol}")
    if abs(first["position"] - x) > x_tol:
        fails.append(f"first contact at x = {first['position']!r}, expected {x} +- {x_tol}")
    if any(e["kind"] == "separate" for e in events):
        fails.append("FV pair separated")
    return fails


def check_preset_events(name: str, events: list[dict]) -> list[str]:
    kinds = [e["kind"] for e in events]
    fails = []
    if kinds != PRESET_KINDS[name]:
        fails.append(f"{name}: event kinds {kinds}, expected {PRESET_KINDS[name]}")
    if name == "example2" and events and abs(events[0]["time"] - EXAMPLE2_FIRST_CROSS) > 1e-3:
        fails.append(f"example2: first cross at {events[0]['time']!r}, expected {EXAMPLE2_FIRST_CROSS} +- 1e-3")
    return fails


def check_w2_decreasing(rows: list[tuple[float, float, float]]) -> list[str]:
    fails = []
    for species in (1, 2):
        d = [row[species] for row in rows]
        if not all(np.isfinite(d)) or any(b >= a for a, b in zip(d, d[1:])):
            fails.append(f"species-{species} W2 not strictly decreasing in epsilon: {d}")
    return fails


# --- event-time reference ----------------------------------------------

_EVENT_CLASS = {"glue": "contact", "cross": "contact", "contact": "contact", "merge_same_species": "merge"}


def matched_event_times(reference: list[tuple[str, float]], measured: list[tuple[str, float]]):
    """(t_reference, t_measured) pairs: contact and merge events, matched in
    order within each class (particle glue/cross correspond to FV contacts)."""
    def by_class(events):
        out = {"contact": [], "merge": []}
        for kind, t in events:
            if kind in _EVENT_CLASS:
                out[_EVENT_CLASS[kind]].append(t)
        return out

    ref, got = by_class(reference), by_class(measured)
    return [pair for cls in ref for pair in zip(ref[cls], got[cls])]


def max_event_time_error(reference, measured) -> float:
    pairs = matched_event_times(reference, measured)
    if not pairs:
        raise ValueError("no contact or merge event to compare with the reference")
    return max(abs(a - b) for a, b in pairs)


# --- workloads ---------------------------------------------------------


@dataclass
class FvInputs:
    scenario: scenarios.Scenario
    kernel: object
    state: GridState


class FvContact:
    """Example 1 on FV through ``run_scenario``, through its first contact
    and glue; the particle solver at the same seed is the event-time
    reference."""

    PRESET = "example1"
    DX = 5e-4
    T = 1.0

    def build(self, seed: int, out: Path) -> FvInputs:
        s = jittered_preset(self.PRESET, seed_rng(seed), solver="fv", dx=self.DX, T=self.T)
        s.output_dir = str(out)
        kernel = scenarios.make_kernel(s.kernel_spec)
        return FvInputs(s, kernel, scenarios.initial_grid_state(s))

    def run_pass(self, inputs: FvInputs):
        return scenarios.run_scenario(inputs.scenario)

    def check(self, inputs: FvInputs, report, out: Path) -> list[str]:
        return check_conservation(report.conservation) + check_first_contact(report.events)

    def event_err(self, inputs: FvInputs, report, out: Path) -> float:
        s = inputs.scenario
        ref = particles.run(
            scenarios.initial_cluster_set(s), inputs.kernel, s.params, s.T,
            dt_max=s.dt_max, gap_tol=s.gap_tol,
        )
        return max_event_time_error(
            [(e.kind, e.time) for e in ref.events],
            [(e["kind"], e["time"]) for e in report.events],
        )

    def describe(self, inputs: FvInputs, report) -> dict:
        return {"n_cells": inputs.state.n_cells, "steps": report.extra["n_steps"]}


@dataclass
class ParticleInputs:
    scenarios: list
    kernel: object
    clusters: list


class ParticlePresets:
    """All four presets on the particle solver.  The reference is a
    scipy ``solve_ivp`` (DOP853, rtol 1e-12) integration of the free
    aggregate ODE up to each preset's first event, compared with every
    trajectory sample before that event."""

    def build(self, seed: int, out: Path) -> ParticleInputs:
        rng = seed_rng(seed)
        scs = []
        for name in scenarios.PRESET_NAMES:
            s = jittered_preset(name, rng, solver="particles")
            s.output_dir = str(out / name)
            scs.append(s)
        kernel = scenarios.make_kernel(scs[0].kernel_spec)
        return ParticleInputs(scs, kernel, [scenarios.initial_cluster_set(s) for s in scs])

    def run_pass(self, inputs: ParticleInputs):
        return [scenarios.run_scenario(s) for s in inputs.scenarios]

    def check(self, inputs, reports, out) -> list[str]:
        fails = []
        for s, report in zip(inputs.scenarios, reports):
            fails += [f"{s.name}: {f}" for f in check_conservation(report.conservation)]
            fails += check_preset_events(s.name, report.events)
        return fails

    def event_err(self, inputs, reports, out) -> float:
        return max(
            _trajectory_error(cs, s.params, Path(s.output_dir) / "trajectories.csv", report.events[0]["time"])
            for s, cs, report in zip(inputs.scenarios, inputs.clusters, reports)
        )

    def describe(self, inputs, reports) -> dict:
        return {"n_cells": None, "steps": None}


def _trajectory_error(cs, p, path: Path, t_first: float) -> float:
    """Largest |position - exact position| over trajectory samples before
    ``t_first``, while every aggregate is still free and single-species."""
    from scipy.integrate import solve_ivp

    z0 = cs.positions()
    m1 = np.array([c.m1 for c in cs.clusters])
    m2 = np.array([c.m2 for c in cs.clusters])
    w = p.theta1 * m1 + p.theta2 * m2
    chi = np.where(m1 > 0, p.chi1, p.chi2)

    def rhs(_t, z):
        d = z[:, None] - z[None, :]
        return chi * ((-0.5 * np.sign(d) * np.exp(-np.abs(d))) @ w)

    samples: dict[float, list[float]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, _cid, x, *_ in reader:
            if float(t) < t_first:
                samples.setdefault(float(t), []).append(float(x))
    times = sorted(samples)
    sol = solve_ivp(rhs, (0.0, times[-1]), z0, method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference ODE failed: {sol.message}")
    return max(float(np.max(np.abs(np.array(samples[t]) - sol.y[:, i]))) for i, t in enumerate(times))


@dataclass
class KineticInputs:
    params: measures.ModelParams
    kernel: object
    state: GridState
    out: Path


class KineticLimit:
    """The criterion-9 relaxation sweep.  Its result is the W2 distance
    from the kinetic solution to the FV aggregation reference; the error
    reported is that distance at the smallest epsilon."""

    EPS = (0.5, 0.1, 0.02)
    T = 0.5
    GRID = (-2.0, 2.0, 2e-3)
    WIDTH = 200.0

    def build(self, seed: int, out: Path) -> KineticInputs:
        rng = seed_rng(seed)
        b1 = jitter_bumps([[1.0, -0.4]], rng)
        b2 = jitter_bumps([[1.0, 0.4]], rng)
        r1 = measures.sample_gaussian_bumps(b1, self.GRID, width=self.WIDTH)
        r2 = measures.sample_gaussian_bumps(b2, self.GRID, width=self.WIDTH)
        state = GridState(self.GRID[0], self.GRID[2], r1.masses, r2.masses)
        return KineticInputs(measures.ModelParams(chi1=0.45, chi2=0.3), exponential_kernel(), state, out)

    def run_pass(self, inputs: KineticInputs):
        rows = kinetic.limit_experiment(inputs.state, inputs.params, list(self.EPS), self.T, kernel=inputs.kernel)
        kinetic.write_limit_csv(inputs.out / "limit.csv", rows)
        return rows

    def check(self, inputs, rows, out) -> list[str]:
        return check_w2_decreasing(rows)

    def event_err(self, inputs, rows, out) -> float:
        return max(rows[-1][1], rows[-1][2])

    def describe(self, inputs, rows) -> dict:
        return {"n_cells": inputs.state.n_cells, "steps": None}


WORKLOADS = {
    "fv-contact": FvContact(),
    "particles-presets": ParticlePresets(),
    "kinetic-limit": KineticLimit(),
}
