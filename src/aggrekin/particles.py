"""Event-driven dynamics of point aggregates for the two-species model.

Clusters are Dirac masses carrying a species-1 mass m1 and a species-2
mass m2 (a *glued* cluster has both).  Between events the positions obey
the attraction ODEs driven by the hatted kernel; contacts are located by
bisection on a one-step second-order integrator.  Same-species contacts
merge; cross-species contacts glue or cross depending on the
synchronising condition

    |(chi1 - chi2) * gamma| <= (chi1 theta2 m2 + chi2 theta1 m1) / 2,

where gamma is the external weighted attraction exerted by all other
clusters on the colliding pair.  A glued cluster re-checks the condition
every step and splits (unglues) the moment it fails.

Cluster masses are quantized to a per-species power-of-two quantum at
construction so that merging masses is an exact float operation and the
per-species totals are invariant across every event to 0 ulp.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from .kernel import PointyKernel
from .lattice import mass_quantum, snap
from .measures import DiscreteMeasure, ModelParams, SpeciesPair

__all__ = [
    "Cluster",
    "ClusterSet",
    "Event",
    "SyncCheck",
    "velocities",
    "external_attraction",
    "sync_condition",
    "glued_selection",
    "advance",
    "run",
    "ParticleRunResult",
]


@dataclass
class Cluster:
    position: float
    m1: float
    m2: float
    id: int = -1

    def __post_init__(self):
        if not (self.m1 >= 0 and self.m2 >= 0):
            name = "m2" if self.m1 >= 0 else "m1"
            raise ValueError(f"cluster mass {name} must be nonnegative, got {getattr(self, name)!r}")
        if not self.m1 + self.m2 > 0:
            raise ValueError("a cluster must carry positive total mass")

    @property
    def glued(self) -> bool:
        return self.m1 > 0 and self.m2 > 0

    @property
    def mass(self) -> float:
        return self.m1 + self.m2


def _species_total(name: str, masses: list[float]) -> float:
    """Exact sum of finite masses; fsum raises when it overflows."""
    try:
        return math.fsum(masses)
    except OverflowError:
        raise ValueError(f"cluster {name} total overflows: {masses!r}") from None


def _check_positions(pos: list[float]) -> None:
    if not all(map(math.isfinite, pos)):
        raise ValueError(f"cluster position must be finite, got {pos!r}")
    if not all(a < b for a, b in zip(pos, pos[1:])):
        raise ValueError("cluster positions must be strictly increasing")


@dataclass
class ClusterSet:
    """Ordered aggregates at a common time.

    Positions must be finite and strictly increasing.  Masses are snapped
    to the per-species quantum so that merge arithmetic is exact.  A NaN or
    inf position or mass, or a species total that overflows, is rejected
    with the name of the field.
    """

    clusters: list[Cluster]
    time: float = 0.0
    next_id: int = field(default=-1)

    def __post_init__(self):
        if not self.clusters:
            raise ValueError("cluster set must not be empty")
        m1 = [c.m1 for c in self.clusters]
        m2 = [c.m2 for c in self.clusters]
        _check_positions([c.position for c in self.clusters])
        for name, vals in (("m1", m1), ("m2", m2)):
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"cluster {name} must be finite, got {vals!r}")
        q1 = mass_quantum(_species_total("m1", m1))
        q2 = mass_quantum(_species_total("m2", m2))
        for c in self.clusters:
            c.m1 = snap(c.m1, q1)
            c.m2 = snap(c.m2, q2)
        if self.next_id < 0:
            used = [c.id for c in self.clusters]
            start = max(used, default=-1) + 1
            for c in self.clusters:
                if c.id < 0:
                    c.id = start
                    start += 1
            self.next_id = start

    def _moved(self, positions: list[float], time: float) -> "ClusterSet":
        """These clusters at ``positions`` and ``time``: a step's successor,
        whose masses and ids are this set's, so only positions are checked."""
        _check_positions(positions)
        new = object.__new__(ClusterSet)
        new.clusters = [Cluster(x, c.m1, c.m2, c.id) for c, x in zip(self.clusters, positions)]
        new.time = time
        new.next_id = self.next_id
        return new

    def __len__(self) -> int:
        return len(self.clusters)

    def positions(self) -> np.ndarray:
        return np.array([c.position for c in self.clusters])

    def total_masses(self) -> tuple[float, float]:
        return (
            math.fsum(c.m1 for c in self.clusters),
            math.fsum(c.m2 for c in self.clusters),
        )

    def weighted_center(self, p: ModelParams) -> float:
        s1 = math.fsum(c.m1 * c.position for c in self.clusters)
        s2 = math.fsum(c.m2 * c.position for c in self.clusters)
        return (p.theta1 / p.chi1) * s1 + (p.theta2 / p.chi2) * s2

    def species_pair(self) -> SpeciesPair:
        pos1 = [(c.position, c.m1) for c in self.clusters if c.m1 > 0]
        pos2 = [(c.position, c.m2) for c in self.clusters if c.m2 > 0]
        return SpeciesPair(
            DiscreteMeasure([x for x, _ in pos1], [m for _, m in pos1]),
            DiscreteMeasure([x for x, _ in pos2], [m for _, m in pos2]),
        )

    def copy(self) -> "ClusterSet":
        return ClusterSet([replace(c) for c in self.clusters], self.time, self.next_id)


@dataclass(frozen=True)
class SyncCheck:
    holds: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class Event:
    time: float
    kind: str  # merge_same_species | glue | unglue | cross | final_collapse
    participants: tuple[int, ...]
    positions: tuple[float, ...]
    m1: float
    m2: float
    gamma: float | None = None
    sync_lhs: float | None = None
    sync_rhs: float | None = None
    all_positions: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "participants": list(self.participants),
            "positions": list(self.positions),
            "m1": self.m1,
            "m2": self.m2,
            "gamma": self.gamma,
            "sync_lhs": self.sync_lhs,
            "sync_rhs": self.sync_rhs,
            "all_positions": list(self.all_positions),
        }


def sync_condition(gamma_val: float, m1: float, m2: float, p: ModelParams) -> SyncCheck:
    """Decide whether a touching cross-species pair travels together.

    lhs = |(chi1 - chi2) gamma|, rhs = (chi1 theta2 m2 + chi2 theta1 m1)/2;
    the pair synchronises iff lhs <= rhs.
    """
    if not (m1 > 0 and m2 > 0):
        raise ValueError("sync condition needs positive masses of both species")
    lhs = abs((p.chi1 - p.chi2) * gamma_val)
    rhs = 0.5 * (p.chi1 * p.theta2 * m2 + p.chi2 * p.theta1 * m1)
    return SyncCheck(lhs <= rhs, lhs, rhs)


def glued_selection(gamma_val: float, m1: float, m2: float, p: ModelParams) -> float:
    """Velocity selection w replacing the kernel slope inside a glued pair.

    w is the unique value making both species' ODEs agree; it is
    admissible (|w| <= 1/2) exactly when the synchronising condition
    holds.  The pair's common velocity is chi1 (gamma + theta2 m2 w)
    = chi2 (gamma - theta1 m1 w).
    """
    if not (m1 > 0 and m2 > 0):
        raise ValueError("glued selection needs positive masses of both species")
    return (p.chi2 - p.chi1) * gamma_val / (p.chi1 * p.theta2 * m2 + p.chi2 * p.theta1 * m1)


def _step_constants(
    m1: np.ndarray, m2: np.ndarray, p: ModelParams
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """What the velocities need of the masses, fixed within one step: the
    weights theta1 m1 + theta2 m2, each cluster's chi and the glued indices."""
    wrho = p.theta1 * m1 + p.theta2 * m2
    chi = np.where(m1 > 0, p.chi1, p.chi2)
    glued = np.flatnonzero((m1 > 0) & (m2 > 0)).tolist()
    return wrho, chi, glued


def _raw_velocities(
    z: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
    wrho: np.ndarray,
    chi: np.ndarray,
    glued: list[int],
    kernel: PointyKernel,
    p: ModelParams,
) -> np.ndarray:
    """Cluster velocities for arbitrary (possibly unordered) positions."""
    pull = kernel.hat_deriv(z[:, None] - z[None, :]) @ wrho
    v = chi * pull
    for k in glued:
        w_sel = glued_selection(pull[k], m1[k], m2[k], p)
        # between unglue checks the selection may transiently leave the
        # admissible band; keep the slope physical
        w_sel = min(0.5, max(-0.5, w_sel))
        v[k] = p.chi1 * (pull[k] + p.theta2 * m2[k] * w_sel)
    return v


def velocities(cs: ClusterSet, kernel: PointyKernel, p: ModelParams) -> np.ndarray:
    """Velocities of all clusters (free clusters: chi_a times the external
    pull; glued clusters: the common selected velocity)."""
    m1 = np.array([c.m1 for c in cs.clusters])
    m2 = np.array([c.m2 for c in cs.clusters])
    return _raw_velocities(cs.positions(), m1, m2, *_step_constants(m1, m2, p), kernel, p)


def external_attraction(
    cs: ClusterSet,
    exclude,
    kernel: PointyKernel,
    p: ModelParams,
    at: float | None = None,
) -> float:
    """Weighted attraction exerted by every cluster outside ``exclude``.

    ``exclude`` is a cluster index or an iterable of indices (a colliding
    pair excludes both participants).  Evaluated at ``at`` or, by default,
    at the position of the first excluded cluster.
    """
    if isinstance(exclude, (int, np.integer)):
        exclude = (int(exclude),)
    excl = set(int(i) for i in exclude)
    if at is None:
        at = cs.clusters[min(excl)].position
    others = [c for i, c in enumerate(cs.clusters) if i not in excl]
    if not others:
        return 0.0
    wrho = np.array([p.theta1 * c.m1 + p.theta2 * c.m2 for c in others])
    terms = wrho * kernel.hat_deriv(at - np.array([c.position for c in others]))
    # left to right from 0.0, as a scalar loop would add them
    return sum(terms.tolist(), 0.0)


def _safe_split_positions(
    pos: float, direction: float, gap_tol: float, left_bound: float, right_bound: float
) -> tuple[float, float]:
    """Positions for a separating pair: species 1 offset in ``direction``.

    The offset is capped so freshly split clusters never jump over their
    neighbors.
    """
    room = min(pos - left_bound, right_bound - pos)
    off = 0.5 * min(gap_tol, 0.5 * room if math.isfinite(room) else gap_tol)
    if off <= 0.0:
        off = 0.5 * gap_tol
    s1 = pos + direction * off
    s2 = pos - direction * off
    return s1, s2


def _split(
    cs: ClusterSet, first: int, last: int, pos: float, m1: float, m2: float,
    gam: float, p: ModelParams, gap_tol: float, next_id: int,
) -> tuple[Cluster, Cluster]:
    """The species-1 and species-2 clusters that replace clusters ``first``
    to ``last`` of ``cs`` (masses m1 and m2 at ``pos``) when they separate:
    species 1 moves the way the external attraction ``gam`` drives it
    relative to species 2, and neither part jumps over a neighbour."""
    direction = 1.0 if (p.chi1 - p.chi2) * gam > 0 else -1.0
    left = cs.clusters[first - 1].position if first > 0 else -math.inf
    right = cs.clusters[last + 1].position if last + 1 < len(cs) else math.inf
    s1_pos, s2_pos = _safe_split_positions(pos, direction, gap_tol, left, right)
    return Cluster(s1_pos, m1, 0.0, next_id), Cluster(s2_pos, 0.0, m2, next_id + 1)


def _handle_group(
    cs: ClusterSet,
    group: list[int],
    kernel: PointyKernel,
    p: ModelParams,
    gap_tol: float,
    new_clusters: list[Cluster],
    events: list[Event],
) -> int:
    """Resolve a contact among consecutive clusters at the time of ``cs``;
    returns next free id."""
    members = [cs.clusters[i] for i in group]
    ids = tuple(c.id for c in members)
    pos_list = tuple(c.position for c in members)
    m1 = math.fsum(c.m1 for c in members)
    m2 = math.fsum(c.m2 for c in members)
    total = m1 + m2
    pos = math.fsum(c.mass * c.position for c in members) / total
    all_pos = tuple(c.position for c in cs.clusters)
    next_id = cs.next_id
    t_event = cs.time

    n_s1 = sum(1 for c in members if c.m1 > 0)
    n_s2 = sum(1 for c in members if c.m2 > 0)
    if n_s1 > 1 or n_s2 > 1:
        events.append(
            Event(t_event, "merge_same_species", ids, pos_list, m1, m2, all_positions=all_pos)
        )
    if m1 > 0 and m2 > 0:
        gam = external_attraction(cs, group, kernel, p, at=pos)
        chk = sync_condition(gam, m1, m2, p)
        if chk.holds:
            new_clusters.append(Cluster(pos, m1, m2, next_id))
            next_id += 1
            events.append(
                Event(t_event, "glue", ids, pos_list, m1, m2, gam, chk.lhs, chk.rhs, all_pos)
            )
        else:
            new_clusters.extend(_split(cs, group[0], group[-1], pos, m1, m2, gam, p, gap_tol, next_id))
            next_id += 2
            events.append(
                Event(t_event, "cross", ids, pos_list, m1, m2, gam, chk.lhs, chk.rhs, all_pos)
            )
    else:
        # a one-species group has at least two members, so its merge is recorded above
        new_clusters.append(Cluster(pos, m1, m2, next_id))
        next_id += 1
    return next_id


def _unglue_pass(
    cs: ClusterSet, kernel: PointyKernel, p: ModelParams, gap_tol: float
) -> tuple[ClusterSet, list[Event]]:
    """Split every glued cluster that fails the synchronising condition;
    ``cs`` comes back untouched when none does."""
    events: list[Event] = []
    splits: dict[int, tuple[Cluster, Cluster]] = {}
    next_id = cs.next_id
    for i, c in enumerate(cs.clusters):
        if not c.glued:
            continue
        gam = external_attraction(cs, i, kernel, p)
        chk = sync_condition(gam, c.m1, c.m2, p)
        if chk.holds:
            continue
        splits[i] = _split(cs, i, i, c.position, c.m1, c.m2, gam, p, gap_tol, next_id)
        next_id += 2
        events.append(
            Event(
                cs.time,
                "unglue",
                (c.id,),
                (c.position,),
                c.m1,
                c.m2,
                gam,
                chk.lhs,
                chk.rhs,
                tuple(cl.position for cl in cs.clusters),
            )
        )
    if not events:
        return cs, []
    out: list[Cluster] = []
    for i, c in enumerate(cs.clusters):
        out.extend(splits.get(i, (replace(c),)))
    out.sort(key=lambda c: c.position)
    return ClusterSet(out, cs.time, next_id), events


def _contact_groups(gaps_touching: np.ndarray) -> list[list[int]]:
    """Group cluster indices joined by touching adjacent gaps."""
    groups: list[list[int]] = []
    current: list[int] = []
    for i, touching in enumerate(gaps_touching):
        if touching:
            if not current:
                current = [i, i + 1]
            else:
                current.append(i + 1)
        elif current:
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


def _resolve_contacts(
    cs: ClusterSet, touching: np.ndarray, kernel: PointyKernel, p: ModelParams, gap_tol: float
) -> tuple[ClusterSet, list[Event]]:
    """Resolve every group of clusters joined by a ``touching`` gap at the
    time of ``cs``, a set owned by the caller (its ``next_id`` advances)."""
    events: list[Event] = []
    groups = _contact_groups(touching)
    in_group = set(i for g in groups for i in g)
    new_clusters = [replace(c) for i, c in enumerate(cs.clusters) if i not in in_group]
    for g in groups:
        cs.next_id = _handle_group(cs, g, kernel, p, gap_tol, new_clusters, events)
    new_clusters.sort(key=lambda c: c.position)
    return ClusterSet(new_clusters, cs.time, cs.next_id), events


def advance(
    cs: ClusterSet,
    kernel: PointyKernel,
    p: ModelParams,
    dt_max: float,
    gap_tol: float = 1e-9,
) -> tuple[ClusterSet, list[Event]]:
    """Advance by at most ``dt_max``, stopping at the first contact.

    The step uses a two-stage second-order integrator, capped so no
    closing gap shrinks by more than a quarter per step.  Contacts are
    bracketed in time by bisection to 1e-6 and then resolved: same-species
    groups merge, mixed groups glue or cross according to the
    synchronising condition (with the external attraction excluding the
    whole group), and every glued cluster is re-checked for ungluing at
    the start of the step.
    """
    if not dt_max > 0:
        raise ValueError("dt_max must be positive")
    if not gap_tol > 0:
        raise ValueError("gap_tol must be positive")

    cs, events = _unglue_pass(cs, kernel, p, gap_tol)
    if events:
        return cs, events
    n = len(cs)
    if n == 1:
        out = cs.copy()
        out.time = cs.time + dt_max
        return out, []

    z0 = cs.positions()
    m1 = np.array([c.m1 for c in cs.clusters])
    m2 = np.array([c.m2 for c in cs.clusters])
    if not np.isfinite(z0).all():
        raise FloatingPointError("non-finite cluster positions")
    wrho, chi, glued = _step_constants(m1, m2, p)

    def vel(z: np.ndarray) -> np.ndarray:
        return _raw_velocities(z, m1, m2, wrho, chi, glued, kernel, p)

    # the first stage is the same for every trial step, so it is made once
    v0 = vel(z0)

    def trial(tau: float) -> np.ndarray:
        v2 = vel(z0 + tau * v0)
        return z0 + 0.5 * tau * (v0 + v2)

    gaps = z0[1:] - z0[:-1]
    closing = v0[1:] - v0[:-1]

    # contacts already pending from a previous event resolution
    touching = (gaps <= 1.5 * gap_tol) & (closing < 0)
    if touching.any():
        return _resolve_contacts(cs.copy(), touching, kernel, p, gap_tol)

    dt = dt_max
    shrinking = closing < 0
    if shrinking.any():
        dt = min(dt, float((0.25 * gaps[shrinking] / (-closing[shrinking])).min()))

    def has_contact(z: np.ndarray) -> np.ndarray:
        return z[1:] - z[:-1] <= gap_tol

    z_end = trial(dt)
    if not has_contact(z_end).any():
        return cs._moved(z_end.tolist(), cs.time + dt), events

    # bracket the first contact time
    lo, hi = 0.0, dt
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if has_contact(trial(mid)).any():
            hi = mid
        else:
            lo = mid
    touching = has_contact(trial(hi))
    z_commit = trial(lo) if lo > 0.0 else z0
    return _resolve_contacts(cs._moved(z_commit.tolist(), cs.time + hi), touching, kernel, p, gap_tol)


@dataclass
class ParticleRunResult:
    events: list[Event]
    samples: list[tuple[float, list[Cluster]]]
    final: ClusterSet
    dt_max: float
    gap_tol: float
    n_advances: int
    elapsed: float
    snapshots: list[tuple[float, ClusterSet]] = field(default_factory=list)


def run(
    initial: ClusterSet,
    kernel: PointyKernel,
    p: ModelParams,
    T: float,
    dt_max: float = 1e-3,
    gap_tol: float = 1e-9,
    snapshot_times: tuple[float, ...] = (),
) -> ParticleRunResult:
    """Advance repeatedly until time T or a single remaining aggregate.

    Emits a ``final_collapse`` event when the population first reduces to
    one cluster.  Trajectories are sampled every T/200; ``snapshot_times``
    are hit exactly (the step is shortened to land on them) and reported in
    ``snapshots``.  ``n_advances`` counts the
    calls to :func:`advance` and ``elapsed`` is the wall time of the run.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    sample_dt = T / 200.0
    pending = sorted(t for t in snapshot_times if t > initial.time)
    if any(t > T for t in pending):
        raise ValueError("snapshot times must lie in [0, T]")
    t_start = _time.perf_counter()
    cs = initial.copy()
    events: list[Event] = []
    samples: list[tuple[float, list[Cluster]]] = [(cs.time, [replace(c) for c in cs.clusters])]
    snapshots: list[tuple[float, ClusterSet]] = []
    if any(abs(t - cs.time) <= 1e-15 for t in snapshot_times):
        snapshots.append((cs.time, cs.copy()))
    next_sample = cs.time + sample_dt
    n_advances = 0
    max_iterations = int(50 * T / dt_max) + 10_000
    while cs.time < T - 1e-12 and len(cs) > 1:
        n_advances += 1
        if n_advances > max_iterations:
            raise RuntimeError("particle run exceeded its iteration budget (stalled?)")
        horizon = min(dt_max, T - cs.time)
        if pending:
            horizon = min(horizon, pending[0] - cs.time)
        cs, evs = advance(cs, kernel, p, max(horizon, 1e-15), gap_tol)
        events.extend(evs)
        while pending and cs.time >= pending[0] - 1e-12:
            snapshots.append((pending.pop(0), cs.copy()))
        while next_sample <= cs.time + 1e-15 and next_sample <= T:
            samples.append((cs.time, [replace(c) for c in cs.clusters]))
            next_sample += sample_dt
        if len(cs) == 1 and evs:
            c = cs.clusters[0]
            events.append(
                Event(
                    cs.time,
                    "final_collapse",
                    (c.id,),
                    (c.position,),
                    c.m1,
                    c.m2,
                    all_positions=(c.position,),
                )
            )
            break
    while pending:
        snapshots.append((pending.pop(0), cs.copy()))
    samples.append((cs.time, [replace(c) for c in cs.clusters]))
    elapsed = _time.perf_counter() - t_start
    return ParticleRunResult(events, samples, cs, dt_max, gap_tol, n_advances, elapsed, snapshots)
