"""Event-driven dynamics of point aggregates for the two-species model.

Clusters are Dirac masses carrying a species-1 mass m1 and a species-2
mass m2 (a *glued* cluster has both).  Between events the positions obey
the attraction ODEs driven by the hatted kernel.  Each call to
:func:`advance` makes one Dormand-Prince 5(4) step under error control
(relative tolerance ``RTOL``, absolute ``ATOL``; Hairer, Norsett & Wanner,
*Solving ODEs I*, II.5) and carries Shampine's quartic interpolant of the
step as its dense output (II.6), on Python floats.  Within a step the pair
ordering is frozen, so a trial stage that lands past a contact sees the
kernel slope continued smoothly rather than flipped (an O(N) one-sided
recursion plus K_n's pairs within 1/n).  Events are roots located on the
interpolant to ``ROOT_TOL`` in time: a contact is an adjacent gap
reaching ``gap_tol``, an unglue is a glued cluster's LHS - RHS of the
synchronising condition reaching 0.  Same-species contacts merge;
cross-species contacts glue or cross depending on the synchronising
condition

    |(chi1 - chi2) * gamma| <= (chi1 theta2 m2 + chi2 theta1 m1) / 2,

where gamma is the external weighted attraction exerted by all other
clusters on the colliding pair.  A step stops just past a glued cluster's
unglue root, and the next step splits it.  Every check of the condition
inside :func:`advance` (at a step's start, on its interpolant and at a
contact) reads gamma off the recursion that gives the velocities, bit for
bit the pull the glued cluster moves with, and one resolver turns contacts
and unglues into the clusters and events that follow.

Cluster masses are quantized to a per-species power-of-two quantum at
construction so that merging masses is an exact float operation and the
per-species totals are invariant across every event to 0 ulp.
"""

from __future__ import annotations

import math
import time as _time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .kernel import PointyKernel
from .lattice import mass_quantum, snap
from .measures import ModelParams

__all__ = [
    "Cluster",
    "ClusterSet",
    "Event",
    "DenseStep",
    "SyncCheck",
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
    # the step of advance that made this set, for its dense output
    dense: DenseStep | None = field(default=None, compare=False, repr=False)

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
        new.dense = None
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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


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


def _step_constants(m1: list[float], m2: list[float], p: ModelParams) -> tuple[list, list, list[int]]:
    """What the velocities need of the masses, fixed within one step: the
    weights theta1 m1 + theta2 m2, each cluster's chi and the glued indices."""
    wrho = [p.theta1 * a + p.theta2 * b for a, b in zip(m1, m2)]
    chi = [p.chi1 if a > 0 else p.chi2 for a in m1]
    glued = [i for i, (a, b) in enumerate(zip(m1, m2)) if a > 0 and b > 0]
    return wrho, chi, glued


def _pulls(z: list[float], wrho: list[float], kernel: PointyKernel) -> list[float]:
    """sum_j wrho_j K'(z_i - z_j) over j != i, each pair on the branch of
    its index order, the position order at the step's start, continued
    across 0.  For the exponential kernel that is -s e^{-s (z_i - z_j)} / 2
    with s = sign(i - j), so the pull is (R_i - L_i) / 2 with L_i =
    e^{z_{i-1} - z_i} (L_{i-1} + wrho_{i-1}) and R_i mirrored: N - 1 calls
    of ``math.exp``, which raises OverflowError on a stage far past a flip.
    K_n, smooth through 0, swaps that slope for its own K_n'(z_i - z_j) on
    each pair i < j with z_j - z_i <= 1/n, flipped ones included, found by
    walking right from each i while min(z[j:]) - z_i <= 1/n."""
    # e[i] = e^{z_i - z_{i+1}} serves L_{i+1} and R_i
    e = [math.exp(a - b) for a, b in zip(z, z[1:])]
    left = [0.0]
    acc = 0.0
    for f, w in zip(e, wrho):
        acc = f * (acc + w)
        left.append(acc)
    # right to left: R_i from R_{i+1}, and the pull with it
    pull = [-0.5 * acc]
    acc = 0.0
    for f, w, lft in zip(reversed(e), reversed(wrho), reversed(left[:-1])):
        acc = f * (acc + w)
        pull.append(0.5 * (acc - lft))
    pull.reverse()
    if kernel.inv_n:
        reach, slope, low = kernel.inv_n, kernel.band_slope, list(accumulate(reversed(z), min))[::-1]
        for i, zi in enumerate(z):
            j = i + 1
            while j < len(z) and low[j] - zi <= reach:
                if (x := zi - z[j]) >= -reach:
                    # K_n' is linear within reach, and exponential on a pair flipped past it
                    d = (slope * x if x <= reach else -0.5 * math.exp(-x)) - 0.5 * math.exp(x)
                    pull[i] += wrho[j] * d
                    pull[j] -= wrho[i] * d
                j += 1
    return pull


def _velocities(
    z: list[float], wrho: list[float], chi: list[float], glued: list[int],
    m1: list[float], m2: list[float], kernel: PointyKernel, p: ModelParams,
) -> list[float]:
    """Cluster velocities at positions ``z`` in the step's frozen order
    (:func:`_pulls`): a free cluster moves at chi_a times its pull, a glued
    one at the common selected velocity."""
    pull = _pulls(z, wrho, kernel)
    v = [c * f for c, f in zip(chi, pull)]
    for k in glued:
        w_sel = glued_selection(pull[k], m1[k], m2[k], p)
        v[k] = p.chi1 * (pull[k] + p.theta2 * m2[k] * w_sel)
    return v


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
    return pos + direction * off, pos - direction * off


def _gamma(
    z: list[float], wrho: list[float], first: int, last: int, at: float, kernel: PointyKernel
) -> float:
    """gamma, the attraction at ``at`` of every cluster but ``first`` to
    ``last`` (positions ``z``, weights theta1 m1 + theta2 m2 ``wrho``): the
    pull :func:`_pulls` gives a weightless cluster put at ``at`` among the
    others, so it is bit for bit the pull a glued cluster there moves with.
    ``+ 0.0`` turns the -0.0 of a cluster with no others into 0.0."""
    zs, ws = z[:first] + z[last + 1 :], wrho[:first] + wrho[last + 1 :]
    k = bisect_left(zs, at)
    return _pulls(zs[:k] + [at] + zs[k:], ws[:k] + [0.0] + ws[k:], kernel)[k] + 0.0


def _contact_groups(gaps_touching: list[bool]) -> list[list[int]]:
    """Group cluster indices joined by touching adjacent gaps."""
    groups: list[list[int]] = []
    for i, touching in enumerate(gaps_touching):
        if touching and groups and groups[-1][-1] == i:
            groups[-1].append(i + 1)
        elif touching:
            groups.append([i, i + 1])
    return groups


def _resolve(
    cs: ClusterSet, groups: list[list[int]], wrho: list[float],
    kernel: PointyKernel, p: ModelParams, gap_tol: float,
) -> tuple[ClusterSet, list[Event]]:
    """The clusters that replace each group of consecutive clusters of
    ``cs`` (weights ``wrho``) at its time, and the events that make them.

    A group of one is a glued cluster that fails the synchronising
    condition: it splits (unglues) where it is.  A larger group is a
    contact at its centre of mass: same-species members merge, and a group
    holding both species glues or crosses by the synchronising condition.
    A separating pair puts species 1 the way the external attraction drives
    it relative to species 2, and neither part jumps over a neighbour.
    """
    z = [c.position for c in cs.clusters]
    all_pos = tuple(z)
    in_group = set(i for g in groups for i in g)
    out = [Cluster(c.position, c.m1, c.m2, c.id) for i, c in enumerate(cs.clusters) if i not in in_group]
    events: list[Event] = []
    next_id = cs.next_id
    for g in groups:
        first, last = g[0], g[-1]
        members = cs.clusters[first : last + 1]
        ids = tuple(c.id for c in members)
        pos_list = tuple(c.position for c in members)
        if len(members) == 1:
            pos, m1, m2 = members[0].position, members[0].m1, members[0].m2
        else:
            m1 = math.fsum(c.m1 for c in members)
            m2 = math.fsum(c.m2 for c in members)
            pos = math.fsum(c.mass * c.position for c in members) / (m1 + m2)
            if sum(c.m1 > 0 for c in members) > 1 or sum(c.m2 > 0 for c in members) > 1:
                events.append(
                    Event(cs.time, "merge_same_species", ids, pos_list, m1, m2, all_positions=all_pos)
                )
        if not (m1 > 0 and m2 > 0):
            # a one-species group has at least two members, so its merge is recorded above
            out.append(Cluster(pos, m1, m2, next_id))
            next_id += 1
            continue
        gam = _gamma(z, wrho, first, last, pos, kernel)
        chk = sync_condition(gam, m1, m2, p)
        kind = "unglue" if len(members) == 1 else "glue" if chk.holds else "cross"
        if kind == "glue":
            out.append(Cluster(pos, m1, m2, next_id))
            next_id += 1
        else:
            direction = 1.0 if (p.chi1 - p.chi2) * gam > 0 else -1.0
            left = all_pos[first - 1] if first > 0 else -math.inf
            right = all_pos[last + 1] if last + 1 < len(all_pos) else math.inf
            s1, s2 = _safe_split_positions(pos, direction, gap_tol, left, right)
            out += [Cluster(s1, m1, 0.0, next_id), Cluster(s2, 0.0, m2, next_id + 1)]
            next_id += 2
        events.append(Event(cs.time, kind, ids, pos_list, m1, m2, gam, chk.lhs, chk.rhs, all_pos))
    out.sort(key=lambda c: c.position)
    return ClusterSet(out, cs.time, next_id), events


# Dormand-Prince 5(4) for the autonomous ODE (no nodes needed): stage
# weights, the fifth-order weights (the seventh stage is the velocity at the
# new point, reused by the next step) and the fifth- minus fourth-order
# weights that estimate the error (neither takes the second stage).
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# Shampine's interpolant: over a step of length h from z0 with stages k,
# z(t0 + s h) = z0 + h (k1 s + sum_j (k1, k3, ..., k7) . _P[j] s^(j+2))
_P = (
    (-8048581381 / 2820520608, 131558114200 / 32700410799, -1754552775 / 470086768,
     127303824393 / 49829197408, -282668133 / 205662961, 40617522 / 29380423),
    (8663915743 / 2820520608, -68118460800 / 10900136933, 14199869525 / 1410260304,
     -318862633887 / 49829197408, 2019193451 / 616988883, -110615467 / 29380423),
    (-12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
     701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423),
)

RTOL = 1e-10
ATOL = 1e-12
# events are located on the interpolant to this many time units
ROOT_TOL = 1e-12
# step-size control: safety factor and the bounds on the change of step
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


@dataclass(frozen=True)
class DenseStep:
    """One accepted step of :func:`advance`, from ``t0`` to ``t1``.

    ``clusters`` are the clusters it moved, ``z0`` their positions at
    ``t0`` and ``q`` the interpolant's coefficients over the trial length
    ``h``, one list per power: z(t0 + s h) = z0 + q (s, s^2, s^3, s^4).
    ``t1`` is ``t0 + h`` or the event the step stopped at.  ``v_end`` is
    the velocity at ``t1`` when the step ended there, ``h_next`` the step
    the error control proposes next, ``n_rejected`` the trial steps it
    rejected and ``root_iterations`` the iterations that located its event.
    """

    clusters: list[Cluster]
    t0: float
    t1: float
    h: float
    z0: list[float]
    q: list[list[float]]
    v_end: list[float] | None
    h_next: float
    n_rejected: int
    root_iterations: int


def _interpolate(z0: list[float], q: list[list[float]], s: float) -> list[float]:
    s2 = s * s
    s3, s4 = s2 * s, s2 * s2
    return [x + (a * s + b * s2 + c * s3 + d * s4) for x, a, b, c, d in zip(z0, *q)]


def _dp_step(vel, z0: list[float], v0: list[float], h: float):
    """One Dormand-Prince trial step of length ``h``, written out stage by
    stage on Python floats: the fifth-order point, the velocity there, the
    interpolant's coefficient lists (one per power of s) and the scaled RMS
    error estimate.  ``vel`` may raise OverflowError; any other overflow
    leaves the estimate inf or NaN."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _A
    k1 = v0
    k2 = vel([x + h * (a21 * u1) for x, u1 in zip(z0, k1)])
    k3 = vel([x + h * (a31 * u1 + a32 * u2) for x, u1, u2 in zip(z0, k1, k2)])
    k4 = vel([x + h * (a41 * u1 + a42 * u2 + a43 * u3) for x, u1, u2, u3 in zip(z0, k1, k2, k3)])
    k5 = vel([x + h * (a51 * u1 + a52 * u2 + a53 * u3 + a54 * u4)
              for x, u1, u2, u3, u4 in zip(z0, k1, k2, k3, k4)])
    k6 = vel([x + h * (a61 * u1 + a62 * u2 + a63 * u3 + a64 * u4 + a65 * u5)
              for x, u1, u2, u3, u4, u5 in zip(z0, k1, k2, k3, k4, k5)])
    b1, b3, b4, b5, b6 = _B
    z1 = [x + h * (b1 * u1 + b3 * u3 + b4 * u4 + b5 * u5 + b6 * u6)
          for x, u1, u3, u4, u5, u6 in zip(z0, k1, k3, k4, k5, k6)]
    k7 = vel(z1)
    ks = list(zip(k1, k3, k4, k5, k6, k7))
    e1, e3, e4, e5, e6, e7 = _E
    sq = 0.0
    for x0, x1, (u1, u3, u4, u5, u6, u7) in zip(z0, z1, ks):
        scale = ATOL + RTOL * max(abs(x0), abs(x1))
        e = h * (e1 * u1 + e3 * u3 + e4 * u4 + e5 * u5 + e6 * u6 + e7 * u7) / scale
        sq += e * e
    q = [[h * u for u in k1]] + [
        [h * (c1 * u1 + c3 * u3 + c4 * u4 + c5 * u5 + c6 * u6 + c7 * u7) for u1, u3, u4, u5, u6, u7 in ks]
        for c1, c3, c4, c5, c6, c7 in _P
    ]
    return z1, k7, q, math.sqrt(sq / len(z0))


def _first_root(f, hi: float, tol: float, f_max: float = math.inf) -> tuple[float, int]:
    """The first s in (0, ``hi``] where ``f`` turns positive, given f(0) <=
    0 < f(hi): Illinois false position on the bracket, until it is ``tol``
    wide and f is below ``f_max`` at its positive end.  Returns that end,
    or the other one if no float between them meets ``f_max``, and the
    iterations made."""
    lo, f_lo = 0.0, f(0.0)
    f_hi = f_end = f(hi)  # f_hi is scaled by the Illinois rule, f_end is f(hi)
    kept = 0  # which end the last iterate replaced: -1 low, +1 high
    n = 0
    while hi - lo > tol or not f_end < f_max:
        mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return lo, n
        n += 1
        f_mid = f(mid)
        if f_mid > 0.0:
            hi, f_hi, f_end = mid, f_mid, f_mid
            if kept == 1:
                f_lo *= 0.5
            kept = 1
        else:
            lo, f_lo = mid, f_mid
            if kept == -1:
                f_hi *= 0.5
            kept = -1
    return hi, n


def advance(
    cs: ClusterSet,
    kernel: PointyKernel,
    p: ModelParams,
    dt_max: float,
    gap_tol: float = 1e-9,
) -> tuple[ClusterSet, list[Event]]:
    """One accepted step of at most ``dt_max``, stopping at the first event.

    A glued cluster that fails the synchronising condition splits
    (unglues) at once.  Its condition is checked here only when ``cs`` did
    not come from an uninterrupted step, which has checked it at these
    positions.  Contacts already pending (gap within 1.5 ``gap_tol`` and
    closing) are resolved at once too; either returns without a step.
    Otherwise a Dormand-Prince 5(4) step is tried, from the step length the
    error control proposed for ``cs``, and shortened until its error
    estimate is within ``RTOL``/``ATOL``.  The stage velocities keep the
    pair ordering of the step's start (:func:`_pulls`).
    If an adjacent gap closes below ``gap_tol`` within the step, or a glued
    cluster's condition fails, the first such root on the step's
    interpolant is located to ``ROOT_TOL`` and the step ends there (for a
    contact, before the pair's gap reaches 0).  The pairs that closed are
    resolved: same-species groups merge, mixed groups glue or cross
    according to the synchronising condition (with the external attraction
    excluding the whole group).  An unglue is left to the next call.  The
    successor carries the step in ``dense``.
    """
    if not dt_max > 0:
        raise ValueError("dt_max must be positive")
    if not gap_tol > 0:
        raise ValueError("gap_tol must be positive")
    z0 = [c.position for c in cs.clusters]
    m1 = [c.m1 for c in cs.clusters]
    m2 = [c.m2 for c in cs.clusters]
    wrho, chi, glued = _step_constants(m1, m2, p)

    def unglue_excess(z: list[float]) -> dict[int, float]:
        # LHS - RHS of each glued cluster's condition, on the pull it moves with
        pull = _pulls(z, wrho, kernel) if glued else []
        return {i: (chk := sync_condition(pull[i], m1[i], m2[i], p)).lhs - chk.rhs for i in glued}

    last = cs.dense
    if last is None or last.v_end is None:
        failing = [[i] for i, e in unglue_excess(z0).items() if e > 0.0]
        if failing:
            return _resolve(cs, failing, wrho, kernel, p, gap_tol)

    def vel(z: list[float]) -> list[float]:
        return _velocities(z, wrho, chi, glued, m1, m2, kernel, p)

    # the velocity at the end of an uninterrupted step is this set's
    v0 = last.v_end if last is not None and last.v_end is not None else vel(z0)

    gaps = [b - a for a, b in zip(z0, z0[1:])]
    touching = [g <= 1.5 * gap_tol and vb - va < 0 for g, va, vb in zip(gaps, v0, v0[1:])]
    if any(touching):
        return _resolve(cs, _contact_groups(touching), wrho, kernel, p, gap_tol)

    seed = last.h_next if last is not None else dt_max
    h = min(seed, dt_max)
    n_rejected = 0
    while True:
        try:
            z1, v1, q, err = _dp_step(vel, z0, v0, h)
        except OverflowError:
            # a trial step too long for the frozen ordering can overflow the
            # continued slope; it is rejected like any other whose error
            # estimate is not finite
            err = math.inf
        if err <= 1.0:
            break
        n_rejected += 1
        h *= max(_MIN_FACTOR, _SAFETY * err**-0.2) if math.isfinite(err) else _MIN_FACTOR
        if cs.time + h == cs.time:
            raise RuntimeError(f"particle step size underflow at t = {cs.time!r}")
    factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**-0.2)
    h_next = h * (min(factor, 1.0) if n_rejected else factor)
    if h < seed and not n_rejected:
        # cut short by dt_max, not by the error: the proposal stands
        h_next = max(h_next, seed)

    # the positions of clusters [lo, hi) at step fraction s; at s = 1 the
    # step's end point z1, not the interpolant
    def at(s: float, lo: int = 0, hi: int | None = None) -> list[float]:
        if s == 1.0:
            return z1[lo:hi]
        return _interpolate(z0[lo:hi], [c[lo:hi] for c in q], s)

    # the event functions, positive past their root: first the adjacent
    # gaps that close below gap_tol, then, up to the first contact (past it
    # a glued cluster's attraction jumps), the glued clusters whose
    # synchronising condition fails
    def gap_excess(s: float) -> float:
        return max(gap_tol - (b - a) for a, b in (at(s, k, k + 2) for k in closing))

    def sync_excess(s: float) -> float:
        excess = unglue_excess(at(s))
        return max(excess[i] for i in ungluing)

    s_end, n_iter = 1.0, 0
    closing = [k for k, g in enumerate(gaps) if z1[k + 1] - z1[k] < gap_tol and g >= gap_tol]
    if closing:
        # past the root, but before the pair's gap closes to 0
        s_end, n_iter = _first_root(gap_excess, 1.0, ROOT_TOL / h, gap_tol)
    z_end = at(s_end)
    ungluing = [i for i, e in unglue_excess(z_end).items() if e > 0.0]
    if ungluing:
        s_end, n = _first_root(sync_excess, s_end, ROOT_TOL / h)
        n_iter += n
        z_end = at(s_end)
    t_end = cs.time + s_end * h
    # only a closing pair whose root was located is a contact: a pair that
    # starts inside gap_tol is separating, wherever dt_max ends the step
    touching = [k in closing and z_end[k + 1] - z_end[k] < gap_tol for k in range(len(gaps))]
    # v1 is the velocity of these clusters at z1, not of what a contact
    # or the next call's unglue makes of them; a step that ran to its end
    # has checked every glued cluster there
    v_end = v1 if s_end == 1.0 and not any(touching) and not ungluing else None
    step = DenseStep(cs.clusters, cs.time, t_end, h, z0, q, v_end, h_next, n_rejected, n_iter)
    out, events = cs._moved(z_end, t_end), []
    if any(touching):
        out, events = _resolve(out, _contact_groups(touching), wrho, kernel, p, gap_tol)
    out.dense = step
    return out, events


@dataclass
class ParticleRunResult:
    """What :func:`run` did.  ``n_advances`` counts the calls to
    :func:`advance`, ``n_rejected`` the trial steps its error control
    rejected, and ``root_iterations`` holds, per entry of ``events``, the
    iterations that located it on a step's interpolant (0 for an event
    resolved at a step's start or added by the run).  Each of ``samples``
    is (t, clusters, their positions at t)."""

    events: list[Event]
    samples: list[tuple[float, list[Cluster], list[float]]]
    final: ClusterSet
    n_advances: int
    elapsed: float
    snapshots: list[tuple[float, ClusterSet]] = field(default_factory=list)
    n_rejected: int = 0
    root_iterations: list[int] = field(default_factory=list)


def _sample(cs: ClusterSet, t: float) -> tuple[float, list[Cluster], list[float]]:
    """``t``, the clusters at time ``t`` within the step that made ``cs``
    (that step's list, not a copy) and their positions then."""
    step = cs.dense
    if step is not None and t < step.t1:
        return t, step.clusters, _interpolate(step.z0, step.q, (t - step.t0) / step.h)
    return t, cs.clusters, [c.position for c in cs.clusters]


def run(
    initial: ClusterSet,
    kernel: PointyKernel,
    p: ModelParams,
    T: float,
    dt_max: float = 0.05,
    gap_tol: float = 1e-9,
    snapshot_times: tuple[float, ...] = (),
) -> ParticleRunResult:
    """Advance repeatedly until time T or a single remaining aggregate.

    Emits a ``final_collapse`` event when the population first reduces to
    one cluster.  Trajectories are sampled at t0 + k T/200 from each
    step's interpolant; ``snapshot_times`` are hit exactly (the step is
    shortened to land on them) and reported in ``snapshots``, one entry
    per requested time, each of which must lie in [``initial.time``, T].
    T must be positive and not precede ``initial.time``; ``dt_max`` bounds
    every step.  ``elapsed`` is the wall time of the run.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    if not T >= initial.time:
        raise ValueError(f"T = {T!r} precedes the initial time {initial.time!r}")
    if not all(initial.time <= t <= T for t in snapshot_times):
        raise ValueError("snapshot times must lie in [0, T]")
    budget = 50 * T / dt_max if dt_max > 0 else math.nan
    if not math.isfinite(budget):
        raise ValueError(
            f"dt_max must be positive with a finite iteration budget 50 T / dt_max, got {dt_max!r}"
        )
    sample_dt = T / 200.0
    pending = sorted(snapshot_times)
    t_start = _time.perf_counter()
    cs = initial.copy()
    events: list[Event] = []
    samples = [_sample(cs, cs.time)]
    snapshots: list[tuple[float, ClusterSet]] = []
    while pending and pending[0] == cs.time:
        snapshots.append((pending.pop(0), cs.copy()))
    t0, k_sample = cs.time, 1
    n_advances = n_rejected = 0
    root_iterations: list[int] = []
    located = 0  # iterations of a located root whose event is not reported yet
    max_iterations = int(budget) + 10_000
    while cs.time < T - 1e-12 and len(cs) > 1:
        n_advances += 1
        if n_advances > max_iterations:
            raise RuntimeError("particle run exceeded its iteration budget (stalled?)")
        horizon = min(dt_max, T - cs.time)
        if pending:
            horizon = min(horizon, pending[0] - cs.time)
        cs, evs = advance(cs, kernel, p, max(horizon, 1e-15), gap_tol)
        events.extend(evs)
        if cs.dense is not None:
            n_rejected += cs.dense.n_rejected
            located += cs.dense.root_iterations
        if evs:
            root_iterations += [located] * len(evs)
            located = 0
        while pending and cs.time >= pending[0] - 1e-12:
            snapshots.append((pending.pop(0), cs.copy()))
        while (t := t0 + k_sample * sample_dt) <= cs.time + 1e-15 and t <= T:
            samples.append(_sample(cs, t))
            k_sample += 1
        if len(cs) == 1 and evs:
            c = cs.clusters[0]
            ends = (c.position,)
            events.append(Event(cs.time, "final_collapse", (c.id,), ends, c.m1, c.m2, all_positions=ends))
            root_iterations.append(0)
            break
    while pending:
        snapshots.append((pending.pop(0), cs.copy()))
    samples.append(_sample(cs, cs.time))
    elapsed = _time.perf_counter() - t_start
    return ParticleRunResult(
        events, samples, cs, n_advances, elapsed, snapshots,
        n_rejected=n_rejected, root_iterations=root_iterations,
    )
