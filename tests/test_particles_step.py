"""``advance`` is bit-identical to the two-stage step it replaced.

``advance`` makes the first-stage velocity once per step and reuses it in
every trial step of the contact bisection, computes the mass-dependent
constants (weights, per-cluster chi, glued indices) once per step, leaves
the cluster set untouched when no glued cluster splits, and sums the
external attraction from one vectorised kernel call.  The step, the
bisection, the unglue pass and the contact resolution as they were written
before are copied below; the tests compare the two with ``==`` on
positions, masses, ids, times and every event field.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from aggrekin import particles
from aggrekin.kernel import exponential_kernel
from aggrekin.measures import ModelParams
from aggrekin.particles import (
    Cluster,
    ClusterSet,
    Event,
    _contact_groups,
    _safe_split_positions,
    advance,
    external_attraction,
    glued_selection,
    sync_condition,
)

KERNEL = exponential_kernel()


# the step as it ran before: three velocity evaluations per plain step


def reference_raw_velocities(z, m1, m2, kernel, p):
    wrho = p.theta1 * m1 + p.theta2 * m2
    pull = kernel.hat_deriv(z[:, None] - z[None, :]) @ wrho
    v = np.where(m1 > 0, p.chi1 * pull, p.chi2 * pull)
    both = (m1 > 0) & (m2 > 0)
    for k in np.flatnonzero(both):
        w_sel = glued_selection(pull[k], m1[k], m2[k], p)
        w_sel = min(0.5, max(-0.5, w_sel))
        v[k] = p.chi1 * (pull[k] + p.theta2 * m2[k] * w_sel)
    return v


def reference_external_attraction(cs, exclude, kernel, p, at=None):
    if isinstance(exclude, (int, np.integer)):
        exclude = (int(exclude),)
    excl = set(int(i) for i in exclude)
    if at is None:
        at = cs.clusters[min(excl)].position
    total = 0.0
    for i, c in enumerate(cs.clusters):
        if i in excl:
            continue
        total += (p.theta1 * c.m1 + p.theta2 * c.m2) * kernel.hat_deriv(at - c.position)
    return total


def reference_handle_group(cs, group, kernel, p, gap_tol, t_event, new_clusters, events):
    members = [cs.clusters[i] for i in group]
    ids = tuple(c.id for c in members)
    pos_list = tuple(c.position for c in members)
    m1 = math.fsum(c.m1 for c in members)
    m2 = math.fsum(c.m2 for c in members)
    pos = math.fsum(c.mass * c.position for c in members) / (m1 + m2)
    all_pos = tuple(c.position for c in cs.clusters)
    next_id = cs.next_id
    n_s1 = sum(1 for c in members if c.m1 > 0)
    n_s2 = sum(1 for c in members if c.m2 > 0)
    if n_s1 > 1 or n_s2 > 1:
        events.append(
            Event(t_event, "merge_same_species", ids, pos_list, m1, m2, all_positions=all_pos)
        )
    if m1 > 0 and m2 > 0:
        gam = reference_external_attraction(cs, group, kernel, p, at=pos)
        chk = sync_condition(gam, m1, m2, p)
        if chk.holds:
            new_clusters.append(Cluster(pos, m1, m2, next_id))
            next_id += 1
            kind = "glue"
        else:
            direction = 1.0 if (p.chi1 - p.chi2) * gam > 0 else -1.0
            left = cs.clusters[group[0] - 1].position if group[0] > 0 else -math.inf
            right = cs.clusters[group[-1] + 1].position if group[-1] + 1 < len(cs) else math.inf
            s1_pos, s2_pos = _safe_split_positions(pos, direction, gap_tol, left, right)
            new_clusters.append(Cluster(s1_pos, m1, 0.0, next_id))
            new_clusters.append(Cluster(s2_pos, 0.0, m2, next_id + 1))
            next_id += 2
            kind = "cross"
        events.append(Event(t_event, kind, ids, pos_list, m1, m2, gam, chk.lhs, chk.rhs, all_pos))
    else:
        new_clusters.append(Cluster(pos, m1, m2, next_id))
        next_id += 1
        if not events or events[-1].kind != "merge_same_species" or events[-1].participants != ids:
            events.append(
                Event(t_event, "merge_same_species", ids, pos_list, m1, m2, all_positions=all_pos)
            )
    return next_id


def reference_unglue_pass(cs, kernel, p, gap_tol):
    events = []
    out = []
    next_id = cs.next_id
    for i, c in enumerate(cs.clusters):
        if not c.glued:
            out.append(Cluster(c.position, c.m1, c.m2, c.id))
            continue
        gam = reference_external_attraction(cs, i, kernel, p)
        chk = sync_condition(gam, c.m1, c.m2, p)
        if chk.holds:
            out.append(Cluster(c.position, c.m1, c.m2, c.id))
            continue
        direction = 1.0 if (p.chi1 - p.chi2) * gam > 0 else -1.0
        left = cs.clusters[i - 1].position if i > 0 else -math.inf
        right = cs.clusters[i + 1].position if i + 1 < len(cs) else math.inf
        s1_pos, s2_pos = _safe_split_positions(c.position, direction, gap_tol, left, right)
        out.append(Cluster(s1_pos, c.m1, 0.0, next_id))
        out.append(Cluster(s2_pos, 0.0, c.m2, next_id + 1))
        next_id += 2
        all_pos = tuple(cl.position for cl in cs.clusters)
        events.append(
            Event(cs.time, "unglue", (c.id,), (c.position,), c.m1, c.m2,
                  gam, chk.lhs, chk.rhs, all_pos)
        )
    if not events:
        return cs, []
    out.sort(key=lambda c: c.position)
    return ClusterSet(out, cs.time, next_id), events


def reference_advance(cs, kernel, p, dt_max, gap_tol=1e-9):
    cs, events = reference_unglue_pass(cs, kernel, p, gap_tol)
    if events:
        return cs, events
    if len(cs) == 1:
        out = cs.copy()
        out.time = cs.time + dt_max
        return out, []
    z0 = cs.positions()
    m1 = np.array([c.m1 for c in cs.clusters])
    m2 = np.array([c.m2 for c in cs.clusters])

    def trial(tau):
        v1 = reference_raw_velocities(z0, m1, m2, kernel, p)
        z_star = z0 + tau * v1
        v2 = reference_raw_velocities(z_star, m1, m2, kernel, p)
        return z0 + 0.5 * tau * (v1 + v2)

    def resolve(base, groups, t_event):
        in_group = set(i for g in groups for i in g)
        new_clusters = [
            Cluster(c.position, c.m1, c.m2, c.id)
            for i, c in enumerate(base.clusters)
            if i not in in_group
        ]
        next_id = base.next_id
        for g in groups:
            next_id = reference_handle_group(
                base, g, kernel, p, gap_tol, t_event, new_clusters, events
            )
            base.next_id = next_id
        new_clusters.sort(key=lambda c: c.position)
        return ClusterSet(new_clusters, t_event, next_id), events

    v0 = reference_raw_velocities(z0, m1, m2, kernel, p)
    gaps = np.diff(z0)
    closing = np.diff(v0)
    touching = (gaps <= 1.5 * gap_tol) & (closing < 0)
    if np.any(touching):
        return resolve(cs.copy(), _contact_groups(touching), cs.time)
    dt = dt_max
    shrinking = closing < 0
    if np.any(shrinking):
        dt = min(dt, float(np.min(0.25 * gaps[shrinking] / (-closing[shrinking]))))

    def has_contact(z):
        return np.diff(z) <= gap_tol

    z_end = trial(dt)
    if not np.any(has_contact(z_end)):
        out = [Cluster(float(x), c.m1, c.m2, c.id) for c, x in zip(cs.clusters, z_end)]
        return ClusterSet(out, cs.time + dt, cs.next_id), events
    lo, hi = 0.0, dt
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if np.any(has_contact(trial(mid))):
            hi = mid
        else:
            lo = mid
    touching = has_contact(trial(hi))
    z_commit = trial(lo) if lo > 0.0 else z0
    t_event = cs.time + hi
    committed = ClusterSet(
        [Cluster(float(x), c.m1, c.m2, c.id) for c, x in zip(cs.clusters, z_commit)],
        t_event,
        cs.next_id,
    )
    return resolve(committed, _contact_groups(touching), t_event)


def snapshot(cs):
    return (cs.time, cs.next_id, [(c.position, c.m1, c.m2, c.id) for c in cs.clusters])


def assert_same_path(cs, p, n_steps, dt_max=1e-3, gap_tol=1e-9, step=advance):
    """Advance ``step`` and the reference in lockstep; return the event
    kinds seen."""
    new, ref = cs.copy(), cs.copy()
    kinds = []
    for _ in range(n_steps):
        new, ev_new = step(new, KERNEL, p, dt_max, gap_tol)
        ref, ev_ref = reference_advance(ref, KERNEL, p, dt_max, gap_tol)
        assert snapshot(new) == snapshot(ref)
        assert [e.to_dict() for e in ev_new] == [e.to_dict() for e in ev_ref]
        kinds += [e.kind for e in ev_new]
        if len(new) == 1:
            break
    return kinds


SPECIES = {"1": (1.0, 0.0), "2": (0.0, 1.0), "glued": (1.0, 1.0)}


@settings(max_examples=60, deadline=None)
@given(
    data=hs.lists(
        hs.tuples(
            hs.one_of(hs.floats(1.1e-9, 2e-5), hs.floats(1e-3, 0.4)),
            hs.sampled_from(sorted(SPECIES)),
            hs.floats(0.05, 4.0),
            hs.floats(0.05, 4.0),
        ),
        min_size=2,
        max_size=6,
    ),
    chi1=hs.floats(0.5, 10.0),
    chi2=hs.floats(0.5, 10.0),
    theta2=hs.sampled_from([1.0, 0.5, 2.0]),
)
def test_advance_matches_reference_on_random_sets(data, chi1, chi2, theta2):
    clusters = []
    x = -0.5
    for gap, species, ma, mb in data:
        x += gap
        s1, s2 = SPECIES[species]
        clusters.append(Cluster(x, s1 * ma, s2 * mb))
    cs = ClusterSet(clusters)
    assert_same_path(cs, ModelParams(chi1=chi1, chi2=chi2, theta2=theta2), 30)


def test_velocities_match_reference():
    rng = np.random.default_rng(3)
    p = ModelParams(chi1=7.0, chi2=1.5, theta1=0.5, theta2=2.0)
    for n in range(1, 7):
        z = np.sort(rng.uniform(-1.0, 1.0, n))
        kind = rng.integers(0, 3, n)
        m1 = np.where(kind != 1, rng.uniform(0.1, 2.0, n), 0.0)
        m2 = np.where(kind != 0, rng.uniform(0.1, 2.0, n), 0.0)
        cs = ClusterSet([Cluster(*c) for c in zip(z.tolist(), m1.tolist(), m2.tolist())])
        m1 = np.array([c.m1 for c in cs.clusters])
        m2 = np.array([c.m2 for c in cs.clusters])
        expected = reference_raw_velocities(cs.positions(), m1, m2, KERNEL, p)
        assert particles.velocities(cs, KERNEL, p).tolist() == expected.tolist()
        for i in range(n):
            assert external_attraction(cs, i, KERNEL, p) == reference_external_attraction(
                cs, i, KERNEL, p
            )
            at = float(rng.uniform(-1.0, 1.0))
            group = [i, min(i + 1, n - 1)]
            assert external_attraction(cs, group, KERNEL, p, at=at) == (
                reference_external_attraction(cs, group, KERNEL, p, at=at)
            )


# configuration, parameters, (dt_max, gap_tol), steps, the event kinds
# that must occur, and whether some step must bisect for its contact time
CASES = {
    "glue_then_unglue": (
        [(-0.5, 2.0, 0.0), (-0.3, 0.0, 2.0), (0.5, 4.0, 0.0)],
        ModelParams(chi1=10.0, chi2=1.0),
        (1e-3, 1e-9),
        2000,
        {"glue", "unglue"},
        False,
    ),
    "cross": (
        [(-0.5, 2.0, 0.0), (-0.15, 0.0, 2.0), (0.5, 4.0, 0.0)],
        ModelParams(chi1=10.0, chi2=1.0),
        (1e-3, 1e-9),
        1000,
        {"cross"},
        False,
    ),
    "glued_cluster_unglues_at_once": (
        [(0.0, 1.0, 1.0), (0.3, 20.0, 0.0)],
        ModelParams(chi1=10.0, chi2=1.0),
        (1e-3, 1e-9),
        1,
        {"unglue"},
        False,
    ),
    "close_same_species_pair": (
        [(-0.2, 1.0, 0.0), (0.0, 0.5, 0.0), (1e-5, 0.7, 0.0), (0.4, 0.0, 1.5)],
        ModelParams(chi1=3.0, chi2=2.0),
        (1e-3, 1e-9),
        200,
        {"merge_same_species"},
        False,
    ),
    # a separating pair inside gap_tol: the first trial step is in contact
    "bisected_cross_then_glue": (
        [(0.0, 0.33, 0.0), (1e-6, 0.0, 0.3), (0.01, 1.6, 2.3), (0.02, 2.3, 0.0)],
        ModelParams(chi1=3.0, chi2=4.0),
        (1e-3, 1e-3),
        50,
        {"cross", "merge_same_species", "glue"},
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_advance_matches_reference_through_events(name, monkeypatch):
    config, p, (dt_max, gap_tol), n_steps, wanted, bisects = CASES[name]
    n_vel, per_step = [0], []
    raw = particles._raw_velocities

    def counting(*args):
        n_vel[0] += 1
        return raw(*args)

    def counted_advance(*args):
        before = n_vel[0]
        out = advance(*args)
        per_step.append(n_vel[0] - before)
        return out

    monkeypatch.setattr(particles, "_raw_velocities", counting)
    cs = ClusterSet([Cluster(*c) for c in config])
    kinds = assert_same_path(cs, p, n_steps, dt_max, gap_tol, step=counted_advance)
    assert wanted <= set(kinds)
    # a plain step makes two velocity evaluations; only a bisection makes more
    if bisects:
        assert max(per_step) > 2
