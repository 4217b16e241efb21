"""The velocities, the external attraction and the unglue resolution
against the scalar versions they replaced.

``advance`` computes the mass-dependent constants of the velocities
(weights, per-cluster chi, glued indices) once per step, and reads every
synchronising check's gamma off the pull recursion that gives the
velocities (``_pulls``, or ``_gamma`` for a group at its centre of mass)
from the step's own weights.  A glued cluster that fails at a step's start
splits through the same resolver that handles contacts, and the set comes
back untouched when none fails.  The versions as they were written before
are copied below.  The unglue path is compared with ``==`` on positions,
masses, ids, times and every event field but gamma and its LHS.  The
velocities and gamma are summed on Python floats in another order than
the reference's (the exponential kernel's by a one-sided recursion), so
they are compared to a few ulp of the sum of the terms' magnitudes, and
an event's gamma to a few ulp of itself.  A set made by an uninterrupted
step skips the check at its start, so every glued cluster of such a set
must pass it.  The integration step itself is checked against an
independent ODE oracle in ``test_particles_oracle.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

from aggrekin import particles
from aggrekin.kernel import exponential_kernel, regularize
from aggrekin.measures import ModelParams
from aggrekin.particles import (
    Cluster,
    ClusterSet,
    Event,
    _safe_split_positions,
    advance,
    glued_selection,
    sync_condition,
)

KERNEL = exponential_kernel()


# the velocities and the unglue pass as they ran before


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


def weights(cs, p):
    """theta1 m1 + theta2 m2 of each cluster of ``cs``, as a step takes them."""
    return [p.theta1 * c.m1 + p.theta2 * c.m2 for c in cs.clusters]


def sync_gamma(cs, first, last, p, at=None):
    """gamma as ``advance`` computes it: the attraction ``_gamma`` finds on
    clusters ``first``..``last`` of ``cs``, at ``at`` or the first one's
    position."""
    z = [c.position for c in cs.clusters]
    at = z[first] if at is None else at
    return particles._gamma(z, weights(cs, p), first, last, at, KERNEL)


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
    # only the unglue pass that opens a step is compared bit for bit
    return reference_unglue_pass(cs, kernel, p, gap_tol)


def snapshot(cs):
    return (cs.time, cs.next_id, [(c.position, c.m1, c.m2, c.id) for c in cs.clusters])


# 8 ulp, relative to what a sum's terms add up to in magnitude
ULP8 = 8 * np.finfo(float).eps


def assert_same_events(new, ref):
    """``==`` on every event field but gamma and sync_lhs = |(chi1 - chi2)
    gamma|, which the recursion sums in another order than the reference:
    those to 8 ulp of the reference's value."""
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        da, db = a.to_dict(), b.to_dict()
        for key in ("gamma", "sync_lhs"):
            x, y = da.pop(key), db.pop(key)
            assert x == y if y is None else abs(x - y) <= ULP8 * abs(y), key
        assert da == db


def assert_same_path(cs, p, n_steps, dt_max=1e-3, gap_tol=1e-9, step=advance):
    """Advance ``step`` and the reference in lockstep; return the event
    kinds seen."""
    new = ref = cs
    kinds = []
    for _ in range(n_steps):
        new, ev_new = step(new, KERNEL, p, dt_max, gap_tol)
        ref, ev_ref = reference_advance(ref, KERNEL, p, dt_max, gap_tol)
        assert snapshot(new) == snapshot(ref)
        assert_same_events(ev_new, ev_ref)
        kinds += [e.kind for e in ev_new]
        if len(new) == 1:
            break
    return kinds


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
        z = cs.positions()
        expected = reference_raw_velocities(z, m1, m2, KERNEL, p)
        w, chi, glued = particles._step_constants(m1.tolist(), m2.tolist(), p)
        pull = particles._pulls(z.tolist(), w, KERNEL)
        raw = np.array(particles._velocities(pull, chi, glued, m1.tolist(), m2.tolist(), p))
        wrho = p.theta1 * m1 + p.theta2 * m2
        magnitude = max(p.chi1, p.chi2) * (np.abs(KERNEL.hat_deriv(z[:, None] - z[None, :])) @ wrho)
        # the reference clamps a failing glued cluster's selection, which
        # advance never reads: it splits such a cluster first
        held = [
            k for k in range(n)
            if not (m1[k] > 0 and m2[k] > 0) or sync_condition(sync_gamma(cs, k, k, p), m1[k], m2[k], p).holds
        ]
        assert np.all(np.abs(raw - expected)[held] <= ULP8 * magnitude[held])

        def gamma_magnitude(group, at):
            others = np.delete(np.arange(n), group)
            return float(np.abs(KERNEL.hat_deriv(at - z[others])) @ wrho[others])

        for i in range(n):
            gam = sync_gamma(cs, i, i, p)
            assert abs(gam - reference_external_attraction(cs, i, KERNEL, p)) <= ULP8 * gamma_magnitude([i], z[i])
            at = float(rng.uniform(-1.0, 1.0))
            group = [i, min(i + 1, n - 1)]
            gam = sync_gamma(cs, *group, p, at=at)
            assert abs(gam - reference_external_attraction(cs, group, KERNEL, p, at=at)) <= (
                ULP8 * gamma_magnitude(group, at)
            )


def pairwise_pull_terms(z, w, i, kernel=KERNEL):
    """The terms of the pull on cluster i at stage positions ``z`` for
    clusters whose start order is their index order, one per other
    cluster, and their magnitude.  The exponential kernel's slope is
    -s_ij w_j e^{-s_ij (z_i - z_j)} / 2 with s_ij = sign(i - j), continued
    across 0; the regularized kernel, smooth through 0, takes each pair's
    own w_j K_n'(z_i - z_j).  The recursion sums the continued exponential
    slopes for that kernel too and corrects the pairs within 1/n, so the
    magnitude holds both."""
    continued, own = [], []
    for j in range(len(z)):
        if j != i:
            s = 1.0 if i > j else -1.0
            continued.append(-0.5 * s * w[j] * math.exp(-s * (z[i] - z[j])))
            own.append(w[j] * kernel.hat_deriv(z[i] - z[j]))
    if kernel.inv_n == 0.0:
        return continued, math.fsum(map(abs, continued))
    return own, math.fsum(map(abs, continued)) + math.fsum(map(abs, own))


def pairwise_velocities(z, m1, m2, p, kernel=KERNEL):
    """Velocities at stage positions ``z``, each pull summed pair by pair
    (:func:`pairwise_pull_terms`) with ``math.fsum``.  Also returns, per
    cluster, the magnitude the velocity is a sum of."""
    n = len(z)
    w = [p.theta1 * a + p.theta2 * b for a, b in zip(m1, m2)]
    v, magnitude = [], []
    for i in range(n):
        terms, size = pairwise_pull_terms(z, w, i, kernel)
        pull = math.fsum(terms)
        if m1[i] > 0 and m2[i] > 0:
            factor = p.theta2 * m2[i] * (p.chi2 - p.chi1) / (p.chi1 * p.theta2 * m2[i] + p.chi2 * p.theta1 * m1[i])
            v.append(p.chi1 * (pull + p.theta2 * m2[i] * glued_selection(pull, m1[i], m2[i], p)))
            magnitude.append(p.chi1 * (1.0 + abs(factor)) * size)
        else:
            chi = p.chi1 if m1[i] > 0 else p.chi2
            v.append(chi * pull)
            magnitude.append(chi * size)
    return v, magnitude


def packed(reg, z):
    """An example of clusters at stage positions ``z`` under K_reg, of
    alternating kinds, its positions reached as start plus shift."""
    kinds = ["1", "2", "glued"]
    return example(
        [(1e-3, kinds[k % 3], 1.0 + 0.25 * k, 2.0, x - 1e-3 * (k + 1)) for k, x in enumerate(z)], True, 3.0, 0.7, reg
    )


# clusters packed inside 1/n = 0.02 of K_50 (or 1 of K_1), with pairs whose
# order has flipped within a stage: adjacent, by more than 1/n, and one that
# only the lowest position right of it reveals
@packed(50, [0.0, 0.004, 0.009, 0.0105, 0.5])
@packed(50, [0.0, 0.006, 0.005, 0.012, 0.3])
@packed(50, [0.0, 0.05, 0.01, 0.2])
@packed(50, [0.0, 0.03, -0.001])
@packed(1, [-0.4, -0.1, 0.0, 0.3, 0.35])
@packed(50, [-0.3, 0.1, 0.1 + 1e-9, 0.1 + 2e-9])
@settings(max_examples=60, deadline=None)
@given(
    hs.lists(
        hs.tuples(
            hs.floats(1e-3, 0.5),
            hs.sampled_from(["1", "2", "glued"]),
            hs.floats(0.1, 4.0),
            hs.floats(0.1, 4.0),
            hs.floats(-0.05, 0.05),
        ),
        min_size=2,
        max_size=40,
    ),
    hs.booleans(),
    hs.floats(0.5, 10.0),
    hs.floats(0.5, 10.0),
    hs.sampled_from([0, 1, 5, 50, 500]),
)
def test_recursion_velocities_match_pairwise_oracle(config, perturb, chi1, chi2, reg):
    # the clusters start sorted; a trial stage may carry adjacent pairs past
    # each other by up to 0.1, and their slopes stay on the start-order branch
    # (reg = 0), or under the regularized K_reg take their own slope
    p = ModelParams(chi1=chi1, chi2=chi2)
    kernel = KERNEL if reg == 0 else regularize(KERNEL, reg)
    start = np.cumsum([gap for gap, *_ in config]).tolist()
    z = [x + (shift if perturb else 0.0) for x, (*_, shift) in zip(start, config)]
    m1 = [a if kind != "2" else 0.0 for _, kind, a, _, _ in config]
    m2 = [b if kind != "1" else 0.0 for _, kind, _, b, _ in config]
    wrho, chi, glued = particles._step_constants(m1, m2, p)
    got = particles._velocities(particles._pulls(z, wrho, kernel), chi, glued, m1, m2, p)
    expected, magnitude = pairwise_velocities(z, m1, m2, p, kernel)
    for g, e, mag in zip(got, expected, magnitude):
        # rtol 1e-12 of the velocity, or of the magnitude of its terms where
        # they cancel
        assert math.isclose(g, e, rel_tol=1e-12, abs_tol=1e-12 * mag)


# gamma is the pull the recursion gives a weightless cluster among the
# others, so a cluster's gamma is bit for bit its own pull, the one it moves
# with; gaps down to 1e-3 pack clusters inside 1/n of K_50 and K_500
@settings(max_examples=80, deadline=None)
@given(
    hs.lists(hs.tuples(hs.floats(1e-3, 0.5), hs.floats(0.0, 6.0)), min_size=1, max_size=30),
    hs.integers(0, 29),
    hs.sampled_from([0, 1, 5, 50, 500]),
)
def test_gamma_is_the_clusters_own_pull(config, i, reg):
    kernel = KERNEL if reg == 0 else regularize(KERNEL, reg)
    z = np.cumsum([gap for gap, _ in config]).tolist()
    w = [weight for _, weight in config]
    i %= len(z)
    assert particles._gamma(z, w, i, i, z[i], kernel) == particles._pulls(z, w, kernel)[i]


# a cross-species pair, touching, among free clusters on either side
@settings(max_examples=80, deadline=None)
@given(
    hs.lists(hs.tuples(hs.floats(1e-3, 0.5), hs.sampled_from(["1", "2"]), hs.floats(0.1, 4.0)), max_size=12),
    hs.integers(0, 12),
    hs.floats(0.1, 40.0),
    hs.floats(0.1, 40.0),
    hs.floats(0.5, 10.0),
    hs.floats(0.5, 10.0),
    hs.sampled_from([0, 1, 50]),
)
def test_glue_event_gamma_is_the_glued_clusters_pull(others, k, a, b, chi1, chi2, reg):
    p = ModelParams(chi1=chi1, chi2=chi2)
    kernel = KERNEL if reg == 0 else regularize(KERNEL, reg)
    k = min(k, len(others))
    rows = [(gap, m if kind == "1" else 0.0, m if kind == "2" else 0.0) for gap, kind, m in others]
    rows[k:k] = [(0.1, a, 0.0), (1e-10, 0.0, b)]
    z = np.cumsum([gap for gap, _, _ in rows]).tolist()
    cs = ClusterSet([Cluster(x, m1, m2) for x, (_, m1, m2) in zip(z, rows)])
    out, (event,) = particles._resolve(cs, [[k, k + 1]], weights(cs, p), kernel, p, 1e-9)
    assume(event.kind == "glue")
    pull = particles._pulls([c.position for c in out.clusters], weights(out, p), kernel)
    # the glued cluster carries the last id the resolver gave out
    assert event.gamma == pull[[c.id for c in out.clusters].index(out.next_id - 1)]


@pytest.mark.parametrize("reg", [0, 50])
def test_group_with_no_other_cluster_has_positive_zero_gamma(reg):
    kernel = KERNEL if reg == 0 else regularize(KERNEL, reg)
    p = ModelParams(chi1=10.0, chi2=1.0)
    cs = ClusterSet([Cluster(0.0, 1.0, 0.0), Cluster(1e-10, 0.0, 2.0)])
    _, (event,) = particles._resolve(cs, [[0, 1]], weights(cs, p), kernel, p, 1e-9)
    assert event.kind == "glue"
    assert event.gamma == 0.0 and math.copysign(1.0, event.gamma) == 1.0


# configuration, parameters, (dt_max, gap_tol), steps, the event kinds
# that must occur, and whether some step must bisect for its contact time
CASES = {
    "glued_cluster_unglues_at_once": (
        [(0.0, 1.0, 1.0), (0.3, 20.0, 0.0)],
        ModelParams(chi1=10.0, chi2=1.0),
        (1e-3, 1e-9),
        1,
        {"unglue"},
        False,
    ),
    "two_glued_clusters_unglue_at_once": (
        [(-0.3, 0.0, 1.0), (0.0, 1.0, 1.0), (0.3, 1.0, 1.0), (0.6, 40.0, 0.0)],
        ModelParams(chi1=10.0, chi2=1.0),
        (1e-3, 1e-9),
        1,
        {"unglue"},
        False,
    ),
    "first_cluster_unglues": (
        [(0.0, 1.0, 1.0), (0.3, 0.0, 5.0), (0.6, 40.0, 0.0)],
        ModelParams(chi1=10.0, chi2=1.0),
        (1e-3, 1e-9),
        1,
        {"unglue"},
        False,
    ),
    "last_cluster_unglues": (
        [(-0.6, 40.0, 0.0), (-0.3, 0.0, 5.0), (0.0, 1.0, 1.0)],
        ModelParams(chi1=10.0, chi2=1.0),
        (1e-3, 1e-9),
        1,
        {"unglue"},
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_advance_matches_reference_through_events(name, monkeypatch):
    config, p, (dt_max, gap_tol), n_steps, wanted, bisects = CASES[name]
    n_vel, per_step = [0], []
    velocities = particles._velocities

    def counting(*args):
        n_vel[0] += 1
        return velocities(*args)

    def counted_advance(*args):
        before = n_vel[0]
        out = advance(*args)
        per_step.append(n_vel[0] - before)
        return out

    monkeypatch.setattr(particles, "_velocities", counting)
    cs = ClusterSet([Cluster(*c) for c in config])
    kinds = assert_same_path(cs, p, n_steps, dt_max, gap_tol, step=counted_advance)
    assert wanted <= set(kinds)
    # a plain step makes two velocity evaluations; only a bisection makes more
    if bisects:
        assert max(per_step) > 2


def assert_glued_checked(cs, p):
    """A set made by an uninterrupted step starts the next one without an
    unglue check, so each of its glued clusters must pass it."""
    if cs.dense is None or cs.dense.v_end is None:
        return
    for i, c in enumerate(cs.clusters):
        if c.glued:
            assert sync_condition(sync_gamma(cs, i, i, p), c.m1, c.m2, p).holds


@settings(max_examples=40, deadline=None)
@given(
    hs.lists(
        hs.tuples(
            hs.floats(0.02, 0.4),
            hs.sampled_from(["1", "2", "glued"]),
            hs.floats(0.1, 4.0),
            hs.floats(0.1, 4.0),
        ),
        min_size=2,
        max_size=6,
    ).filter(lambda cl: any(kind == "glued" for _, kind, _, _ in cl)),
    hs.floats(0.5, 10.0),
    hs.floats(0.5, 10.0),
)
def test_uninterrupted_step_leaves_glued_clusters_checked(config, chi1, chi2):
    p = ModelParams(chi1=chi1, chi2=chi2)
    positions = np.cumsum([gap for gap, _, _, _ in config]).tolist()
    cs = ClusterSet([
        Cluster(x, a if kind != "2" else 0.0, b if kind != "1" else 0.0)
        for x, (_, kind, a, b) in zip(positions, config)
    ])
    masses = cs.total_masses()
    for _ in range(30):
        cs, _ = advance(cs, KERNEL, p, 2e-2, 1e-6)
        assert_glued_checked(cs, p)
        if len(cs) == 1:
            break
    assert cs.total_masses() == masses


def test_unglue_root_at_a_step_end_is_checked_by_the_next_call(monkeypatch):
    # a root tolerance wider than the step puts every located root at the
    # step's end, where the glued cluster already fails: that step must not
    # hand its end velocity on, so the next call checks and splits it
    first_root = particles._first_root
    monkeypatch.setattr(
        particles, "_first_root", lambda f, hi, tol, f_max=math.inf: first_root(f, hi, math.inf, f_max)
    )
    p = ModelParams(chi1=10.0, chi2=1.0)
    cs = ClusterSet([Cluster(0.0, 1.0, 1.0), Cluster(2.9, 20.0, 0.0)])
    assert sync_condition(sync_gamma(cs, 0, 0, p), 1.0, 1.0, p).holds
    kinds = []
    for _ in range(200):
        cs, events = advance(cs, KERNEL, p, 5e-2)
        kinds += [e.kind for e in events]
        assert_glued_checked(cs, p)
        if kinds:
            break
    assert kinds == ["unglue"]
