"""Particle event times against an independent ODE oracle.

The oracle integrates the aggregate ODEs with scipy's DOP853 (rtol 1e-13,
atol 1e-15) and locates events with ``solve_ivp``'s own root finder.  It
is written from the model alone, not from ``aggrekin.particles``:
aggregate i moves at chi_i * sum_j w_j K'(z_i - z_j) with weights
w = theta1 m1 + theta2 m2; a contact is the smallest adjacent gap reaching
``gap_tol``; a glued pair moves at chi1 (gamma + theta2 m2 w_sel) with
w_sel = (chi2 - chi1) gamma / (chi1 theta2 m2 + chi2 theta1 m1) and unglues
when |(chi1 - chi2) gamma| reaches (chi1 theta2 m2 + chi2 theta1 m1) / 2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from aggrekin.kernel import exponential_kernel, regularize
from aggrekin.measures import ModelParams
from aggrekin.particles import Cluster, ClusterSet, advance, run
from aggrekin.scenarios import initial_cluster_set, preset

integrate = pytest.importorskip("scipy.integrate")

KERNEL = exponential_kernel()
GAP_TOL = 1e-9
RTOL, ATOL = 1e-13, 1e-15
# chi1 = 10, chi2 = 1, theta = 1 and bumps of width 5000 (mass unit m0)
CHI1, CHI2 = 10.0, 1.0
M0 = math.sqrt(math.pi / 5000.0)

# the oracle's event times for the presets' initial data
EX2_CROSS = 0.789097822031
EX3_GLUE = 0.455239916832
EX3_UNGLUE = 1.081481166441


def exp_slope(d):
    return -0.5 * np.sign(d) * np.exp(-np.abs(d))


def first_contact(z0, w, chi, T, slope=exp_slope):
    """Time and positions at which the smallest adjacent gap of the free
    aggregates first reaches GAP_TOL."""

    def rhs(_t, z):
        return chi * (slope(z[:, None] - z[None, :]) @ w)

    def contact(_t, z):
        return np.min(np.diff(z)) - GAP_TOL

    contact.terminal = True
    contact.direction = -1
    sol = integrate.solve_ivp(
        rhs, (0.0, T), np.asarray(z0, dtype=float), method="DOP853",
        rtol=RTOL, atol=ATOL, events=contact,
    )
    assert sol.status == 1, "no contact before T"
    return float(sol.t_events[0][0]), sol.y_events[0][0]


def glued_unglue(t0, x_glued, m1, m2, x_remote, m_remote, T):
    """Unglue time of a glued pair (masses m1, m2 of species 1 and 2) and a
    free species-1 aggregate of mass m_remote, from time t0."""
    rhs_sync = 0.5 * (CHI1 * m2 + CHI2 * m1)

    def gamma(z):
        return m_remote * exp_slope(z[0] - z[1])

    def rhs(_t, z):
        g = gamma(z)
        w_sel = (CHI2 - CHI1) * g / (CHI1 * m2 + CHI2 * m1)
        return [CHI1 * (g + m2 * w_sel), CHI1 * (m1 + m2) * exp_slope(z[1] - z[0])]

    def unglue(_t, z):
        return abs((CHI1 - CHI2) * gamma(z)) - rhs_sync

    unglue.terminal = True
    unglue.direction = 1
    sol = integrate.solve_ivp(
        rhs, (t0, T), [x_glued, x_remote], method="DOP853",
        rtol=RTOL, atol=ATOL, events=unglue,
    )
    assert sol.status == 1, "no unglue before T"
    return float(sol.t_events[0][0])


def three_aggregates(x_pair):
    """Examples 2 and 3: species-1 masses 2 m0 at -0.5 and 4 m0 at 0.5,
    species-2 mass 2 m0 at ``x_pair``."""
    z0 = [-0.5, x_pair, 0.5]
    w = np.array([2.0, 2.0, 4.0]) * M0
    chi = np.array([CHI1, CHI2, CHI1])
    return z0, w, chi


def example2_oracle():
    return first_contact(*three_aggregates(-0.15), T=2.5)[0]


def example3_oracle():
    t_glue, z = first_contact(*three_aggregates(-0.3), T=3.0)
    m1, m2 = 2.0 * M0, 2.0 * M0
    # the glued pair sits at the mass-weighted mean of the touching aggregates
    x_glued = (m1 * z[0] + m2 * z[1]) / (m1 + m2)
    return t_glue, glued_unglue(t_glue, x_glued, m1, m2, z[2], 4.0 * M0, T=3.0)


def preset_run(name):
    s = preset(name)
    return run(
        initial_cluster_set(s), KERNEL, s.params, s.T,
        dt_max=s.dt_max, gap_tol=s.gap_tol, snapshot_times=s.snapshot_times,
    )


def test_oracle_reproduces_its_pinned_times():
    assert abs(example2_oracle() - EX2_CROSS) <= 1e-11
    t_glue, t_unglue = example3_oracle()
    assert abs(t_glue - EX3_GLUE) <= 1e-11
    assert abs(t_unglue - EX3_UNGLUE) <= 1e-11


def test_example2_cross_against_oracle():
    first = preset_run("example2").events[0]
    assert first.kind == "cross"
    assert abs(first.time - EX2_CROSS) <= 1e-9


def test_example3_glue_and_unglue_against_oracle():
    res = preset_run("example3")
    glue, unglue = res.events[0], res.events[1]
    assert (glue.kind, unglue.kind) == ("glue", "unglue")
    assert abs(glue.time - EX3_GLUE) <= 1e-9
    assert abs(unglue.time - EX3_UNGLUE) <= 1e-8
    # the step stops just past the root: the condition has just failed
    assert unglue.sync_lhs > unglue.sync_rhs
    assert unglue.sync_lhs - unglue.sync_rhs <= 1e-9 * unglue.sync_rhs
    # both were located on a step's interpolant
    assert len(res.root_iterations) == len(res.events)
    assert min(res.root_iterations[:2]) > 0


def test_trajectory_samples_lie_on_the_oracle():
    s = preset("example2")
    res = preset_run("example2")
    times = [t for t, _, _ in res.samples[:-1]]
    sample_dt = s.T / 200.0
    assert times == [k * sample_dt for k in range(len(times))]
    before = [(t, positions) for t, _, positions in res.samples if t < EX2_CROSS]
    z0, w, chi = three_aggregates(-0.15)
    sol = integrate.solve_ivp(
        lambda _t, z: chi * (exp_slope(z[:, None] - z[None, :]) @ w),
        (0.0, before[-1][0]), z0, method="DOP853", rtol=RTOL, atol=ATOL,
        t_eval=[t for t, _ in before],
    )
    assert np.max(np.abs(np.array([z for _, z in before]) - sol.y.T)) <= 1e-9


def first_event(cs, kernel, p, dt_max=1.0, max_calls=5000):
    for _ in range(max_calls):
        cs, events = advance(cs, kernel, p, dt_max)
        if events:
            return events[0]
    raise AssertionError("no event")


@settings(max_examples=40, deadline=None)
@given(
    data=hs.lists(
        hs.tuples(hs.floats(0.05, 0.4), hs.sampled_from([1, 2]), hs.floats(0.05, 4.0)),
        min_size=2,
        max_size=6,
    ),
    chi1=hs.floats(0.5, 10.0),
    chi2=hs.floats(0.5, 10.0),
)
def test_first_contact_matches_oracle_on_random_sets(data, chi1, chi2):
    x = -0.5
    clusters = []
    for gap, species, m in data:
        x += gap
        clusters.append(Cluster(x, m if species == 1 else 0.0, m if species == 2 else 0.0))
    cs = ClusterSet(clusters)
    p = ModelParams(chi1=chi1, chi2=chi2)
    w = np.array([c.m1 + c.m2 for c in cs.clusters])
    chi = np.array([chi1 if c.m1 > 0 else chi2 for c in cs.clusters])
    t_oracle, z = first_contact(cs.positions(), w, chi, T=1e4)
    event = first_event(cs, KERNEL, p)
    assert event.kind in ("merge_same_species", "glue", "cross")
    # a position error of the solver shifts the contact by itself over the
    # closing speed: 1e-9 in time, or in the gap for pairs slower than 1
    v = chi * (exp_slope(z[:, None] - z[None, :]) @ w)
    k = int(np.argmin(np.diff(z)))
    closing = v[k] - v[k + 1]
    assert abs(event.time - t_oracle) * min(closing, 1.0) <= 1e-9


def test_regularized_kernel_run_against_oracle():
    n = 10
    kernel = regularize(KERNEL, n)
    slope_in = n * (-0.5 * math.exp(-1.0 / n))

    def reg_slope(d):
        return np.where(np.abs(d) > 1.0 / n, exp_slope(d), slope_in * d)

    cs = ClusterSet([Cluster(-0.4, 1.0, 0.0), Cluster(-0.1, 0.0, 1.5), Cluster(0.3, 2.0, 0.0)])
    p = ModelParams(chi1=3.0, chi2=2.0)
    w = np.array([1.0, 1.5, 2.0])
    chi = np.array([3.0, 2.0, 3.0])
    t_oracle, _ = first_contact(cs.positions(), w, chi, T=100.0, slope=reg_slope)

    res = run(cs, kernel, p, T=t_oracle + 1.0)
    first = res.events[0]
    assert first.kind in ("glue", "cross")
    assert abs(first.time - t_oracle) <= 1e-9
    assert res.final.total_masses() == cs.total_masses()
    assert len(res.root_iterations) == len(res.events)
