import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from aggrekin import particles
from aggrekin.kernel import exponential_kernel
from aggrekin.measures import ModelParams, bump_mass_unit
from aggrekin.particles import (
    Cluster,
    ClusterSet,
    advance,
    glued_selection,
    run,
    sync_condition,
)
from test_particles_step import reference_raw_velocities

KERNEL = exponential_kernel()
M0 = bump_mass_unit()

# First contact of the three-aggregate configuration below (example 2's
# initial data): (time, pair position, remote position), frozen from an
# independent solve_ivp integration and re-derived live by
# tests/test_acceptance.py::TestCriterion2Oracle.
FROZEN_THREE_AGGREGATE_CONTACT = (0.789098, -0.143545, 0.289499)


def params(chi1=10.0, chi2=1.0):
    return ModelParams(chi1=chi1, chi2=chi2)


def external_gamma(cs, first, last, p, at=None):
    """The external attraction on clusters ``first``..``last`` of ``cs`` as
    the particle step finds it (``_gamma``), at ``at`` or the first one's
    position."""
    z = [c.position for c in cs.clusters]
    wrho = [p.theta1 * c.m1 + p.theta2 * c.m2 for c in cs.clusters]
    at = z[first] if at is None else at
    return particles._gamma(z, wrho, first, last, at, KERNEL)


def reference_velocities(cs, p):
    """The cluster velocities of ``cs`` by the reference sum of
    test_particles_step.py."""
    m1 = np.array([c.m1 for c in cs.clusters])
    m2 = np.array([c.m2 for c in cs.clusters])
    return reference_raw_velocities(cs.positions(), m1, m2, KERNEL, p)


class TestClusterSet:
    def test_rejects_unordered_positions(self):
        with pytest.raises(ValueError):
            ClusterSet([Cluster(0.0, 1.0, 0.0), Cluster(0.0, 0.0, 1.0)])

    def test_rejects_massless_cluster(self):
        with pytest.raises(ValueError):
            Cluster(0.0, 0.0, 0.0)

    def test_glued_flag(self):
        assert Cluster(0.0, 1.0, 1.0).glued
        assert not Cluster(0.0, 1.0, 0.0).glued

    def test_ids_assigned(self):
        cs = ClusterSet([Cluster(0.0, 1.0, 0.0), Cluster(1.0, 0.0, 1.0)])
        assert [c.id for c in cs.clusters] == [0, 1]
        assert cs.next_id == 2

    def test_a_set_leaves_the_clusters_it_is_given_as_they_are(self):
        c = Cluster(0.1, 0.3, 0.0)
        a = ClusterSet([c, Cluster(0.5, 0.0, 1.0)])
        ClusterSet([Cluster(-0.2, 1.0, 0.0), c])
        assert c.m1 == 0.3
        assert c.id == -1
        assert a.total_masses()[0] == 0.30000000000000004
        assert [x.id for x in a.clusters] == [0, 1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.m1 = 1.0

    def test_a_species_snapped_away_in_one_set_stays_in_the_next(self):
        # 1e-17 is below half the species-2 quantum of a total of 1.0
        c = Cluster(0.1, 0.3, 1e-17)
        a = ClusterSet([c, Cluster(0.5, 0.0, 1.0)])
        b = ClusterSet([c])
        assert a.clusters[0].m2 == 0.0
        assert c.m2 == 1e-17
        assert b.total_masses()[1] == pytest.approx(1e-17, rel=1e-15)

    def test_rejects_nan_position(self):
        with pytest.raises(ValueError, match="position"):
            ClusterSet([Cluster(0.0, 1.0, 0.0), Cluster(math.nan, 1.0, 0.0), Cluster(0.5, 1.0, 0.0)])

    def test_infinite_mass_is_named(self):
        with pytest.raises(ValueError, match="m1"):
            ClusterSet([Cluster(0.0, math.inf, 0.0), Cluster(1.0, 1.0, 0.0)])

    def test_overflowing_species_total_is_named(self):
        with pytest.raises(ValueError, match="m2 total"):
            ClusterSet([Cluster(0.0, 0.0, 1e308), Cluster(1.0, 0.0, 1e308)])

    @settings(max_examples=200, deadline=None)
    @given(
        n=hs.integers(1, 6),
        bad=hs.sampled_from([math.nan, math.inf, -math.inf]),
        name=hs.sampled_from(["position", "m1", "m2"]),
        where=hs.integers(0, 5),
    )
    def test_non_finite_field_is_named(self, n, bad, name, where):
        fields = [{"position": 0.1 * i, "m1": 1.0, "m2": 0.5 * (i % 2)} for i in range(n)]
        fields[where % n][name] = bad
        with pytest.raises(ValueError, match=name):
            ClusterSet([Cluster(**f) for f in fields])


class TestVelocities:
    def test_single_cluster_is_stationary(self):
        cs = ClusterSet([Cluster(0.3, 1.0, 0.5)])
        assert reference_velocities(cs, params())[0] == 0.0

    def test_two_same_species_clusters_attract_symmetrically(self):
        m = 0.7
        d = 0.9
        cs = ClusterSet([Cluster(-d / 2, m, 0.0), Cluster(d / 2, m, 0.0)])
        p = params(chi1=3.0, chi2=1.0)
        v = reference_velocities(cs, p)
        expected = p.chi1 * m * 0.5 * math.exp(-d)
        assert v[0] == pytest.approx(expected, rel=1e-14)
        assert v[1] == pytest.approx(-expected, rel=1e-14)

    def test_glued_cluster_with_equal_sensitivities_moves_at_chi_gamma(self):
        p = params(chi1=2.0, chi2=2.0)
        cs = ClusterSet([Cluster(0.0, 1.0, 1.0), Cluster(1.0, 3.0, 0.0)])
        gam = external_gamma(cs, 0, 0, p)
        v = reference_velocities(cs, p)
        assert v[0] == pytest.approx(p.chi1 * gam, rel=1e-14)

    def test_glued_velocity_consistency_identity(self):
        # chi1 (gamma + m2 w) == chi2 (gamma - m1 w) for the selected w
        rng = np.random.default_rng(12)
        for _ in range(200):
            chi1, chi2 = rng.uniform(0.1, 10.0, 2)
            m1, m2 = rng.uniform(0.01, 5.0, 2)
            gam = rng.uniform(-2.0, 2.0)
            p = params(chi1=chi1, chi2=chi2)
            w = glued_selection(gam, m1, m2, p)
            lhs = chi1 * (gam + m2 * w)
            rhs = chi2 * (gam - m1 * w)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


class TestExternalAttraction:
    def test_lone_pair_has_no_external_pull(self):
        cs = ClusterSet([Cluster(0.0, 1.0, 2.0)])
        assert external_gamma(cs, 0, 0, params()) == 0.0

    def test_reference_arithmetic(self):
        # glued pair at -0.18 pulled by species-1 mass 2 m0 at +0.12
        cs = ClusterSet([Cluster(-0.18, 4 * M0, 2 * M0), Cluster(0.12, 2 * M0, 0.0)])
        gam = external_gamma(cs, 0, 0, params())
        assert gam == pytest.approx(M0 * math.exp(-0.3), rel=1e-12)
        assert gam > 0.0

    def test_mirror_configuration_negates(self):
        cs = ClusterSet([Cluster(-0.18, 4.0, 2.0), Cluster(0.12, 2.0, 0.0)])
        mirrored = ClusterSet([Cluster(-0.12, 2.0, 0.0), Cluster(0.18, 4.0, 2.0)])
        p = params()
        assert external_gamma(mirrored, 1, 1, p) == pytest.approx(
            -external_gamma(cs, 0, 0, p), rel=1e-14
        )

    def test_pair_exclusion(self):
        cs = ClusterSet(
            [Cluster(-1.0, 1.0, 0.0), Cluster(0.0, 2.0, 0.0), Cluster(1e-6, 0.0, 3.0)]
        )
        p = params()
        gam = external_gamma(cs, 1, 2, p, at=0.0)
        assert gam == pytest.approx(1.0 * KERNEL.hat_deriv(1.0), rel=1e-14)


class TestSyncCondition:
    def test_example1_values(self):
        # masses and attraction in units of the bump mass
        gam = math.exp(-0.3)
        chk = sync_condition(gam, 4.0, 2.0, params())
        assert chk.lhs == pytest.approx(9 * math.exp(-0.3), rel=1e-12)
        assert chk.lhs == pytest.approx(6.667, abs=2e-3)
        assert chk.rhs == pytest.approx(12.0, rel=1e-12)
        assert chk.holds

    def test_example2_values(self):
        gam = 2 * math.exp(-0.4)
        chk = sync_condition(gam, 2.0, 2.0, params())
        assert chk.lhs == pytest.approx(12.066, abs=1e-3)
        assert chk.rhs == pytest.approx(11.0, rel=1e-12)
        assert not chk.holds

    def test_equal_sensitivities_always_hold(self):
        chk = sync_condition(123.4, 0.1, 0.2, params(chi1=2.0, chi2=2.0))
        assert chk.lhs == 0.0
        assert chk.holds

    def test_requires_both_masses(self):
        with pytest.raises(ValueError):
            sync_condition(1.0, 0.0, 1.0, params())


class TestSynchronisationThreshold:
    """The threshold between a temporary and a permanent glue on a
    three-body family: species-1 atoms A m0 at -0.5 and (M1 - A) m0 at 0.5,
    species 2's m2 m0 at -0.15.  The pair glued at -0.5 unglues when the far
    species-1 aggregate arrives iff A < A* = M1 (1 - chi2/chi1) - (theta2/theta1) m2,
    the synchronising condition |(chi1 - chi2) gamma| <= (chi1 theta2 m2 + chi2
    theta1 m1)/2 with the far aggregate's pull gamma = theta1 (M1 - A)/2 at
    zero distance."""

    @pytest.mark.parametrize("chi2, a_star", [(0.5, 3.7), (1.0, 3.4), (2.0, 2.8)])
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_unglue_before_the_merge_exactly_below_the_threshold(self, chi2, a_star, side):
        m1_total, m2, chi1 = 6.0, 2.0, 10.0
        assert m1_total * (1 - chi2 / chi1) - m2 == pytest.approx(a_star)
        a = a_star + 0.01 * side
        cs = ClusterSet(
            [Cluster(-0.5, a * M0, 0.0), Cluster(-0.15, 0.0, m2 * M0), Cluster(0.5, (m1_total - a) * M0, 0.0)]
        )
        kinds = [e.kind for e in run(cs, KERNEL, params(chi1, chi2), T=2.5).events]
        assert kinds[0] == "glue"
        merge = kinds.index("merge_same_species")
        if side < 0:
            assert "unglue" in kinds[:merge]
        else:
            assert "unglue" not in kinds


class TestGluedSelection:
    def test_equal_sensitivities_give_zero(self):
        assert glued_selection(5.0, 1.0, 2.0, params(chi1=3.0, chi2=3.0)) == 0.0

    def test_boundary_attains_half(self):
        p = params(chi1=4.0, chi2=1.5)
        m1, m2 = 0.8, 1.7
        rhs = 0.5 * (p.chi1 * m2 + p.chi2 * m1)
        gam = rhs / (p.chi1 - p.chi2)
        w = glued_selection(gam, m1, m2, p)
        assert abs(w) == pytest.approx(0.5, abs=1e-14)

    def test_example1_selection_value(self):
        w = glued_selection(math.exp(-0.3), 4.0, 2.0, params())
        assert w == pytest.approx(-9 * math.exp(-0.3) / 24.0, rel=1e-12)
        assert abs(w) < 0.5

    def test_admissibility_equivalence_randomized(self):
        rng = np.random.default_rng(99)
        agree = 0
        n = 20_000
        for _ in range(n):
            chi1, chi2 = rng.uniform(0.05, 20.0, 2)
            m1, m2 = rng.uniform(0.01, 10.0, 2)
            gam = rng.uniform(-30.0, 30.0)
            p = params(chi1=chi1, chi2=chi2)
            chk = sync_condition(gam, m1, m2, p)
            w = glued_selection(gam, m1, m2, p)
            agree += (abs(w) <= 0.5) == chk.holds
        assert agree == n


class TestAdvance:
    def test_same_species_contact_merges(self):
        cs = ClusterSet([Cluster(-0.05, 1.0, 0.0), Cluster(0.05, 3.0, 0.0)])
        p = params(chi1=1.0, chi2=1.0)
        events = []
        for _ in range(500):
            cs, evs = advance(cs, KERNEL, p, 0.01)
            events.extend(evs)
            if len(cs) == 1:
                break
        assert len(cs) == 1
        assert events[0].kind == "merge_same_species"
        merged = cs.clusters[0]
        assert merged.m1 == pytest.approx(4.0, rel=1e-12)
        # plain-mass weighted position: (1*(-0.05) + 3*0.05)/4 drifted symmetrically
        assert -0.05 < merged.position < 0.05

    def test_three_aggregate_contact_against_frozen_ode_oracle(self):
        # expected values frozen from an independent solve_ivp integration
        # (RK45, rtol 1e-12) of the three-aggregate attraction ODEs
        m0 = M0
        cs = ClusterSet(
            [Cluster(-0.5, 2 * m0, 0.0), Cluster(-0.15, 0.0, 2 * m0), Cluster(0.5, 4 * m0, 0.0)]
        )
        p = params()
        events = []
        for _ in range(2000):
            cs, evs = advance(cs, KERNEL, p, 1e-3)
            events.extend(evs)
            if events:
                break
        first = events[0]
        t_contact, x_pair, x_remote = FROZEN_THREE_AGGREGATE_CONTACT
        assert first.time == pytest.approx(t_contact, abs=5e-4)
        assert first.positions[0] == pytest.approx(x_pair, abs=5e-4)
        remote = max(first.all_positions, key=lambda x: abs(x - first.positions[0]))
        assert remote == pytest.approx(x_remote, abs=5e-4)

    @pytest.mark.parametrize(
        "species, kinds",
        [((1, 1, 1), ["merge_same_species"]), ((1, 2, 1), ["merge_same_species", "glue"])],
    )
    def test_three_clusters_touch_in_one_contact_group(self, species, kinds):
        # symmetric clusters reach both gaps at once: one group of three,
        # whose species-1 members merge and, with species 2 between them, glue
        cs = ClusterSet([Cluster(x, float(s == 1), float(s == 2)) for x, s in zip((-0.1, 0.0, 0.1), species)])
        res = run(cs, KERNEL, params(), T=0.1)
        assert [e.kind for e in res.events] == kinds + ["final_collapse"]
        assert all(e.participants == (0, 1, 2) for e in res.events[:-1])
        assert res.events[0].time == pytest.approx(0.010784, abs=1e-6)
        drift = [a - b for a, b in zip(res.final.total_masses(), cs.total_masses())]
        assert drift == [0.0, 0.0]

    def test_cross_species_contact_without_sync_crosses(self):
        m0 = M0
        cs = ClusterSet(
            [Cluster(-0.5, 2 * m0, 0.0), Cluster(-0.15, 0.0, 2 * m0), Cluster(0.5, 4 * m0, 0.0)]
        )
        p = params()
        events = []
        for _ in range(2000):
            cs, evs = advance(cs, KERNEL, p, 1e-3)
            events.extend(evs)
            if any(e.kind == "cross" for e in evs):
                break
        cross = [e for e in events if e.kind == "cross"]
        assert cross, "expected a crossing event"
        assert cross[0].sync_lhs > cross[0].sync_rhs
        # species 1 overtakes to the right: ordering swapped
        s1 = [c for c in cs.clusters if c.m1 > 0 and c.m1 < 3 * m0]
        s2 = [c for c in cs.clusters if c.m2 > 0]
        assert s1[0].position > s2[0].position

    def test_glue_then_unglue_transition(self):
        m0 = M0
        cs = ClusterSet(
            [Cluster(-0.5, 2 * m0, 0.0), Cluster(-0.3, 0.0, 2 * m0), Cluster(0.5, 4 * m0, 0.0)]
        )
        p = params()
        res = run(cs, KERNEL, p, T=1.5, dt_max=1e-3)
        kinds = [e.kind for e in res.events]
        assert "glue" in kinds and "unglue" in kinds
        assert kinds.index("glue") < kinds.index("unglue")
        unglue = res.events[kinds.index("unglue")]
        assert unglue.sync_lhs == pytest.approx(unglue.sync_rhs, rel=5e-3)

    def test_mass_conservation_across_events_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(3, 7))
            pos = np.sort(rng.uniform(-1, 1, n)) + np.arange(n) * 1e-6
            clusters = []
            for x in pos:
                species = rng.integers(0, 2)
                m = float(rng.uniform(0.1, 1.0))
                clusters.append(Cluster(float(x), m * (species == 0), m * (species == 1)))
            cs = ClusterSet(clusters)
            m1_0, m2_0 = cs.total_masses()
            p = params(chi1=float(rng.uniform(0.5, 8.0)), chi2=float(rng.uniform(0.5, 8.0)))
            res = run(cs, KERNEL, p, T=10.0, dt_max=5e-3)
            m1_1, m2_1 = res.final.total_masses()
            assert m1_1 - m1_0 == 0.0
            assert m2_1 - m2_0 == 0.0

    def test_weighted_center_conserved(self):
        m0 = M0
        cs = ClusterSet(
            [Cluster(-0.5, 4 * m0, 0.0), Cluster(-0.15, 0.0, 2 * m0), Cluster(0.5, 2 * m0, 0.0)]
        )
        p = params()
        wc0 = cs.weighted_center(p)
        res = run(cs, KERNEL, p, T=2.5)
        assert abs(res.final.weighted_center(p) - wc0) <= 1e-6

    def test_eventual_single_aggregate(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            pos = np.sort(rng.uniform(-1, 1, n)) + np.arange(n) * 1e-5
            clusters = []
            for x in pos:
                if rng.integers(0, 2) == 0:
                    clusters.append(Cluster(float(x), float(rng.uniform(0.1, 1.0)), 0.0))
                else:
                    clusters.append(Cluster(float(x), 0.0, float(rng.uniform(0.1, 1.0))))
            cs = ClusterSet(clusters)
            p = params(chi1=float(rng.uniform(0.5, 5.0)), chi2=float(rng.uniform(0.5, 5.0)))
            res = run(cs, KERNEL, p, T=50.0, dt_max=5e-3)
            assert len(res.final) == 1
            assert res.events[-1].kind == "final_collapse"
            assert res.events[-1].time < 50.0

    def test_single_cluster_run_is_quiet(self):
        cs = ClusterSet([Cluster(0.2, 1.0, 1.0)])
        res = run(cs, KERNEL, params(), T=1.0)
        assert res.events == []
        assert res.final.clusters[0].position == 0.2

    def test_lone_glued_cluster_takes_the_general_step(self):
        # no other cluster pulls it: its pull is -0.0 and the step's error is 0
        cs = ClusterSet([Cluster(0.3, 1.0, 0.5)])
        for k in (1, 2, 3):
            cs, events = advance(cs, KERNEL, params(), 0.05)
            assert events == [] and cs.dense is not None
            assert [(c.position, c.glued) for c in cs.clusters] == [(0.3, True)]
            assert cs.time == pytest.approx(0.05 * k, abs=1e-15)

    def test_samples_share_the_step_clusters(self):
        cs = ClusterSet([Cluster(-0.4, 1.0, 0.0), Cluster(0.4, 0.0, 1.0)])
        res = run(cs, KERNEL, params(chi1=1.0, chi2=1.0), T=0.5, dt_max=0.1)
        assert res.events == [] and len(res.samples) == 202
        for t, clusters, positions in res.samples:
            assert len(positions) == len(clusters) == 2
            assert positions[0] < positions[1]
        assert res.samples[-1][1] is res.final.clusters
        assert res.samples[-1][2] == [c.position for c in res.final.clusters]

    def test_run_counts_its_advances(self):
        cs = ClusterSet([Cluster(-0.4, 1.0, 0.0), Cluster(0.4, 0.0, 1.0)])
        res = run(cs, KERNEL, params(), T=0.05, dt_max=1e-2)
        assert res.n_advances == 5
        assert res.elapsed > 0.0

    def test_run_starts_from_the_set_it_is_given(self):
        # a set that advance returned keeps its step record: the run continues it
        cs = ClusterSet([Cluster(-0.4, 1.0, 0.0), Cluster(0.4, 0.0, 1.0)])
        nxt, _ = advance(cs, KERNEL, params(), 1e-2)
        res = run(nxt, KERNEL, params(), T=0.05, dt_max=1e-2, snapshot_times=(nxt.time, 0.05))
        assert res.snapshots[0][1] is nxt and nxt.dense is not None
        assert res.snapshots[1][1] is res.final

    # pairs that start inside gap_tol without closing: they are no contact
    # at a plain step's end, and the contacts that do follow change the
    # clusters (a merge or glue removes one)
    STEP_END_CONTACTS = {
        "separating_pair": (
            [(0.0, 0.33, 0.0), (1e-6, 0.0, 0.3), (0.01, 1.6, 2.3), (0.02, 2.3, 0.0)],
            1e-3,
            {"merge_same_species", "glue"},
        ),
        "cross_at_step_end": (
            [(0.0, 0.033, 0.0), (1e-6, 0.0, 0.03), (0.01, 0.16, 0.23), (0.02, 0.23, 0.0)],
            1e-3,
            {"merge_same_species", "glue"},
        ),
        "merge_at_step_end": (
            [(0.0, 0.01, 0.0), (0.01, 0.01, 0.0), (2.0, 0.0, 100.0)],
            0.05,
            {"merge_same_species", "glue"},
        ),
    }

    @pytest.mark.parametrize("name", sorted(STEP_END_CONTACTS))
    def test_contact_at_a_step_end_runs_through(self, name):
        config, gap_tol, kinds = self.STEP_END_CONTACTS[name]
        cs = ClusterSet([Cluster(*c) for c in config])
        p = params(chi1=3.0, chi2=4.0)
        masses = cs.total_masses()
        events = []
        for _ in range(2000):
            cs, evs = advance(cs, KERNEL, p, 1e-3, gap_tol)
            events.extend(evs)
            # the next step starts from the velocity of these clusters
            if cs.dense is not None and cs.dense.v_end is not None:
                np.testing.assert_allclose(cs.dense.v_end, reference_velocities(cs, p), rtol=1e-9)
            if len(cs) == 1:
                break
        assert len(cs) == 1
        assert {e.kind for e in events} == kinds
        assert cs.total_masses() == masses

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_step_end_contacts_do_not_depend_on_dt_max(self, scale):
        # a separating pair inside gap_tol is not a contact where dt_max
        # happens to end a step
        config, gap_tol, _ = self.STEP_END_CONTACTS["cross_at_step_end"]
        p = params(chi1=3.0, chi2=4.0)
        kinds = []
        for dt_max in (1e-2, 1e-3, 1e-4):
            cs = ClusterSet([Cluster(x, scale * a, scale * b) for x, a, b in config])
            res = run(cs, KERNEL, p, T=20.0, dt_max=dt_max, gap_tol=gap_tol)
            kinds.append([e.kind for e in res.events])
        assert kinds[0] == kinds[1] == kinds[2]
        assert "cross" not in kinds[0]

    def test_fast_contact_with_a_small_gap_tol(self):
        # the contact is committed past the root of gap - gap_tol, but
        # before the closing pair's gap reaches 0
        cs = ClusterSet([Cluster(0.0, 100.0, 0.0), Cluster(0.3, 100.0, 0.0), Cluster(0.7, 0.0, 100.0)])
        masses = cs.total_masses()
        res = run(cs, KERNEL, params(chi1=3.0, chi2=4.0), T=1.0, gap_tol=1e-12)
        assert [e.kind for e in res.events] == ["merge_same_species", "glue", "final_collapse"]
        assert res.final.total_masses() == masses

    def test_overflowing_trial_step_is_rejected(self):
        # a fast-closing cross-species pair under a huge dt_max: the first
        # trial's second stage carries the pair past each other by far more
        # than exp can take on the continued slope, so that trial (and the
        # next few) must be rejected like any other with a non-finite error
        cs = ClusterSet([Cluster(0.0, 1.0, 0.0), Cluster(1.0, 0.0, 1.0)])
        p = params()
        dt_max = 1e6
        v = reference_velocities(cs, p)
        assert dt_max / 5 * (v[0] - v[1]) > 1000.0
        out, _ = advance(cs, KERNEL, p, dt_max)
        assert all(math.isfinite(c.position) for c in out.clusters)
        assert out.dense.n_rejected >= 1
        assert out.total_masses() == cs.total_masses()

    def test_exact_snapshots(self):
        cs = ClusterSet([Cluster(-0.4, 1.0, 0.0), Cluster(0.4, 0.0, 1.0)])
        res = run(cs, KERNEL, params(chi1=1.0, chi2=1.0), T=0.5, snapshot_times=(0.1, 0.25, 0.5))
        assert [t for t, _ in res.snapshots] == [0.1, 0.25, 0.5]
        for t, snap in res.snapshots:
            assert snap.time == pytest.approx(t, abs=1e-9)
