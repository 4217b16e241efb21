"""The grid shared by the finite-volume and kinetic states, and the
successors that the solver steps build without the public constructors'
checks.

Each successor must equal, bit for bit, the state that the fully checking
public constructor builds from the same data.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from aggrekin import fv, kinetic, particles
from aggrekin.fv import GridState, cfl_dt, extract_peaks, make_flux, species_peaks
from aggrekin.kernel import exponential_kernel
from aggrekin.kinetic import KineticState, field_for
from aggrekin.lattice import GridCells, check_boundary
from aggrekin.measures import ModelParams
from aggrekin.particles import Cluster, ClusterSet

KERNEL = exponential_kernel()

cells = hs.lists(hs.one_of(hs.just(0.0), hs.floats(0.0, 5.0)), min_size=4, max_size=80)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def grid_and_kinetic(m1, m2):
    n = min(len(m1), len(m2))
    r1, r2 = np.array(m1[:n]), np.array(m2[:n])
    gst = GridState(-1.0, 2.0 / n, r1, r2)
    kst = KineticState(-1.0, 2.0 / n, r1, r2, np.zeros(n), np.zeros(n), 0.1)
    return gst, kst


def boundary_outcome(state, total):
    try:
        check_boundary(state, total)
    except RuntimeError as exc:
        return str(exc)
    return None


class TestOneGridType:
    def test_both_states_are_the_shared_grid(self):
        assert issubclass(GridState, GridCells) and issubclass(KineticState, GridCells)
        for name in ("n_cells", "centers", "total_masses", "species_pair", "window"):
            assert name not in vars(KineticState) and name not in vars(GridState)

    @settings(max_examples=150, deadline=None)
    @given(m1=cells, m2=cells)
    def test_kinetic_state_reads_like_the_grid_state(self, m1, m2):
        gst, kst = grid_and_kinetic(m1, m2)
        p = ModelParams(chi1=0.4, chi2=0.3)
        assert kst.window == gst.window
        assert kst._padded_window() == gst._padded_window()
        assert kst.total_masses() == gst.total_masses()
        assert same_bits(kst.centers, gst.centers)
        assert kst.weighted_center(p) == gst.weighted_center(p)
        for s in (1, 2):
            assert species_peaks(kst, s) == species_peaks(gst, s)
        assert extract_peaks(kst) == extract_peaks(gst)
        for total in (1.0, sum(gst.total_masses())):
            assert boundary_outcome(kst, total) == boundary_outcome(gst, total)

    def test_boundary_mass_is_reported_for_a_kinetic_state(self):
        gst, kst = grid_and_kinetic([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
        message = boundary_outcome(kst, 2.0)
        assert message is not None and "mass leak" in message
        assert message == boundary_outcome(gst, 2.0)


class TestStepSuccessors:
    @settings(max_examples=100, deadline=None)
    @given(
        m1=cells,
        m2=cells,
        chi1=hs.floats(0.1, 10.0),
        chi2=hs.floats(0.1, 10.0),
        theta2=hs.sampled_from([1.0, 0.5, 2.0]),
        frac=hs.floats(0.05, 0.99),
        n_steps=hs.integers(1, 5),
    )
    def test_fv_step_equals_its_checked_reconstruction(
        self, m1, m2, chi1, chi2, theta2, frac, n_steps
    ):
        st, _ = grid_and_kinetic(m1, m2)
        assume(sum(st.total_masses()) > 0)
        p = ModelParams(chi1=chi1, chi2=chi2, theta2=theta2)
        dt = frac * cfl_dt(st.dx, KERNEL, p, total_masses=st.total_masses())
        for _ in range(n_steps):
            nxt = fv.step(st, make_flux(st, KERNEL, p), dt)
            for quanta in ((nxt.q1, nxt.q2), ()):
                ref = GridState(nxt.xmin, nxt.dx, nxt.rho1, nxt.rho2, nxt.time, *quanta)
                assert type(nxt) is GridState
                assert same_bits(nxt.rho1, ref.rho1) and same_bits(nxt.rho2, ref.rho2)
                assert (nxt.q1, nxt.q2, nxt.time) == (ref.q1, ref.q2, ref.time)
                assert (nxt.xmin, nxt.dx) == (ref.xmin, ref.dx)
            assert nxt.time == st.time + dt
            st = nxt

    @settings(max_examples=100, deadline=None)
    @given(
        m1=cells,
        m2=cells,
        u=hs.floats(-1.0, 1.0),
        epsilon=hs.floats(1e-3, 10.0),
        c=hs.one_of(hs.just(1.0), hs.floats(0.2, 1.0)),
        n_steps=hs.integers(1, 5),
    )
    def test_kinetic_step_equals_its_checked_reconstruction(self, m1, m2, u, epsilon, c, n_steps):
        gst, _ = grid_and_kinetic(m1, m2)
        rho1, rho2 = gst.rho1, gst.rho2
        st = KineticState(gst.xmin, gst.dx, rho1, rho2, u * rho1, -u * rho2, epsilon)
        p = ModelParams(chi1=0.45, chi2=0.3)
        for _ in range(n_steps):
            nxt = kinetic.step(st, field_for(st, p), p, c * st.dx)
            for quanta in ((nxt.q1, nxt.q2), ()):
                ref = KineticState(
                    nxt.xmin, nxt.dx, nxt.rho1, nxt.rho2, nxt.J1, nxt.J2,
                    nxt.epsilon, nxt.time, *quanta,
                )
                assert type(nxt) is KineticState
                for name in ("rho1", "rho2", "J1", "J2"):
                    assert same_bits(getattr(nxt, name), getattr(ref, name)), name
                assert (nxt.q1, nxt.q2, nxt.time) == (ref.q1, ref.q2, ref.time)
                assert nxt.epsilon == ref.epsilon
            st = nxt

    @settings(max_examples=60, deadline=None)
    @given(
        data=hs.lists(
            hs.tuples(
                hs.floats(0.05, 0.4),
                hs.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),
                hs.floats(0.05, 4.0),
                hs.floats(0.05, 4.0),
            ),
            min_size=2,
            max_size=6,
        ),
        chi1=hs.floats(0.5, 10.0),
        chi2=hs.floats(0.5, 10.0),
        dt_max=hs.floats(1e-5, 1e-3),
    )
    def test_plain_particle_step_equals_its_checked_reconstruction(self, data, chi1, chi2, dt_max):
        x = -0.5
        clusters = []
        for gap, (s1, s2), ma, mb in data:
            x += gap
            clusters.append(Cluster(x, s1 * ma, s2 * mb))
        cs = ClusterSet(clusters)
        p = ModelParams(chi1=chi1, chi2=chi2)
        plain = 0
        for _ in range(10):
            nxt, events = particles.advance(cs, KERNEL, p, dt_max)
            if not events and len(cs) > 1:
                plain += 1
                copies = [Cluster(c.position, c.m1, c.m2, c.id) for c in nxt.clusters]
                ref = ClusterSet(copies, nxt.time, nxt.next_id)
                for a, b in zip(nxt.clusters, ref.clusters, strict=True):
                    assert same_bits([a.position, a.m1, a.m2], [b.position, b.m1, b.m2])
                    assert a.id == b.id
                assert (nxt.time, nxt.next_id) == (ref.time, ref.next_id)
                assert nxt.next_id == cs.next_id
                assert [c.id for c in nxt.clusters] == [c.id for c in cs.clusters]
            cs = nxt
        assume(plain > 0)

    def test_successor_does_not_share_a_cached_window(self):
        st = GridState(0.0, 0.1, [0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0])
        assert st.window == (1, 2)
        p = ModelParams(chi1=1.0, chi2=1.0)
        nxt = fv.step(st, fv.FluxField(np.full(5, 0.5), p.chi1, p.chi2), 0.1)
        assert nxt.window == (1, 3)


def test_kinetic_run_reports_its_wall_time():
    rho = np.zeros(40)
    rho[18:22] = 0.25
    st = KineticState(-1.0, 0.05, rho, rho[::-1].copy(), np.zeros(40), np.zeros(40), 0.1)
    res = kinetic.run(st, ModelParams(chi1=0.4, chi2=0.3), 0.2)
    assert res.n_steps == 4 and res.elapsed > 0.0


def test_grid_runs_reject_snapshot_times_outside_the_run():
    st = KineticState(-1.0, 0.05, np.ones(40), np.ones(40), np.zeros(40), np.zeros(40), 0.1)
    with pytest.raises(ValueError, match="snapshot times"):
        kinetic.run(st, ModelParams(chi1=0.4, chi2=0.3), 0.2, snapshot_times=(0.3,))
