"""The grid shared by the finite-volume and kinetic states, and the
successors that the solver steps build without the public constructors'
checks.

Each successor must equal, bit for bit, the state that the fully checking
public constructor builds from the same data.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as hs

from aggrekin import fv, kinetic, particles
from aggrekin.fv import GridState, cfl_dt, extract_peaks, make_flux, species_peaks
from aggrekin.kernel import exponential_kernel
from aggrekin.kinetic import KineticState, solve_chemo_field
from aggrekin.lattice import GridCells, check_boundary, mass_quantum, whole_quanta
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
        for name in ("n_cells", "centers", "total_masses", "window"):
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


def assert_row_views(block, row1, row2):
    """``row1`` and ``row2`` are the rows of ``block``, one C-contiguous (2, n) array."""
    assert block.shape == (2, row1.size) and block.flags.c_contiguous
    assert row1.base is block and row2.base is block
    assert same_bits(row1, block[0]) and same_bits(row2, block[1])


def assert_reads_like_its_rows(st, p):
    """The block-wide reductions give the 1-D computations on each row, bit for bit."""
    occupied = np.flatnonzero((st.rho1 + st.rho2) != 0)
    lo, hi = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (0, 0)
    assert st.window == (lo, hi)
    assert st.total_masses() == (float(np.sum(st.rho1)), float(np.sum(st.rho2)))
    x = st.centers[lo:hi]
    center = (p.theta1 / p.chi1) * float((x * st.rho1[lo:hi]).sum()) + (p.theta2 / p.chi2) * float(
        (x * st.rho2[lo:hi]).sum()
    )
    assert same_bits(st.weighted_center(p), center)


class TestOneBlockPerState:
    """Both species of a grid state live in one (2, n) array, and so do the
    kinetic fluxes; every successor keeps the views on its own block."""

    @settings(max_examples=100, deadline=None)
    @given(m1=cells, m2=cells, u=hs.floats(-1.0, 1.0), theta2=hs.sampled_from([1.0, 0.5, 2.0]))
    # a subnormal species total: the CFL step overflows, and there is no FV step
    @example(m1=[0.0] * 4, m2=[0.0, 0.0, 0.0, 1.1125369292536007e-308], u=0.0, theta2=0.5)
    def test_species_are_row_views_of_one_block(self, m1, m2, u, theta2):
        gst, _ = grid_and_kinetic(m1, m2)
        p = ModelParams(chi1=0.45, chi2=0.3, theta2=theta2)
        kst = KineticState(gst.xmin, gst.dx, gst.rho1, gst.rho2, u * gst.rho1, -u * gst.rho2, 0.1)
        states = [gst, kst]
        if sum(gst.total_masses()) > 0:
            try:
                dt = 0.5 * cfl_dt(gst.dx, KERNEL, p, total_masses=gst.total_masses())
            except ValueError as exc:
                # masses so small that the CFL step overflows have no step to take
                assert "not finite" in str(exc)
            else:
                states.append(fv.step(gst, make_flux(gst, KERNEL, p), dt))
        nxt = kinetic.step(kst, solve_chemo_field(kst, p, KERNEL, kst._padded_window()), p)
        for st in states + [nxt]:
            assert_row_views(st.rho, st.rho1, st.rho2)
            assert_reads_like_its_rows(st, p)
        for st in (kst, nxt):
            assert_row_views(st.J, st.J1, st.J2)
        # the successors own new blocks; the state they came from is untouched
        assert nxt.rho is not kst.rho and nxt.J is not kst.J
        assert same_bits(kst.rho1, gst.rho1) and same_bits(kst.rho2, gst.rho2)


def old_centers(xmin, dx, lo, hi):
    """The centres of cells [lo, hi) as every state computed them before
    they were cached per grid."""
    return xmin + (np.arange(lo, hi) + 0.5) * dx


grids = hs.tuples(
    hs.floats(-1e6, 1e6, allow_nan=False), hs.floats(1e-9, 1e3), hs.integers(1, 300)
)


def whole_quanta_1d(x, q):
    """One species' transfers rounded toward zero to whole quanta, as each
    species was rounded on its own before both went through at once."""
    if q > 0.0:
        inv = 1.0 / q
        x = np.trunc(x * inv if math.isfinite(inv) else x / q)
        x *= q
    return x


class TestWholeQuanta:
    """Every solver rounds a transfer to whole quanta through one helper,
    on a (2, w) block of both species with one quantum per row."""

    @pytest.mark.parametrize("total", [1e-300, 1.0, 1e300])
    def test_rounds_toward_zero_as_dividing_does(self, total):
        # 1e-300 has a subnormal quantum whose reciprocal overflows
        q = mass_quantum(total)
        x = np.random.default_rng(3).normal(size=(2, 400)) * (total / 50)
        assert same_bits(whole_quanta(x.copy(), (q, q)), np.trunc(x / q) * q)
        # on nonnegative transfers toward zero is down
        assert same_bits(whole_quanta(np.abs(x), (q, q)), np.floor(np.abs(x) / q) * q)

    @pytest.mark.parametrize("total", [1e-300, 1.0, 1e300])
    def test_rounds_up_as_dividing_does(self, total):
        # the finite-volume outflows: nonnegative, both directions stacked
        # in front of the species axis, rounded up
        q = mass_quantum(total)
        x = np.abs(np.random.default_rng(4).normal(size=(2, 2, 400))) * (total / 50)
        assert same_bits(whole_quanta(x.copy(), (q, 2 * q), np.ceil), np.ceil(x / [[q], [2 * q]]) * [[q], [2 * q]])

    def test_a_zero_quantum_leaves_the_transfers(self):
        x = np.array([[0.0, 0.0, -0.0], [-0.0, 0.0, 0.0]])
        assert same_bits(whole_quanta(x.copy(), (0.0, 0.0)), x)

    @pytest.mark.parametrize("other_total", [1e-300, 0.0], ids=["subnormal", "empty"])
    def test_each_row_is_the_one_species_rounding(self, other_total):
        # one normal quantum beside a subnormal one (divided) or beside an
        # empty species (q = 0, unchanged, and no 1/0 is computed), in
        # either row
        rng = np.random.default_rng(5)
        for q in ((1.0 / 1024, mass_quantum(other_total)), (mass_quantum(other_total), 1.0 / 1024)):
            # about a thousand quanta per transfer, or unit transfers for q = 0
            x = rng.normal(size=(2, 300)) * np.array([[qa * 1e3 if qa else 1.0] for qa in q])
            out = whole_quanta(x.copy(), q)
            for k in range(2):
                assert same_bits(out[k], whole_quanta_1d(x[k].copy(), q[k]))
            if 0.0 in q:
                assert same_bits(out[q.index(0.0)], x[q.index(0.0)])


class TestCellCentres:
    @settings(max_examples=200, deadline=None)
    @given(grid=grids, data=hs.data())
    def test_window_centres_are_the_formula_bit_for_bit(self, grid, data):
        xmin, dx, n = grid
        lo = data.draw(hs.integers(0, n - 1), label="lo")
        hi = data.draw(hs.integers(lo + 1, n), label="hi")
        r = np.zeros(n)
        r[lo] = r[hi - 1] = 1.0
        for st in (GridState(xmin, dx, r, np.zeros(n)), KineticState(xmin, dx, np.zeros(n), r, r * 0, r * 0, 0.1)):
            assert st.window == (lo, hi)
            assert same_bits(st.window_centers, old_centers(xmin, dx, lo, hi))
            assert same_bits(st.centers, old_centers(xmin, dx, 0, n))

    def test_cached_centres_are_read_only(self):
        st = GridState(-1.0, 0.01, np.ones(200), np.zeros(200))
        assert st.centers is GridState(-1.0, 0.01, np.zeros(200), np.ones(200)).centers
        for x in (st.centers, st.window_centers):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0.0
        assert same_bits(st.centers, old_centers(-1.0, 0.01, 0, 200))

    @settings(max_examples=200, deadline=None)
    @given(grid_a=grids, grid_b=grids)
    def test_two_grids_never_share_centres(self, grid_a, grid_b):
        # read alternately, so a shared cache entry would hand one grid the
        # other's centres
        states = [GridState(xmin, dx, np.ones(n), np.zeros(n)) for xmin, dx, n in (grid_a, grid_b)]
        for _ in range(2):
            for (xmin, dx, n), st in zip((grid_a, grid_b), states):
                assert same_bits(st.centers, old_centers(xmin, dx, 0, n))

    @pytest.mark.parametrize("xmin, other", [(0.0, -0.0), (1, 1.0), (np.float64(0.5), 0.5)])
    def test_equal_keys_give_equal_centres(self, xmin, other):
        # keys that compare equal share an entry, and their formulas agree
        for a in (xmin, other):
            assert same_bits(GridState(a, 0.25, np.ones(9), np.zeros(9)).centers, old_centers(a, 0.25, 0, 9))


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
        try:
            dt = frac * cfl_dt(st.dx, KERNEL, p, total_masses=st.total_masses())
        except ValueError as exc:
            # masses so small that the CFL step overflows have no step to take
            assert "not finite" in str(exc)
            reject()
        for _ in range(n_steps):
            nxt = fv.step(st, make_flux(st, KERNEL, p), dt)
            ref = GridState(nxt.xmin, nxt.dx, nxt.rho1, nxt.rho2, nxt.time)
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
        n_steps=hs.integers(1, 5),
    )
    def test_kinetic_step_equals_its_checked_reconstruction(self, m1, m2, u, epsilon, n_steps):
        gst, _ = grid_and_kinetic(m1, m2)
        rho1, rho2 = gst.rho1, gst.rho2
        st = KineticState(gst.xmin, gst.dx, rho1, rho2, u * rho1, -u * rho2, epsilon)
        p = ModelParams(chi1=0.45, chi2=0.3)
        for _ in range(n_steps):
            nxt = kinetic.step(st, solve_chemo_field(st, p, KERNEL, st._padded_window()), p)
            ref = KineticState(nxt.xmin, nxt.dx, nxt.rho1, nxt.rho2, nxt.J1, nxt.J2, nxt.epsilon, nxt.time)
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
        nxt = fv.step(st, fv.FluxField(p.chi1, p.chi2, (0, 3), np.full(3, 0.5), 0.5), 0.1)
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


def run_to(solver: str, T: float, snapshot_times, t0: float = 0.0):
    """A run of ``solver`` from ``t0`` to ``T`` from a small state holding
    both species."""
    p = ModelParams(chi1=0.4, chi2=0.3)
    rho = np.zeros(40)
    rho[18:22] = 0.25
    if solver == "particles":
        cs = ClusterSet([Cluster(-0.1, 1.0, 0.0), Cluster(0.1, 0.0, 1.0)], t0)
        return particles.run(cs, KERNEL, p, T, snapshot_times=snapshot_times)
    if solver == "fv":
        st = GridState(-1.0, 0.05, rho, rho[::-1].copy(), t0)
        return fv.run(st, KERNEL, p, T, snapshot_times=snapshot_times, track_peaks=False)
    st = KineticState(-1.0, 0.05, rho, rho[::-1].copy(), np.zeros(40), np.zeros(40), 0.1, t0)
    return kinetic.run(st, p, T, snapshot_times=snapshot_times)


@pytest.mark.parametrize("solver", ["fv", "kinetic"])
def test_grid_runs_from_a_later_start_end_at_an_absolute_T(solver):
    res = run_to(solver, 1.5, (1.0, 1.2, 1.5), t0=1.0)
    assert res.n_steps == math.floor(0.5 / res.dt + 1e-12) > 0
    # the run and each snapshot end at the last step boundary at or before
    # their time, up to the rounding of the summed step times
    assert 1.5 - res.dt < res.final.time <= 1.5 + 1e-12
    times = [snap[0] for snap in res.snapshots]
    assert times[0] == 1.0
    for t, got in zip((1.2, 1.5), times[1:]):
        assert t - res.dt < got <= t + 1e-12
    with pytest.raises(ValueError, match="precedes the initial time"):
        run_to(solver, 0.5, (), t0=1.0)
    with pytest.raises(ValueError, match=r"snapshot times must lie in \[0, T\]"):
        run_to(solver, 1.5, (0.2,), t0=1.0)


@pytest.mark.parametrize("solver", ["fv", "kinetic"])
@pytest.mark.parametrize("t0", [0.0, 1.0])
def test_a_snapshot_time_on_a_step_boundary_gets_that_boundary(solver, t0):
    # the summed step times land a few ulp past some boundaries; each
    # requested time's step is counted as the run's steps are
    dt = run_to(solver, t0 + 0.5, (), t0=t0).dt
    times = tuple(t0 + k * dt for k in range(1, 9))
    res = run_to(solver, times[-1], times, t0=t0)
    assert res.n_steps == 8
    for t, (got, _) in zip(times, res.snapshots):
        assert abs(got - t) <= 1e-12
    assert res.snapshots[-1][1] is res.final


def test_particle_run_refuses_a_T_before_its_start():
    with pytest.raises(ValueError, match="precedes the initial time"):
        run_to("particles", 0.5, (), t0=1.0)
    with pytest.raises(ValueError, match="T must be positive"):
        run_to("particles", 0.0, ())


@pytest.mark.parametrize("solver", ["fv", "kinetic", "particles"])
@pytest.mark.parametrize("times", [(math.nan, 0.1), (-0.1, 0.1), (0.1, 0.3)])
def test_runs_refuse_snapshot_times_outside_the_run(solver, times):
    with pytest.raises(ValueError, match=r"snapshot times must lie in \[0, T\]"):
        run_to(solver, 0.2, times)


@pytest.mark.parametrize("solver", ["fv", "kinetic", "particles"])
def test_runs_give_each_requested_time_its_own_snapshot(solver):
    res = run_to(solver, 0.2, (0.0, 0.0, 0.1, 0.1))
    assert len(res.snapshots) == 4
    assert res.snapshots[0][0] == res.snapshots[1][0] == 0.0
