import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from aggrekin import kinetic
from aggrekin.expconv import exp_potential_scan
from aggrekin.fv import FluxField, GridState, make_flux, run as fv_run
from aggrekin.kernel import exponential_kernel, regularize
from aggrekin.kinetic import (
    KineticState,
    check_positivity_condition,
    limit_experiment,
    run,
    solve_chemo_field,
    step,
    well_prepared_state,
)
from aggrekin.measures import ModelParams, sample_gaussian_bumps
from test_grid_state import same_bits, whole_quanta_1d
from oracle import direct_potential

KERNEL = exponential_kernel()


def kinetic_params(chi1=0.4, chi2=0.4):
    return ModelParams(chi1=chi1, chi2=chi2)


def given_flux(velocity, span, p):
    """The field a step reads, with a given velocity on the cells ``span``."""
    return FluxField(p.chi1, p.chi2, span, velocity)


def left_to_right_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


class TestSolveChemoField:
    def test_point_source_green_function(self):
        n = 201
        dx = 0.02
        xmin = -n * dx / 2
        rho1 = np.zeros(n)
        rho1[n // 2] = 1.0
        centers = xmin + (np.arange(n) + 0.5) * dx
        S, _ = direct_potential(centers, rho1, KERNEL)
        x_src = centers[n // 2]
        expected = 0.5 * np.exp(-np.abs(centers - x_src))
        assert np.max(np.abs(S - expected)) <= 1e-14
        assert S[n // 2] == 0.5
        # the field is scanned, and agrees with the sum as the sum agrees with the Green function
        field_S, _ = solve_chemo_field(GridState(xmin, dx, rho1, np.zeros(n)), kinetic_params(), KERNEL)
        assert np.max(np.abs(field_S - S)) <= 1e-14

    def test_zero_density_gives_zero_field(self):
        for n in (64, 600):
            S, dS = solve_chemo_field(GridState(0.0, 0.01, np.zeros(n), np.zeros(n)), kinetic_params(), KERNEL)
            assert np.all(S == 0.0)
            assert np.all(dS == 0.0)

    def test_symmetric_density_gives_odd_gradient(self):
        n = 101
        rho = np.exp(-np.linspace(-3, 3, n) ** 2)
        _, dS = direct_potential((np.arange(n) + 0.5) * 0.06, rho + rho[::-1], KERNEL)
        assert np.max(np.abs(dS + dS[::-1])) <= 1e-14
        assert abs(dS[n // 2]) <= 1e-13

    def test_scan_and_direct_agree(self):
        rng = np.random.default_rng(0)
        n = 4000
        w = rng.uniform(0, 1, n) + rng.uniform(0, 1, n)
        fast = exp_potential_scan(w, 5e-4)
        slow = direct_potential((np.arange(n) + 0.5) * 5e-4, w, KERNEL)
        for f, s in zip(fast, slow):
            assert np.max(np.abs(f - s)) <= 1e-12 * np.max(np.abs(s))

    def test_gradient_bound(self):
        rng = np.random.default_rng(1)
        n = 512
        st = GridState(-0.25, 1e-3, rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        p = ModelParams(chi1=0.3, chi2=0.2, theta1=1.5, theta2=0.5)
        _, dS = solve_chemo_field(st, p, KERNEL)
        bound = 0.5 * (p.theta1 * st.rho1.sum() + p.theta2 * st.rho2.sum())
        assert np.max(np.abs(dS)) <= bound * (1 + 1e-12)


class TestWellPreparedState:
    def test_initial_flux_reads_the_field_of_the_state_centres(self):
        # a grid below the scan threshold that does not start at x = 0: the
        # direct sum reads the cell centres, and the initial J must be
        # chi dS rho of the field every step reads, equal in every cell (the
        # state's flux bound may turn an empty cell's -0.0 into 0.0)
        p = kinetic_params(0.45, 0.3)
        grid = (-1.3, 1.7, 1e-2)
        r1 = sample_gaussian_bumps([(1.0, -0.3)], grid, width=50.0)
        r2 = sample_gaussian_bumps([(1.0, 0.4)], grid, width=50.0)
        kin = well_prepared_state(GridState(grid[0], grid[2], r1.masses, r2.masses), p, 0.1, KERNEL)
        assert kin.n_cells <= 512
        _, dS = solve_chemo_field(kin, p, KERNEL)
        assert np.array_equal(kin.J1, p.chi1 * dS * kin.rho1)
        assert np.array_equal(kin.J2, p.chi2 * dS * kin.rho2)


class TestPositivityCondition:
    def test_small_sensitivities_pass(self):
        assert check_positivity_condition(kinetic_params(0.4, 0.4))

    def test_example_parameters_fail(self):
        assert not check_positivity_condition(ModelParams(chi1=10.0, chi2=1.0))

    def test_boundary_is_excluded(self):
        assert not check_positivity_condition(ModelParams(chi1=0.5, chi2=0.1))


class TestKineticState:
    def test_flux_bound_enforced(self):
        with pytest.raises(ValueError):
            KineticState(0.0, 0.1, [1.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 0.0], 0.1)

    def test_flux_bound_scales_with_the_mass(self):
        # below unit mass the tolerance is relative too: a flux of 1e-10 on
        # cells of 1e-300 is refused, not clipped to the cell's mass
        rho = np.zeros(20)
        rho[8:12] = 1e-300
        j = np.zeros(20)
        j[9] = 1e-10
        with pytest.raises(ValueError, match="J1"):
            KineticState(0.0, 0.1, rho, rho, j, np.zeros(20), 0.1)

    def test_mass_quantization(self):
        st = KineticState(0.0, 0.1, [0.3, 0.4], [0.0, 0.0], [0.1, -0.1], [0.0, 0.0], 0.1)
        assert st.q1 > 0.0
        assert np.all(np.abs(np.round(st.rho1 / st.q1) * st.q1 - st.rho1) == 0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rho1", [math.nan, 1.0, 0.0, 0.0]),
            ("J1", [math.nan, 0.0, 0.0, 0.0]),
            ("rho1", [math.inf, 1.0, 0.0, 0.0]),
            ("dx", math.inf),
            ("xmin", math.nan),
            ("epsilon", math.inf),
        ],
    )
    def test_rejects_non_finite_input(self, field, value):
        args = dict(
            xmin=0.0, dx=0.1, rho1=[1.0, 1.0, 0.0, 0.0], rho2=[0.0, 1.0, 1.0, 0.0],
            J1=np.zeros(4), J2=np.zeros(4), epsilon=0.1,
        )
        args[field] = value
        with pytest.raises(ValueError, match=field):
            KineticState(**args)

    @settings(max_examples=200, deadline=None)
    @given(
        masses=hs.lists(hs.floats(0.0, 10.0), min_size=1, max_size=12),
        bad=hs.sampled_from([math.nan, math.inf, -math.inf]),
        name=hs.sampled_from(["rho1", "rho2", "J1", "J2", "xmin", "dx", "epsilon"]),
        where=hs.integers(0, 11),
    )
    # rho1's total is below 2^-1023 and keeps its mass, so J1 is no error and J2 is named
    @example(masses=[2.225073858507e-311], bad=math.nan, name="J2", where=0)
    def test_non_finite_field_is_named(self, masses, bad, name, where):
        rho = np.array(masses)
        args = dict(
            xmin=-1.0, dx=0.1, rho1=rho, rho2=rho[::-1].copy(),
            J1=0.5 * rho, J2=-0.5 * rho[::-1], epsilon=0.1,
        )
        if name in ("rho1", "rho2", "J1", "J2"):
            args[name][where % len(masses)] = bad
        else:
            args[name] = bad
        with pytest.raises(ValueError, match=name):
            KineticState(**args)


class TestStep:
    def test_zero_state_stays_zero(self):
        st = KineticState(0.0, 0.1, np.zeros(8), np.zeros(8), np.zeros(8), np.zeros(8), 0.5)
        a, b = st._padded_window()
        p = kinetic_params()
        out = step(st, given_flux(np.zeros(b - a), (a, b), p), p)
        assert np.all(out.rho1 == 0.0) and np.all(out.J1 == 0.0)

    def test_relaxation_is_geometric_on_uniform_interior(self):
        n = 64
        dx = 0.1
        eps = 0.5
        dt = dx
        rho = np.full(n, 0.5)
        j0 = np.full(n, 0.1)
        st = KineticState(0.0, dx, rho, np.zeros(n), j0, np.zeros(n), eps)
        ds = np.full(n, 0.2)
        p = kinetic_params(chi1=0.4)
        out = step(st, given_flux(ds, (0, n), p), p)
        beta = 2.0 * p.psi1 * dt / eps
        inner = slice(2, -2)
        target = p.chi1 * ds[inner] * rho[inner]
        expected = (j0[inner] + beta * target) / (1.0 + beta)
        assert np.max(np.abs(out.J1[inner] - expected)) <= 4 * st.q1

    def test_infinite_stiffness_projects_flux(self):
        n = 64
        dx = 0.1
        rho = np.full(n, 0.5)
        st = KineticState(0.0, dx, rho, np.zeros(n), np.zeros(n), np.zeros(n), 1e-12)
        ds = np.full(n, 0.3)
        p = kinetic_params(chi1=0.4)
        out = step(st, given_flux(ds, (0, n), p), p)
        inner = slice(2, -2)
        assert np.max(np.abs(out.J1[inner] - p.chi1 * 0.3 * 0.5)) <= 1e-9

    def test_exact_mass_conservation(self):
        rng = np.random.default_rng(4)
        n = 128
        rho1 = np.zeros(n)
        rho2 = np.zeros(n)
        rho1[20:-20] = rng.uniform(0, 1, n - 40)
        rho2[20:-20] = rng.uniform(0, 1, n - 40)
        j1 = rho1 * rng.uniform(-0.3, 0.3, n)
        j2 = rho2 * rng.uniform(-0.3, 0.3, n)
        st = KineticState(-2.0, 4.0 / n, rho1, rho2, j1, j2, 0.1)
        p = kinetic_params()
        m1 = left_to_right_sum(st.rho1)
        m2 = left_to_right_sum(st.rho2)
        for _ in range(60):
            st = step(st, make_flux(st, KERNEL, p), p)
        assert left_to_right_sum(st.rho1) - m1 == 0.0
        assert left_to_right_sum(st.rho2) - m2 == 0.0

    def test_flux_bound_preserved(self):
        rng = np.random.default_rng(5)
        n = 128
        rho1 = np.zeros(n)
        rho1[30:-30] = rng.uniform(0, 1, n - 60)
        rho1 /= rho1.sum()
        rho2 = rho1[::-1].copy()
        j1 = rho1 * rng.uniform(-1.0, 1.0, n)
        j2 = rho2 * rng.uniform(-1.0, 1.0, n)
        st = KineticState(-2.0, 4.0 / n, rho1, rho2, j1, j2, 0.05)
        p = kinetic_params(0.45, 0.3)
        assert check_positivity_condition(p)
        for _ in range(40):
            st = step(st, make_flux(st, KERNEL, p), p)
            assert np.all(np.abs(st.J1) <= st.rho1)
            assert np.all(np.abs(st.J2) <= st.rho2)

    def test_asymptotic_preserving_consistency(self):
        # one step at eps = 1e-6 lands the flux on chi dS rho to 1e-6 relative
        p = kinetic_params(0.45, 0.3)
        xmin, xmax, dx = -45.0, 45.0, 0.1
        width = 0.02
        r1 = sample_gaussian_bumps([(4.0, 0.0)], (xmin, xmax, dx), width=width)
        r2 = sample_gaussian_bumps([(4.0, 0.0)], (xmin, xmax, dx), width=width)
        st0 = GridState(xmin, dx, r1.masses, r2.masses)
        kin = well_prepared_state(st0, p, 1e-6, KERNEL)
        a, b = kin._padded_window()
        flux = make_flux(kin, KERNEL, p)
        assert np.max(np.abs(p.chi1 * flux.velocity)) < 1.0
        new = step(kin, flux, p)
        for chi, j, rho in ((p.chi1, new.J1[a:b], new.rho1[a:b]), (p.chi2, new.J2[a:b], new.rho2[a:b])):
            target = chi * flux.velocity * rho
            err = np.max(np.abs(j - target)) / np.max(np.abs(target))
            assert err <= 1e-6


def whole_grid_transport(rho, j, q):
    """The lattice shift of one species over every cell, outgoing mass
    retained in the cells at both grid ends."""
    if q == 0.0:
        return rho.copy(), j.copy()
    a = whole_quanta_1d((rho + j) * 0.5, q)
    a = np.minimum(np.maximum(a, 0.0), rho)
    b = rho - a
    a_new = np.empty_like(a)
    a_new[0] = 0.0
    a_new[1:] = a[:-1]
    a_new[-1] += a[-1]
    b_new = np.empty_like(b)
    b_new[-1] = 0.0
    b_new[:-1] = b[1:]
    b_new[0] += b[0]
    return a_new + b_new, a_new - b_new


def whole_grid_step(st, ds, p):
    """``step`` written out per species on all n cells, with the gradient
    ``ds`` given on every cell: rho1, J1, rho2, J2 of the successor."""
    out = []
    species = ((st.rho1, st.J1, st.q1, p.chi1, p.psi1), (st.rho2, st.J2, st.q2, p.chi2, p.psi2))
    for rho, j, q, chi, psi in species:
        rho_new, j_t = whole_grid_transport(rho, j, q)
        beta = 2.0 * psi * st.dx / st.epsilon
        target = (j_t + beta * chi * ds * rho_new) / (1.0 + beta)
        delta = whole_quanta_1d(0.5 * (target - j_t), q)
        out += [rho_new, np.clip(j_t + 2.0 * delta, -rho_new, rho_new)]
    return out


class TestWindowedStep:
    """The step works on the padded window for both species at once; every
    cell outside stays 0, so it equals the whole-grid step fed the same
    gradient on the window and zeros elsewhere."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=hs.data(),
        n=hs.integers(5, 60),
        place=hs.sampled_from(["mid", "left", "right", "whole"]),
        held=hs.sampled_from([(1, 2), (1,), (2,)]),
        scale=hs.sampled_from([1.0, 1e-300]),
        epsilon=hs.floats(1e-3, 10.0),
        u=hs.floats(-1.0, 1.0),
    )
    def test_equals_the_whole_grid_step(self, data, n, place, held, scale, epsilon, u):
        # place: a support strictly inside the grid, or touching cell 0,
        # cell n - 1 or both (the retention rule); held: the species with
        # mass (the other has q = 0); scale 1e-300: a subnormal quantum
        # that has no finite reciprocal
        width = n if place == "whole" else data.draw(hs.integers(1, n - 4), label="width")
        if place == "mid":
            lo = data.draw(hs.integers(2, n - 2 - width), label="lo")
        else:
            lo = n - width if place == "right" else 0
        rho = np.zeros((2, n))
        for sp in held:
            masses = data.draw(hs.lists(hs.floats(0.0, 5.0), min_size=width, max_size=width), label="masses")
            rho[sp - 1, lo : lo + width] = np.array(masses) * scale
            rho[sp - 1, lo] = rho[sp - 1, lo + width - 1] = 0.7 * scale
        st = KineticState(-1.0, 2.0 / n, rho[0], rho[1], u * rho[0], -0.5 * u * rho[1], epsilon)
        assert 0.0 in (st.q1, st.q2) or len(held) == 2
        assert (scale < 1.0) == math.isinf(1.0 / max(st.q1, st.q2))
        a, b = st._padded_window()
        assert (a == 0, b == n) == (place in ("left", "whole"), place in ("right", "whole"))
        ds = np.array(data.draw(hs.lists(hs.floats(-3.0, 3.0), min_size=b - a, max_size=b - a), label="ds"))
        p = ModelParams(chi1=0.45, chi2=0.3, psi2=0.5)
        nxt = step(st, given_flux(ds, (a, b), p), p)
        ds_grid = np.zeros(n)
        ds_grid[a:b] = ds
        ref = whole_grid_step(st, ds_grid, p)
        for name, want in zip(("rho1", "J1", "rho2", "J2"), ref):
            assert same_bits(getattr(nxt, name), want), name
        lo_new, hi_new = nxt.window
        assert a <= lo_new and hi_new <= b
        assert nxt.window == KineticState(nxt.xmin, nxt.dx, nxt.rho1, nxt.rho2, nxt.J1, nxt.J2, epsilon).window

    def test_refuses_a_field_of_another_span(self):
        rho = np.zeros(40)
        rho[10:20] = 0.1
        st = KineticState(-1.0, 0.05, rho, rho, np.zeros(40), np.zeros(40), 0.1)
        p = kinetic_params()
        for span in ((0, 40), (8, 21), (9, 22)):
            with pytest.raises(ValueError, match=r"spans cells .*\(9, 21\)"):
                step(st, given_flux(np.zeros(span[1] - span[0]), span, p), p)
        assert step(st, make_flux(st, KERNEL, p), p).window == (9, 21)

    @pytest.mark.parametrize(
        "kernel, masses",
        [
            pytest.param(KERNEL, "bumps", id="exponential"),
            pytest.param(regularize(KERNEL, 20), "bumps", id="regularized"),
            # K_1's stencil reaches 101 cells each way, past the 47-cell window
            pytest.param(regularize(KERNEL, 1), "narrow", id="stencil-wider-than-window"),
            pytest.param(regularize(KERNEL, 20), "one-cell", id="one-occupied-cell"),
            # 1/25 = 4 dx
            pytest.param(regularize(KERNEL, 25), "bumps", id="inv-n-whole-cells"),
        ],
    )
    def test_window_field_is_the_whole_grid_sum(self, kernel, masses):
        # the window's velocity against the direct sum over every cell of the grid
        grid = (-2.0, 2.0, 1e-2)
        if masses == "bumps":
            r1 = sample_gaussian_bumps([(1.0, -0.4)], grid, width=50.0).masses
            r2 = sample_gaussian_bumps([(1.0, 0.4)], grid, width=50.0).masses
        else:
            r1, r2 = np.zeros(400), np.zeros(400)
            r1[200] = 1.0
            if masses == "narrow":
                r1[175:195] = np.random.default_rng(3).uniform(0.0, 0.1, 20)
                r2[200:220] = 0.05
        st = GridState(grid[0], grid[2], r1, r2)
        p = kinetic_params(0.45, 0.3)
        a, b = st._padded_window()
        assert b - a < st.n_cells
        flux = make_flux(st, kernel, p)
        _, ds = direct_potential(st.centers, p.theta1 * st.rho1 + p.theta2 * st.rho2, kernel)
        assert flux.span == (a, b)
        assert np.max(np.abs(flux.velocity - ds[a:b])) <= 1e-12 * np.max(np.abs(ds))


def whole_grid_run(initial, p, kernel, n_steps):
    """``run`` written out on the whole grid: each state's ``make_flux``
    velocity on its padded window, the whole-grid step fed that gradient (zeros
    elsewhere), and every state rebuilt through the public constructor.
    Returns the states of all n_steps + 1 steps."""
    states = [initial]
    for _ in range(n_steps):
        st = states[-1]
        a, b = st._padded_window()
        ds = np.zeros(st.n_cells)
        ds[a:b] = make_flux(st, kernel, p).velocity
        rho1, j1, rho2, j2 = whole_grid_step(st, ds, p)
        states.append(KineticState(st.xmin, st.dx, rho1, rho2, j1, j2, st.epsilon, time=st.time + st.dx))
    return states


class TestRunMatchesWholeGridRun:
    """Each step hands its window blocks and window to the next; across
    250 steps the run equals the whole-grid loop bit for bit."""

    @pytest.mark.parametrize(
        "kernel",
        [pytest.param(KERNEL, id="exponential"), pytest.param(regularize(KERNEL, 20), id="regularized")],
    )
    def test_limit_data_at_the_smallest_epsilon(self, kernel):
        # the relaxation-limit sweep's data (2,000 cells of 2e-3) at eps 0.02
        grid = (-2.0, 2.0, 2e-3)
        r1 = sample_gaussian_bumps([(1.0, -0.4)], grid, width=200.0)
        r2 = sample_gaussian_bumps([(1.0, 0.4)], grid, width=200.0)
        p = kinetic_params(0.45, 0.3)
        kin = well_prepared_state(GridState(grid[0], grid[2], r1.masses, r2.masses), p, 0.02, kernel)
        every = tuple(k * grid[2] for k in range(0, 251, 50))
        res = run(kin, p, T=0.5, kernel=kernel, snapshot_times=every)
        ref = whole_grid_run(kin, p, kernel, 250)
        assert res.n_steps == 250
        assert res.snapshots[-1][1] is res.final
        for (t, got), want in zip(res.snapshots, ref[::50], strict=True):
            assert t == want.time
            assert same_bits(got.rho, want.rho) and same_bits(got.J, want.J)
            assert got.window == want.window
        assert ref[-1].window[1] - ref[-1].window[0] < kin.n_cells


class TestRun:
    def test_identical_species_stay_identical(self):
        p = kinetic_params(0.4, 0.4)
        grid = (-2.0, 2.0, 2e-3)
        r = sample_gaussian_bumps([(1.0, 0.0)], grid, width=500.0)
        st0 = GridState(grid[0], grid[2], r.masses, r.masses)
        kin = well_prepared_state(st0, p, 0.2, KERNEL)
        res = run(kin, p, T=0.3)
        assert np.max(np.abs(res.final.rho1 - res.final.rho2)) <= 1e-10

    def test_snapshot_and_mass_diagnostics(self):
        p = kinetic_params(0.4, 0.3)
        grid = (-2.0, 2.0, 4e-3)
        r1 = sample_gaussian_bumps([(1.0, -0.4)], grid, width=200.0)
        r2 = sample_gaussian_bumps([(1.0, 0.4)], grid, width=200.0)
        st0 = GridState(grid[0], grid[2], r1.masses, r2.masses)
        kin = well_prepared_state(st0, p, 0.1, KERNEL)
        res = run(kin, p, T=0.2, snapshot_times=(0.0, 0.1, 0.2))
        assert len(res.snapshots) == 3
        assert res.final.total_masses() == kin.total_masses()

    def test_default_snapshot_times_fall_on_their_step_boundaries(self):
        # 0.04, ..., 0.2 are step boundaries of dt = 4e-3, which the summed
        # step times pass by a few ulp
        p = kinetic_params(0.45, 0.3)
        grid = (-2.0, 2.0, 4e-3)
        r1 = sample_gaussian_bumps([(1.0, -0.4)], grid, width=200.0)
        r2 = sample_gaussian_bumps([(1.0, 0.4)], grid, width=200.0)
        kin = well_prepared_state(GridState(grid[0], grid[2], r1.masses, r2.masses), p, 0.1, KERNEL)
        times = (0.0, 0.04, 0.08, 0.12, 0.16, 0.2)
        res = run(kin, p, T=0.2, snapshot_times=times)
        assert [round(t, 9) for t, _ in res.snapshots] == list(times)
        assert res.snapshots[-1][1] is res.final

    def test_solves_no_potential(self, monkeypatch):
        # every step reads the make_flux velocity; S is solved only for
        # well-prepared data and the snapshot files, outside the run
        p = kinetic_params(0.45, 0.3)
        grid = (-2.0, 2.0, 4e-3)
        r1 = sample_gaussian_bumps([(1.0, -0.4)], grid, width=200.0)
        r2 = sample_gaussian_bumps([(1.0, 0.4)], grid, width=200.0)
        kin = well_prepared_state(GridState(grid[0], grid[2], r1.masses, r2.masses), p, 0.1, KERNEL)
        calls = []

        def counted(*args):
            calls.append(args)
            return exp_potential_scan(*args)

        monkeypatch.setattr(kinetic, "exp_potential_scan", counted)
        res = run(kin, p, T=0.2, snapshot_times=(0.0, 0.1, 0.2))
        assert res.n_steps == 50
        assert calls == []

    def test_reads_no_max_speed(self, monkeypatch):
        # the kinetic step moves at unit speeds and never computes max|a_hat|;
        # only the FV step's CFL check and its diagnostics read it
        p = kinetic_params(0.45, 0.3)
        grid = (-2.0, 2.0, 4e-3)
        r1 = sample_gaussian_bumps([(1.0, -0.4)], grid, width=200.0)
        r2 = sample_gaussian_bumps([(1.0, 0.4)], grid, width=200.0)
        st0 = GridState(grid[0], grid[2], r1.masses, r2.masses)
        kin = well_prepared_state(st0, p, 0.1, KERNEL)

        def refused(flux):
            raise AssertionError("FluxField.amax read")

        monkeypatch.setattr(FluxField, "amax", property(refused))
        assert run(kin, p, T=0.2).n_steps == 50
        with pytest.raises(AssertionError, match="amax read"):
            fv_run(st0, KERNEL, p, T=0.2)

    def test_step_longer_than_horizon_is_rejected(self):
        # dt = dx = 4e-3 > T: the run would take no step and stay at t = 0
        p = kinetic_params(0.4, 0.3)
        grid = (-2.0, 2.0, 4e-3)
        r = sample_gaussian_bumps([(1.0, 0.0)], grid, width=200.0)
        kin = well_prepared_state(GridState(grid[0], grid[2], r.masses, r.masses), p, 0.1, KERNEL)
        with pytest.raises(ValueError, match=r"dt = 0\.004 .* T = 0\.001"):
            run(kin, p, T=1e-3)


class TestLimitExperiment:
    def test_distances_decrease_with_epsilon(self):
        p = kinetic_params(0.45, 0.3)
        grid = (-2.0, 2.0, 2e-3)
        r1 = sample_gaussian_bumps([(1.0, -0.4)], grid, width=500.0)
        r2 = sample_gaussian_bumps([(1.0, 0.4)], grid, width=500.0)
        st0 = GridState(grid[0], grid[2], r1.masses, r2.masses)
        rows = limit_experiment(st0, p, [0.5, 0.1, 0.02], T=0.5)
        d1 = [r[1] for r in rows]
        d2 = [r[2] for r in rows]
        assert d1[0] > d1[1] > d1[2]
        assert d2[0] > d2[1] > d2[2]

    def test_zero_horizon_gives_zero_distance(self):
        p = kinetic_params(0.45, 0.3)
        grid = (-1.0, 1.0, 4e-3)
        r1 = sample_gaussian_bumps([(1.0, 0.0)], grid, width=200.0)
        st0 = GridState(grid[0], grid[2], r1.masses, r1.masses)
        rows = limit_experiment(st0, p, [0.5, 0.1], T=0.0)
        for _, d1, d2 in rows:
            assert d1 <= 1e-12 and d2 <= 1e-12

    def test_rejects_bad_inputs(self):
        grid = (-1.0, 1.0, 4e-3)
        r1 = sample_gaussian_bumps([(1.0, 0.0)], grid, width=200.0)
        st0 = GridState(grid[0], grid[2], r1.masses, r1.masses)
        with pytest.raises(ValueError):
            limit_experiment(st0, ModelParams(chi1=10.0, chi2=1.0), [0.5, 0.1], T=0.1)
        with pytest.raises(ValueError):
            limit_experiment(st0, kinetic_params(), [0.1, 0.5], T=0.1)
        # an empty sweep has no row to write
        with pytest.raises(ValueError, match="non-empty"):
            limit_experiment(st0, kinetic_params(), [], T=0.1)
