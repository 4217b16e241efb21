import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from aggrekin.fv import GridState
from aggrekin.kernel import exponential_kernel
from aggrekin.kinetic import (
    ChemoField,
    KineticState,
    check_positivity_condition,
    field_for,
    limit_experiment,
    run,
    solve_chemo_field,
    step,
    well_prepared_state,
)
from aggrekin.measures import ModelParams, sample_gaussian_bumps

KERNEL = exponential_kernel()


def kinetic_params(chi1=0.4, chi2=0.4):
    return ModelParams(chi1=chi1, chi2=chi2)


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
        field = solve_chemo_field(rho1, np.zeros(n), dx, kinetic_params(), method="direct", centers=centers)
        x_src = centers[n // 2]
        expected = 0.5 * np.exp(-np.abs(centers - x_src))
        assert np.max(np.abs(field.S - expected)) <= 1e-14
        assert field.S[n // 2] == 0.5

    def test_zero_density_gives_zero_field(self):
        field = solve_chemo_field(np.zeros(64), np.zeros(64), 0.01, kinetic_params())
        assert np.all(field.S == 0.0)
        assert np.all(field.dS == 0.0)

    def test_symmetric_density_gives_odd_gradient(self):
        n = 101
        rho = np.exp(-np.linspace(-3, 3, n) ** 2)
        field = solve_chemo_field(rho, rho[::-1], 0.06, kinetic_params(), method="direct")
        assert np.max(np.abs(field.dS + field.dS[::-1])) <= 1e-14
        assert abs(field.dS[n // 2]) <= 1e-13

    def test_scan_and_direct_agree(self):
        rng = np.random.default_rng(0)
        n = 4000
        rho1 = rng.uniform(0, 1, n)
        rho2 = rng.uniform(0, 1, n)
        p = kinetic_params()
        fast = solve_chemo_field(rho1, rho2, 5e-4, p, method="scan")
        slow = solve_chemo_field(rho1, rho2, 5e-4, p, method="direct")
        assert np.max(np.abs(fast.S - slow.S)) <= 1e-12 * np.max(np.abs(slow.S))
        assert np.max(np.abs(fast.dS - slow.dS)) <= 1e-12 * np.max(np.abs(slow.dS))

    def test_gradient_bound(self):
        rng = np.random.default_rng(1)
        n = 512
        rho1 = rng.uniform(0, 1, n)
        rho2 = rng.uniform(0, 1, n)
        p = ModelParams(chi1=0.3, chi2=0.2, theta1=1.5, theta2=0.5)
        field = solve_chemo_field(rho1, rho2, 1e-3, p)
        bound = 0.5 * (p.theta1 * rho1.sum() + p.theta2 * rho2.sum())
        assert np.max(np.abs(field.dS)) <= bound * (1 + 1e-12)


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
        field = ChemoField(np.zeros(8), np.zeros(8))
        out = step(st, field, kinetic_params(), 0.1)
        assert np.all(out.rho1 == 0.0) and np.all(out.J1 == 0.0)

    def test_refuses_dt_above_dx(self):
        st = KineticState(0.0, 0.1, np.ones(8), np.ones(8), np.zeros(8), np.zeros(8), 0.5)
        field = ChemoField(np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError):
            step(st, field, kinetic_params(), 0.2)

    def test_relaxation_is_geometric_on_uniform_interior(self):
        n = 64
        dx = 0.1
        eps = 0.5
        dt = dx
        rho = np.full(n, 0.5)
        j0 = np.full(n, 0.1)
        st = KineticState(0.0, dx, rho, np.zeros(n), j0, np.zeros(n), eps)
        ds = np.full(n, 0.2)
        field = ChemoField(np.zeros(n), ds)
        p = kinetic_params(chi1=0.4)
        out = step(st, field, p, dt)
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
        field = ChemoField(np.zeros(n), ds)
        p = kinetic_params(chi1=0.4)
        out = step(st, field, p, dx)
        inner = slice(2, -2)
        assert np.max(np.abs(out.J1[inner] - p.chi1 * 0.3 * 0.5)) <= 1e-9

    def test_fractional_dt_upwind_transport(self):
        # dt < dx falls back to first-order upwind; conservation stays exact
        # huge epsilon: relaxation negligible, pure transport remains
        n = 32
        rho = np.zeros(n)
        rho[10:20] = 1.0
        st = KineticState(0.0, 0.1, rho, rho.copy(), 0.5 * rho, -0.5 * rho, 1e6)
        p = kinetic_params()
        field = ChemoField(np.zeros(n), np.zeros(n))
        m0 = left_to_right_sum(st.rho1)
        centroid0 = float(np.sum(st.centers * (st.rho1 + st.J1)))
        for _ in range(25):
            st = step(st, field, p, dt=0.04)
        assert left_to_right_sum(st.rho1) - m0 == 0.0
        assert np.all(np.abs(st.J1) <= st.rho1)
        assert np.all(st.rho1 >= 0.0)
        # the right-moving half of species 1 drifted right
        assert float(np.sum(st.centers * (st.rho1 + st.J1))) > centroid0

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
            field = field_for(st, p)
            st = step(st, field, p, st.dx)
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
            field = field_for(st, p)
            st = step(st, field, p, st.dx)
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
        kin = well_prepared_state(st0, p, epsilon=1e-6)
        field = field_for(kin, p)
        assert np.max(np.abs(p.chi1 * field.dS)) < 1.0
        new = step(kin, field, p, dt=dx)
        for chi, j, rho in ((p.chi1, new.J1, new.rho1), (p.chi2, new.J2, new.rho2)):
            target = chi * field.dS * rho
            err = np.max(np.abs(j - target)) / np.max(np.abs(target))
            assert err <= 1e-6


class TestRun:
    def test_identical_species_stay_identical(self):
        p = kinetic_params(0.4, 0.4)
        grid = (-2.0, 2.0, 2e-3)
        r = sample_gaussian_bumps([(1.0, 0.0)], grid, width=500.0)
        st0 = GridState(grid[0], grid[2], r.masses, r.masses)
        kin = well_prepared_state(st0, p, epsilon=0.2)
        res = run(kin, p, T=0.3)
        assert np.max(np.abs(res.final.rho1 - res.final.rho2)) <= 1e-10

    def test_snapshot_and_mass_diagnostics(self):
        p = kinetic_params(0.4, 0.3)
        grid = (-2.0, 2.0, 4e-3)
        r1 = sample_gaussian_bumps([(1.0, -0.4)], grid, width=200.0)
        r2 = sample_gaussian_bumps([(1.0, 0.4)], grid, width=200.0)
        st0 = GridState(grid[0], grid[2], r1.masses, r2.masses)
        kin = well_prepared_state(st0, p, epsilon=0.1)
        res = run(kin, p, T=0.2, snapshot_times=(0.0, 0.1, 0.2))
        assert len(res.snapshots) == 3
        assert res.diagnostics["mass1"][0] == res.diagnostics["mass1"][-1]

    def test_step_longer_than_horizon_is_rejected(self):
        # dt = dx = 4e-3 > T: the run would take no step and stay at t = 0
        p = kinetic_params(0.4, 0.3)
        grid = (-2.0, 2.0, 4e-3)
        r = sample_gaussian_bumps([(1.0, 0.0)], grid, width=200.0)
        kin = well_prepared_state(GridState(grid[0], grid[2], r.masses, r.masses), p, epsilon=0.1)
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
