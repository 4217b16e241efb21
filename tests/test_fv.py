import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from aggrekin.fv import (
    GridState,
    cfl_dt,
    extract_peaks,
    make_flux,
    mass_quantum,
    run,
    species_peaks,
    step,
)
from aggrekin.expconv import exp_potential_scan, exp_velocity_scan
from aggrekin.kernel import exponential_kernel, regularize
from aggrekin.kinetic import solve_chemo_field
from aggrekin.measures import ModelParams, bump_mass_unit, sample_gaussian_bumps
from oracle import direct_potential, direct_velocity

getcontext().prec = 50

KERNEL = exponential_kernel()


def unit_params(chi1=1.0, chi2=1.0):
    return ModelParams(chi1=chi1, chi2=chi2)


def random_state(rng, n=64, width=4.0, pad=8):
    rho1 = np.zeros(n)
    rho2 = np.zeros(n)
    rho1[pad:-pad] = rng.uniform(0, 1, n - 2 * pad)
    rho2[pad:-pad] = rng.uniform(0, 0.5, n - 2 * pad)
    return GridState(-width / 2, width / n, rho1, rho2)


def left_to_right_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


class TestGridState:
    def test_rejects_negative_cells(self):
        with pytest.raises(ValueError):
            GridState(0.0, 0.1, [1.0, -0.1], [0.0, 0.0])

    def test_quantization_snaps_cells(self):
        st = GridState(0.0, 0.1, [0.3, 0.4], [0.0, 0.0])
        q = st.q1
        assert q == mass_quantum(0.7)
        assert np.all(np.abs(np.round(st.rho1 / q) * q - st.rho1) == 0.0)

    def test_centers(self):
        st = GridState(-1.0, 0.5, [1.0, 1.0, 1.0, 1.0], [0.0] * 4)
        assert np.allclose(st.centers, [-0.75, -0.25, 0.25, 0.75])

    @pytest.mark.parametrize(
        "args, name",
        [
            ((0.0, 0.1, [math.nan, 1.0], [0.0, 1.0]), "rho1"),
            ((0.0, 0.1, [0.0, 1.0], [1.0, math.inf]), "rho2"),
            ((0.0, 0.1, [1e308, 1e308], [0.0, 1.0]), "rho1"),
            ((0.0, math.inf, [1.0, 1.0], [0.0, 1.0]), "dx"),
            ((math.nan, 0.1, [1.0, 1.0], [0.0, 1.0]), "xmin"),
        ],
    )
    def test_rejects_non_finite_input(self, args, name):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=name):
            GridState(*args)

    @settings(max_examples=200, deadline=None)
    @given(
        masses=hs.lists(hs.floats(0.0, 10.0), min_size=1, max_size=12),
        bad=hs.sampled_from([math.nan, math.inf, -math.inf]),
        name=hs.sampled_from(["rho1", "rho2", "xmin", "dx"]),
        where=hs.integers(0, 11),
    )
    def test_non_finite_field_is_named(self, masses, bad, name, where):
        args = {"xmin": -1.0, "dx": 0.1, "rho1": np.array(masses), "rho2": np.array(masses[::-1])}
        if name in ("rho1", "rho2"):
            args[name][where % len(masses)] = bad
        else:
            args[name] = bad
        with pytest.raises(ValueError, match=name):
            GridState(**args)


class TestAssembleVelocity:
    """The velocity a_hat: the expconv references and the field of make_flux."""

    def test_single_occupied_cell_is_stationary(self):
        rho1 = np.zeros(11)
        rho1[5] = 2.0
        st = GridState(-1.0, 2.0 / 11, rho1, np.zeros(11))
        a = direct_velocity(st.centers, st.rho1 + st.rho2, KERNEL)
        assert a[5] == 0.0
        assert make_flux(st, KERNEL, unit_params()).velocity[1] == 0.0

    def test_two_cell_pull_high_precision(self):
        st = GridState(-1.0, 1.0, [1.0, 1.0], [0.0, 0.0])
        a = direct_velocity(st.centers, st.rho1 + st.rho2, KERNEL)
        expected = Decimal("0.5") / Decimal(1).exp()
        assert abs(Decimal(a[0]) - expected) < Decimal("1e-16")
        assert a[1] == -a[0]

    def test_mirror_symmetric_state_gives_odd_velocity(self):
        rng = np.random.default_rng(2)
        half = rng.uniform(0, 1, 16)
        rho1 = np.concatenate([half, half[::-1]])
        st = GridState(-1.0, 2.0 / 32, rho1, np.zeros(32))
        a = direct_velocity(st.centers, st.rho1 + st.rho2, KERNEL)
        assert np.max(np.abs(a + a[::-1])) <= 1e-15

    def test_scan_agrees_with_direct_on_states(self):
        rng = np.random.default_rng(7)
        st = random_state(rng, n=2048)
        w = st.rho1 + st.rho2
        fast = exp_velocity_scan(w, st.dx)
        slow = direct_velocity(st.centers, w, KERNEL)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))

    def test_scan_refused_for_non_exponential_kernel(self):
        # every kernel is scanned, at every grid size: the exponential kernel's
        # field is the scan itself, the regularized one's adds its stencil
        # and holds the direct sum to 1e-12
        p = unit_params()
        reg = regularize(KERNEL, 2)
        for n in (17, 64, 600):
            st = random_state(np.random.default_rng(n), n=n, pad=3)
            a, b = st._padded_window()
            w = st.rho1 + st.rho2
            scan = exp_velocity_scan(w[a:b], st.dx)
            assert make_flux(st, KERNEL, p).velocity.tobytes() == scan.tobytes()
            direct = direct_velocity(st.centers[a:b], w[a:b], reg)
            v = make_flux(st, reg, p).velocity
            assert np.max(np.abs(v - direct)) <= 1e-12 * np.max(np.abs(direct))
            s, ds = exp_potential_scan(w, st.dx)
            S, dS = solve_chemo_field(st, p, KERNEL)
            assert S.tobytes() == s.tobytes() and dS.tobytes() == ds.tobytes()
            for got, want in zip(solve_chemo_field(st, p, reg), direct_potential(st.centers, w, reg)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_theta_weights_enter_the_sum(self):
        st = GridState(-1.0, 1.0, [1.0, 0.0], [0.0, 1.0])
        p = ModelParams(chi1=1.0, chi2=1.0, theta1=1.0, theta2=3.0)
        a = make_flux(st, KERNEL, p).velocity
        # left cell is pulled by theta2 * rho2 at the right cell
        assert a[0] == pytest.approx(3.0 * 0.5 * math.exp(-1.0), rel=1e-14)


class TestCflDt:
    def test_reference_value(self):
        dt = cfl_dt(1e-3, KERNEL, unit_params(), safety=0.9)
        assert dt == pytest.approx(0.9e-3, rel=1e-14)

    def test_never_reaches_bound(self):
        for safety in (0.5, 0.9, 0.999999):
            dt = cfl_dt(1e-3, KERNEL, unit_params(), safety=safety)
            assert dt < 1e-3

    def test_doubling_theta_halves_dt(self):
        p1 = unit_params()
        p2 = ModelParams(chi1=1.0, chi2=1.0, theta1=2.0, theta2=2.0)
        assert cfl_dt(1e-3, KERNEL, p2) == pytest.approx(cfl_dt(1e-3, KERNEL, p1) / 2, rel=1e-14)

    def test_fast_species_tightens_dt(self):
        assert cfl_dt(1e-3, KERNEL, unit_params(chi1=10.0)) == pytest.approx(
            cfl_dt(1e-3, KERNEL, unit_params()) / 10.0, rel=1e-14
        )

    def test_rejects_bad_safety(self):
        with pytest.raises(ValueError):
            cfl_dt(1e-3, KERNEL, unit_params(), safety=1.0)

    def test_overflowing_step_is_rejected(self):
        # 2^-1023 is the smallest mass whose quantum is not 0; chi = 0.1 makes
        # the velocity bound subnormal and dx over it overflows to inf
        rho2 = np.zeros(8)
        rho2[4] = 2.0**-1023
        st = GridState(-1.0, 0.5, np.zeros(8), rho2)
        p = unit_params(chi1=0.1, chi2=0.1)
        assert st.total_masses() == (0.0, 2.0**-1023)
        with pytest.raises(ValueError, match="CFL step is not finite"):
            cfl_dt(st.dx, KERNEL, p, total_masses=st.total_masses())
        # the run used to take floor(T / inf) = 0 steps and return t = 0
        with pytest.raises(ValueError, match="CFL step is not finite"):
            run(st, KERNEL, p, 1.0)


class TestStep:
    def test_single_cell_state_unchanged(self):
        rho1 = np.zeros(9)
        rho1[4] = 1.0
        st = GridState(-1.0, 2.0 / 9, rho1, np.zeros(9))
        p = unit_params()
        flux = make_flux(st, KERNEL, p)
        new = step(st, flux, 0.1)
        assert np.array_equal(new.rho1, st.rho1)
        assert np.array_equal(new.rho2, st.rho2)

    def test_symmetric_pair_moves_inward(self):
        # 4-cell stencil: mass at the outer cells drifts one cell inward
        st = GridState(-2.0, 1.0, [1.0, 0.0, 0.0, 1.0], [0.0] * 4)
        p = unit_params()
        dt = 0.5
        transfer = 0.5 * 0.5 * math.exp(-3.0)  # dt * K'(3) * mass
        new = step(st, make_flux(st, KERNEL, p), dt)
        assert new.rho1[1] == pytest.approx(transfer, rel=1e-12)
        assert new.rho1[2] == pytest.approx(transfer, rel=1e-12)
        assert new.rho1[0] == pytest.approx(1.0 - transfer, rel=1e-12)
        assert np.array_equal(new.rho1, new.rho1[::-1])
        assert new.weighted_center(p) == pytest.approx(st.weighted_center(p), abs=1e-15)

    def test_refuses_cfl_violation(self):
        st = GridState(-2.0, 1.0, [1.0, 0.0, 0.0, 1.0], [0.0] * 4)
        p = unit_params(chi1=100.0)
        flux = make_flux(st, KERNEL, p)
        with pytest.raises(ValueError):
            step(st, flux, 1.0)

    def test_exact_conservation_and_positivity_on_random_states(self):
        rng = np.random.default_rng(31)
        p = unit_params(chi1=4.0, chi2=0.7)
        for _ in range(10):
            st = random_state(rng)
            m1, m2 = left_to_right_sum(st.rho1), left_to_right_sum(st.rho2)
            wc = st.weighted_center(p)
            dt = cfl_dt(st.dx, KERNEL, p, 0.9, st.total_masses())
            for _ in range(50):
                st = step(st, make_flux(st, KERNEL, p), dt)
                assert np.min(st.rho1) >= 0.0 and np.min(st.rho2) >= 0.0
                assert abs(st.weighted_center(p) - wc) <= 1e-10 * 4.0
                wc = st.weighted_center(p)
            assert left_to_right_sum(st.rho1) - m1 == 0.0
            assert left_to_right_sum(st.rho2) - m2 == 0.0
            assert math.fsum(st.rho1) - math.fsum(st.rho1) == 0.0


class TestRun:
    def test_zero_horizon_echoes_initial(self):
        st = GridState(-3.0, 1.0, [0.0, 1.0, 0.0, 0.0, 1.0, 0.0], [0.0] * 6)
        res = run(st, KERNEL, unit_params(), T=0.0, snapshot_times=(0.0,))
        assert res.n_steps == 0
        assert np.array_equal(res.final.rho1, st.rho1)
        assert len(res.snapshots) == 1

    def test_step_longer_than_horizon_is_rejected(self):
        # 1e-300 of species 1 under chi1 = 10: the CFL step is ~9e297, far
        # past T, so the run would take no step and stay at t = 0
        rho1 = np.zeros(40)
        rho1[20] = 1e-300
        st = GridState(-1.0, 2.0 / 40, rho1, np.zeros(40))
        with pytest.raises(ValueError, match=r"dt = .* T = 1\.0"):
            run(st, KERNEL, unit_params(chi1=10.0), T=1.0)

    def test_diagnostics_row_count(self):
        rng = np.random.default_rng(3)
        st = random_state(rng, n=32)
        res = run(st, KERNEL, unit_params(), T=0.05, track_peaks=False)
        assert len(res.diagnostics["t"]) == res.n_steps + 1

    def test_snapshot_times_round_down_to_step_boundary(self):
        rng = np.random.default_rng(4)
        st = random_state(rng, n=32)
        res = run(st, KERNEL, unit_params(), T=0.1, snapshot_times=(0.03, 0.1), track_peaks=False)
        assert len(res.snapshots) == 2
        for requested, (actual, _) in zip((0.03, 0.1), res.snapshots):
            assert actual <= requested + 1e-12
            assert requested - actual < res.dt

    def test_velocity_bound_holds_throughout(self):
        rng = np.random.default_rng(5)
        st = random_state(rng, n=48)
        p = unit_params(chi1=2.0, chi2=0.3)
        m1, m2 = st.total_masses()
        res = run(st, KERNEL, p, T=0.2, track_peaks=False)
        bound = KERNEL.lipschitz * (p.theta1 * m1 + p.theta2 * m2)
        assert np.max(res.diagnostics["max_velocity"]) <= bound * (1 + 1e-12)

    def test_boundary_leak_aborts(self):
        # mass sitting in an outermost cell trips the leak monitor
        rho1 = np.zeros(16)
        rho1[0] = 1e-6
        rho1[8] = 1.0
        st = GridState(-1.0, 2.0 / 16, rho1, np.zeros(16))
        with pytest.raises(RuntimeError, match="mass leak"):
            run(st, KERNEL, unit_params(), T=0.1, track_peaks=False)


class TestExtractPeaks:
    def test_single_column(self):
        rho1 = np.zeros(21)
        rho1[10] = 3.0
        st = GridState(-1.0, 2.0 / 21, rho1, np.zeros(21))
        peaks = extract_peaks(st)
        assert len(peaks) == 1
        assert peaks[0].mass1 == pytest.approx(3.0)
        assert peaks[0].position == pytest.approx(st.centers[10])

    def test_example_initial_bumps(self):
        m0 = bump_mass_unit()
        grid = (-2.0, 2.0, 5e-4)
        r1 = sample_gaussian_bumps([(4.0, -0.5), (2.0, 0.5)], grid)
        r2 = sample_gaussian_bumps([(2.0, -0.15)], grid)
        st = GridState(-2.0, 5e-4, r1.masses, r2.masses)
        peaks = extract_peaks(st)
        assert [round(q.position, 2) for q in peaks] == [-0.5, -0.15, 0.5]
        expected = [(4.0, 0.0), (0.0, 2.0), (2.0, 0.0)]
        for peak, (m1, m2) in zip(peaks, expected):
            assert peak.mass1 == pytest.approx(m1 * m0, rel=0.01, abs=1e-12)
            assert peak.mass2 == pytest.approx(m2 * m0, rel=0.01, abs=1e-12)

    def test_threshold_is_strict(self):
        # a peak must carry strictly more than 1 % of the total: a column of
        # exactly 1 % is none, one a bit heavier is
        rho1 = np.zeros(9)
        rho1[2] = 99.0
        rho1[6] = 1.0
        st = GridState(-1.0, 2.0 / 9, rho1, np.zeros(9))
        assert len(extract_peaks(st)) == 1
        rho1[6] = 1.0 + 2.0**-40
        st = GridState(-1.0, 2.0 / 9, rho1, np.zeros(9))
        assert len(extract_peaks(st)) == 2

    def test_species_peaks_are_species_resolved(self):
        rho1 = np.zeros(31)
        rho2 = np.zeros(31)
        rho1[10] = 1.0
        rho2[20] = 2.0
        st = GridState(-1.0, 2.0 / 31, rho1, rho2)
        p1, p2 = species_peaks(st)
        assert len(p1) == 1 and len(p2) == 1
        assert p1[0][1] == pytest.approx(1.0)
        assert p2[0][1] == pytest.approx(2.0)
