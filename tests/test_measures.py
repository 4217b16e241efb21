import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggrekin.measures import (
    CoarseGridWarning,
    DiscreteMeasure,
    ModelParams,
    bump_mass_unit,
    sample_gaussian_bumps,
    wasserstein2,
)
from oracle import SpeciesPair, coupled_w2, quantile


def brute_force_quantile(positions, masses, z):
    """Oracle: scan the CDF literally for inf{x : F(x^-) ... > z}."""
    cum = 0.0
    for x, w in zip(positions, masses):
        cum += w
        if cum > z:
            return x
    return positions[-1]


def brute_force_w2(a: DiscreteMeasure, b: DiscreteMeasure, n: int = 1_000_000) -> float:
    """Oracle: quantile integration on a fine uniform z grid."""
    z = (np.arange(n) + 0.5) / n
    qa = quantile(a.normalized(), z)
    qb = quantile(b.normalized(), z)
    return math.sqrt(float(np.mean((qa - qb) ** 2)))


def random_measure(rng, n_atoms: int) -> DiscreteMeasure:
    pos = np.sort(rng.uniform(-5, 5, n_atoms))
    pos += np.arange(n_atoms) * 1e-9
    w = rng.uniform(0.05, 1.0, n_atoms)
    return DiscreteMeasure(pos, w / w.sum())


class TestDiscreteMeasure:
    def test_rejects_unsorted_positions(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([0.0, 0.0], [0.5, 0.5])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([0.0, 1.0], [0.5, -0.5])

    def test_total_mass(self):
        m = DiscreteMeasure([0.0, 1.0], [0.25, 0.5])
        assert m.total_mass == 0.75


class TestQuantile:
    def test_point_mass(self):
        m = DiscreteMeasure([3.7], [1.0])
        for z in (0.01, 0.5, 0.99):
            assert quantile(m, z) == 3.7

    def test_two_atoms(self):
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        assert quantile(m, 0.25) == 0.0
        assert quantile(m, 0.75) == 1.0

    def test_plateau_takes_right_atom(self):
        # strict inequality in the generalized inverse
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        assert quantile(m, 0.5) == 1.0

    def test_against_brute_force_scan(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = random_measure(rng, int(rng.integers(1, 9)))
            for z in rng.uniform(0.001, 0.999, 20):
                assert quantile(m, z) == brute_force_quantile(m.positions, m.masses, z)

    def test_rejects_bad_arguments(self):
        m = DiscreteMeasure([0.0], [1.0])
        with pytest.raises(ValueError):
            quantile(m, 0.0)
        with pytest.raises(ValueError):
            quantile(m, 1.0)
        with pytest.raises(ValueError):
            quantile(DiscreteMeasure([0.0], [0.5]), 0.5)

    @given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_z(self, zs):
        m = DiscreteMeasure([-2.0, -0.5, 0.1, 4.0], [0.1, 0.4, 0.3, 0.2])
        zs = sorted(zs)
        vals = [quantile(m, z) for z in zs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestWasserstein2:
    def test_translated_point_mass(self):
        a = DiscreteMeasure([0.0], [1.0])
        b = DiscreteMeasure([1.0], [1.0])
        assert wasserstein2(a, b) == 1.0

    def test_identity(self):
        a = DiscreteMeasure([-1.0, 2.0], [0.25, 0.75])
        assert wasserstein2(a, a) == 0.0

    def test_split_atom(self):
        a = DiscreteMeasure([0.0], [1.0])
        b = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        assert wasserstein2(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = random_measure(rng, 5)
            b = random_measure(rng, 7)
            assert wasserstein2(a, b) == wasserstein2(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b, c = (random_measure(rng, 5) for _ in range(3))
            assert wasserstein2(a, c) <= wasserstein2(a, b) + wasserstein2(b, c) + 1e-10

    def test_against_fine_grid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = random_measure(rng, int(rng.integers(2, 8)))
            b = random_measure(rng, int(rng.integers(2, 8)))
            exact = wasserstein2(a, b)
            approx = brute_force_w2(a, b)
            assert exact == pytest.approx(approx, rel=1e-4)

    def test_unnormalized_inputs_are_normalized(self):
        a = DiscreteMeasure([0.0], [2.0])
        b = DiscreteMeasure([1.0], [5.0])
        assert wasserstein2(a, b) == 1.0

    def test_empty_measure_rejected(self):
        with pytest.raises(ValueError):
            wasserstein2(DiscreteMeasure([], []), DiscreteMeasure([0.0], [1.0]))


class TestModelParams:
    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(["chi1", "chi2", "theta1", "theta2", "psi1", "psi2"]),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite_parameter_is_named(self, name, bad):
        kwargs = {"chi1": 10.0, "chi2": 1.0, name: bad}
        with pytest.raises(ValueError, match=name):
            ModelParams(**kwargs)


class TestCoupledW2:
    def test_identical_pairs(self):
        p = ModelParams(chi1=1.0, chi2=1.0)
        u = SpeciesPair(DiscreteMeasure([0.0], [1.0]), DiscreteMeasure([1.0], [1.0]))
        assert coupled_w2(u, u, p) == 0.0

    def test_unit_weight_reduces_to_single_distance(self):
        p = ModelParams(chi1=2.0, chi2=2.0, theta1=3.0, theta2=3.0)
        u = SpeciesPair(DiscreteMeasure([0.0], [1.0]), DiscreteMeasure([0.0], [1.0]))
        v = SpeciesPair(DiscreteMeasure([0.0], [1.0]), DiscreteMeasure([0.7], [1.0]))
        assert coupled_w2(u, v, p) == pytest.approx(0.7, abs=1e-15)

    def test_weight_arithmetic(self):
        p = ModelParams(chi1=10.0, chi2=1.0, theta1=1.0, theta2=1.0)
        u = SpeciesPair(DiscreteMeasure([0.0], [1.0]), DiscreteMeasure([0.0], [1.0]))
        v = SpeciesPair(DiscreteMeasure([0.0], [1.0]), DiscreteMeasure([0.3], [1.0]))
        assert coupled_w2(u, v, p) == pytest.approx(0.3 * math.sqrt(10.0), rel=1e-14)


class TestGaussianBumps:
    def test_unit_bump_mass(self):
        # oracle: integral of exp(-w x^2) is sqrt(pi / w)
        m = sample_gaussian_bumps([(1.0, 0.0)], (-1.0, 1.0, 1e-4))
        assert m.total_mass == pytest.approx(bump_mass_unit(5000.0), abs=1e-6)

    def test_erf_oracle(self):
        # midpoint quadrature against the closed-form truncated integral
        w = 5000.0
        dx = 1e-4
        m = sample_gaussian_bumps([(2.5, 0.2)], (-1.0, 1.0, dx), width=w)
        exact = 2.5 * math.sqrt(math.pi / w)
        assert m.total_mass == pytest.approx(exact, rel=1e-6)

    def test_mass_additivity_disjoint_bumps(self):
        grid = (-1.0, 1.0, 1e-4)
        both = sample_gaussian_bumps([(1.0, -0.5), (3.0, 0.5)], grid)
        one = sample_gaussian_bumps([(1.0, -0.5)], grid)
        two = sample_gaussian_bumps([(3.0, 0.5)], grid)
        assert both.total_mass == pytest.approx(one.total_mass + two.total_mass, rel=1e-12)

    def test_off_node_center_keeps_mass(self):
        grid = (-1.0, 1.0, 1e-4)
        on = sample_gaussian_bumps([(1.0, 0.0)], grid)
        off = sample_gaussian_bumps([(1.0, 0.33e-4)], grid)
        assert off.total_mass == pytest.approx(on.total_mass, abs=1e-6)

    def test_coarse_grid_warns(self):
        with pytest.warns(CoarseGridWarning):
            sample_gaussian_bumps([(1.0, 0.0)], (-1.0, 1.0, 0.01))

    def test_uncovered_bump_rejected(self):
        with pytest.raises(ValueError, match=r"^grid \[-1\.0, 1\.0\] does not cover the bump at 0\.99 to 1e-12"):
            sample_gaussian_bumps([(1.0, 0.99)], (-1.0, 1.0, 1e-4))

    def test_mass_unit_value(self):
        assert bump_mass_unit(5000.0) == pytest.approx(0.025066282746310002, rel=1e-12)

