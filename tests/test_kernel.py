import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from aggrekin.kernel import PointyKernel, exponential_kernel, regularize

getcontext().prec = 50


def decimal_exp_neg(x: str) -> Decimal:
    """High-precision e^{-x} for frozen expected values."""
    return 1 / Decimal(x).exp()


class TestExponentialKernel:
    def test_value_at_origin(self):
        assert exponential_kernel().value(0.0) == 0.5

    def test_value_at_log2(self):
        assert exponential_kernel().value(math.log(2.0)) == pytest.approx(0.25, abs=1e-15)

    def test_evenness(self):
        k = exponential_kernel()
        x = np.linspace(-10, 10, 1001)
        assert np.array_equal(k.value(x), k.value(-x))

    def test_hat_deriv_zero_is_exact(self):
        # +0, never -0, at either signed zero
        for x in (0.0, -0.0, np.zeros(3)):
            out = exponential_kernel().hat_deriv(x)
            assert np.all(out == 0.0) and not np.signbit(out).any()

    def test_hat_deriv_left_limit_is_half(self):
        # approaching the origin from below the slope tends to +1/2
        assert exponential_kernel().hat_deriv(-1e-9) == pytest.approx(0.5, abs=1e-8)

    def test_hat_deriv_at_one_high_precision(self):
        expected = -Decimal("0.5") * decimal_exp_neg("1")
        got = Decimal(exponential_kernel().hat_deriv(1.0))
        assert abs(got - expected) < Decimal("1e-16")

    def test_hat_deriv_oddness(self):
        k = exponential_kernel()
        x = np.linspace(-10, 10, 1001)
        assert np.array_equal(k.hat_deriv(x), -k.hat_deriv(-x))

    def test_declared_bounds(self):
        # one Lipschitz bound for every band; the one-sided concavity
        # constant lambda = 1/2 is sampled below
        k = exponential_kernel()
        assert k.lipschitz == regularize(k, 4).lipschitz == 0.5

    def test_non_finite_input_rejected(self):
        k = exponential_kernel()
        with pytest.raises(ValueError):
            k.value(math.nan)
        with pytest.raises(ValueError):
            k.hat_deriv(math.inf)

    def test_one_sided_concavity_sampled(self):
        # (K'(x) - K'(y))(x - y) <= lam (x - y)^2 with lam = 1/2 on mixed-sign
        # random pairs, for E and for K_n
        k = exponential_kernel()
        rng = np.random.default_rng(123)
        x = rng.uniform(-10, 10, 10_000)
        y = rng.uniform(-10, 10, 10_000)
        for r in (k, regularize(k, 4), regularize(k, 50)):
            gap = (r.hat_deriv(x) - r.hat_deriv(y)) * (x - y) - 0.5 * (x - y) ** 2
            assert np.max(gap) <= 1e-12


class TestRegularize:
    def test_outside_band_unchanged(self):
        k = exponential_kernel()
        r = regularize(k, 1)
        assert r.hat_deriv(2.0) == k.hat_deriv(2.0)

    def test_linear_branch_value(self):
        r = regularize(exponential_kernel(), 1)
        expected = -Decimal("0.25") * decimal_exp_neg("1")
        assert abs(Decimal(r.hat_deriv(0.5)) - expected) < Decimal("1e-16")

    def test_deriv_vanishes_at_origin(self):
        # +0, never -0, though band_slope * 0.0 is -0
        for n in (1, 3, 10):
            for x in (0.0, -0.0):
                out = regularize(exponential_kernel(), n).hat_deriv(x)
                assert out == 0.0 and not np.signbit(out)

    def test_matches_original_off_band(self):
        k = exponential_kernel()
        for n in (1, 2, 5, 17):
            r = regularize(k, n)
            x = np.linspace(2.0 / n, 10.0, 500)
            x = np.concatenate([-x, x])
            assert np.max(np.abs(r.hat_deriv(x) - k.hat_deriv(x))) == 0.0

    def test_lipschitz_bound_preserved(self):
        k = exponential_kernel()
        rng = np.random.default_rng(5)
        x = rng.uniform(-10, 10, 5000)
        for n in (1, 4, 32):
            r = regularize(k, n)
            assert np.max(np.abs(r.hat_deriv(x))) <= k.lipschitz

    def test_potential_is_continuous_at_band_edge(self):
        r = regularize(exponential_kernel(), 3)
        edge = 1.0 / 3.0
        left = r.value(edge - 1e-10)
        right = r.value(edge + 1e-10)
        assert left == pytest.approx(right, abs=1e-9)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            regularize(exponential_kernel(), 0)
        with pytest.raises(ValueError):
            regularize(exponential_kernel(), 1.5)
        with pytest.raises(ValueError):
            regularize(exponential_kernel(), True)

    @pytest.mark.parametrize("inv_n", [-0.1, math.nan, math.inf, -math.inf])
    def test_rejects_bad_inv_n(self, inv_n):
        with pytest.raises(ValueError, match="inv_n"):
            PointyKernel(inv_n)

    def test_inv_n_tells_the_kernels_apart(self):
        # inv_n is 0 for the exponential kernel and 1/n for K_n
        assert exponential_kernel().inv_n == 0.0
        assert regularize(exponential_kernel(), 2).inv_n == 0.5

    def test_band_and_its_linear_slope(self):
        # outside |x| <= inv_n the kernel is the exponential one; inside, its
        # slope is band_slope * x, also when a regularized kernel is regularized again
        k = exponential_kernel()
        assert k.inv_n == 0.0 and k.band_slope == 0.0
        nested = (regularize(regularize(k, 4), 32), regularize(regularize(k, 32), 4))
        assert nested[0] == nested[1] == regularize(k, 4)
        for r, band in ((regularize(k, 4), 0.25), (nested[0], 0.25), (nested[1], 0.25), (regularize(k, 50), 0.02)):
            assert r.inv_n == band
            x = np.linspace(-band, band, 101)
            assert np.max(np.abs(r.hat_deriv(x) - r.band_slope * x)) <= 1e-15
            far = np.linspace(band, 3.0, 51)[1:]
            assert np.array_equal(r.hat_deriv(far), k.hat_deriv(far))
            assert np.array_equal(r.hat_deriv(-far), k.hat_deriv(-far))
