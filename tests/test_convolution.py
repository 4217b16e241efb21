import math

import numpy as np
import pytest

from aggrekin.expconv import (
    direct_potential,
    direct_velocity,
    exp_one_sided_sums,
    exp_potential_scan,
    exp_velocity_scan,
)
from aggrekin.kernel import exponential_kernel


def brute_one_sided(w, dx):
    """Oracle: literal double loop for the decayed one-sided sums."""
    n = w.size
    left = np.zeros(n)
    right = np.zeros(n)
    for j in range(n):
        for i in range(j):
            left[j] += w[i] * np.exp(-(j - i) * dx)
        for i in range(j + 1, n):
            right[j] += w[i] * np.exp(-(i - j) * dx)
    return left, right


def frozen_one_sided(w, dx):
    """The blocked scan as it was before its block scales were cached: an
    exclusive cumulative sum written into a strided slice, the scales
    recomputed per call.  The arithmetic is the same, so the results must
    be too, bit for bit."""
    n = w.size
    block = min(n, max(1, int(0.25 / dx)))
    n_blocks = -(-n // block)
    k = np.arange(block) * dx
    u = np.zeros((2, n_blocks * block))
    u[0, :n] = w
    u[1, :n] = w[::-1]
    u = u.reshape(2, n_blocks, block)
    u *= np.exp(k)
    prefix = np.empty_like(u)
    prefix[:, :, 0] = 0.0
    np.cumsum(u[:, :, :-1], axis=2, out=prefix[:, :, 1:])
    totals = (prefix[:, :, -1] + u[:, :, -1]).tolist()
    decay = math.exp(-block * dx)
    carries = []
    for sums in totals:
        carry, row = 0.0, []
        for s in sums:
            row.append(carry)
            carry = decay * (carry + s)
        carries.append(row)
    prefix += np.array(carries)[:, :, None]
    prefix *= np.exp(-k)
    out = prefix.reshape(2, -1)
    return out[0, :n], out[1, n - 1 :: -1]


class TestOneSidedSums:
    # (n, dx): one cell; fewer cells than a block (block = n); whole blocks
    # of 500; a partial last block; dx >= 0.25, where a block is one cell
    @pytest.mark.parametrize(
        "n, dx", [(1, 5e-4), (1, 0.3), (37, 5e-4), (2000, 5e-4), (2321, 5e-4), (40, 0.25), (25, 0.7)]
    )
    def test_bit_identical_to_the_frozen_scan(self, n, dx):
        rng = np.random.default_rng(n)
        for w in (rng.uniform(0, 1, n), rng.normal(size=n) * (rng.uniform(size=n) > 0.5)):
            # twice, so the second call reads the cached scales
            for _ in range(2):
                left, right = exp_one_sided_sums(w, dx)
                ref_left, ref_right = frozen_one_sided(w, dx)
                assert left.tobytes() == ref_left.tobytes()
                assert right.tobytes() == ref_right.tobytes()

    def test_bit_identical_to_the_frozen_scan_on_random_grids(self):
        rng = np.random.default_rng(300)
        for _ in range(300):
            n = int(rng.integers(1, 3000))
            dx = float(10.0 ** rng.uniform(-4, 0))
            w = rng.uniform(0, 1, n)
            for got, ref in zip(exp_one_sided_sums(w, dx), frozen_one_sided(w, dx)):
                assert got.tobytes() == ref.tobytes()

    def test_against_literal_double_loop(self):
        rng = np.random.default_rng(0)
        for n, dx in ((7, 0.5), (40, 0.05), (130, 0.31)):
            w = rng.uniform(0, 1, n)
            left, right = exp_one_sided_sums(w, dx)
            bl, br = brute_one_sided(w, dx)
            assert np.max(np.abs(left - bl)) <= 1e-13 * max(1.0, bl.max())
            assert np.max(np.abs(right - br)) <= 1e-13 * max(1.0, br.max())

    def test_partial_last_block_against_literal_double_loop(self):
        # block of 12 cells: five blocks, the last one zero-padded
        rng = np.random.default_rng(5)
        w = rng.uniform(0, 1, 53)
        left, right = exp_one_sided_sums(w, 0.02)
        bl, br = brute_one_sided(w, 0.02)
        assert np.max(np.abs(left - bl)) <= 1e-13 * max(1.0, bl.max())
        assert np.max(np.abs(right - br)) <= 1e-13 * max(1.0, br.max())

    def test_empty_and_single(self):
        left, right = exp_one_sided_sums(np.array([3.0]), 0.1)
        assert left[0] == 0.0 and right[0] == 0.0

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            exp_one_sided_sums(np.ones(3), 0.0)


@pytest.mark.parametrize("n", [128, 1024, 10_000])
def test_scan_matches_direct_velocity(n):
    rng = np.random.default_rng(n)
    dx = 5e-4
    w = rng.uniform(0, 1, n)
    x = (np.arange(n) + 0.5) * dx
    fast = exp_velocity_scan(w, dx)
    slow = direct_velocity(x, w, exponential_kernel())
    scale = np.max(np.abs(slow))
    assert np.max(np.abs(fast - slow)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [128, 1024, 10_000])
def test_scan_matches_direct_potential(n):
    rng = np.random.default_rng(n + 1)
    dx = 5e-4
    w = rng.uniform(0, 1, n)
    x = (np.arange(n) + 0.5) * dx
    s_fast, ds_fast = exp_potential_scan(w, dx)
    s_slow, ds_slow = direct_potential(x, w, exponential_kernel())
    assert np.max(np.abs(s_fast - s_slow)) <= 1e-12 * np.max(np.abs(s_slow))
    assert np.max(np.abs(ds_fast - ds_slow)) <= 1e-12 * np.max(np.abs(ds_slow))


def test_scan_matches_direct_on_coarse_grids():
    rng = np.random.default_rng(9)
    k = exponential_kernel()
    for n, dx in ((777, 0.3), (64, 1.0), (2000, 0.01)):
        w = rng.uniform(0, 2, n)
        x = (np.arange(n) + 0.5) * dx
        fast = exp_velocity_scan(w, dx)
        slow = direct_velocity(x, w, k)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))
