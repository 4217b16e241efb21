"""Linear-time convolution with the exponential kernel on a uniform grid.

For ordered nodes the factorization e^{-|x_j - x_i|} = e^{-|x_j - x_k|} *
e^{-|x_k - x_i|} turns the one-sided convolution sums into first-order
recursions.  They are evaluated blockwise so everything vectorizes while
the local exponential rescaling stays well inside float64 range.  A
chunked O(N^2) direct summation over the pairwise difference matrix is
kept for every other kernel and as the reference path; the two must
agree to 1e-12 relative.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "exp_one_sided_sums",
    "exp_velocity_scan",
    "exp_potential_scan",
    "direct_velocity",
    "direct_potential",
]

# cap the in-block exponential rescaling at e^{0.25} to keep the blocked
# cumulative sums accurate to ~1e-13 relative
_MAX_BLOCK_SPAN = 0.25
# rows of the pairwise difference matrix formed at a time by the direct sums
_CHUNK = 256


@lru_cache(maxsize=8)
def _block_scales(block: int, dx: float) -> tuple[np.ndarray, np.ndarray, float]:
    """e^{k dx} and e^{-k dx} for k < block, read-only, and e^{-block dx}."""
    k = np.arange(block) * dx
    up, down = np.exp(k), np.exp(-k)
    up.flags.writeable = down.flags.writeable = False
    return up, down, math.exp(-block * dx)


def exp_one_sided_sums(w: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right decayed sums for weights ``w`` at spacing ``dx``.

    Returns arrays L, R with
        L[j] = sum_{i<j} w[i] * e^{-(j-i)*dx}
        R[j] = sum_{i>j} w[i] * e^{-(i-j)*dx}

    Both directions run in one pass: w and its reverse are zero-padded to
    whole blocks and stacked as a (2, n_blocks, block) array, rescaled by
    e^{k dx} inside each block and summed with one cumulative sum along the
    block axis.  Only the per-block carries are a Python loop.
    """
    w = np.asarray(w, dtype=float)
    if dx <= 0:
        raise ValueError("dx must be positive")
    n = w.size
    if n == 0:
        return np.zeros(0), np.zeros(0)
    block = min(n, max(1, int(_MAX_BLOCK_SPAN / dx)))
    n_blocks = -(-n // block)
    up, down, decay = _block_scales(block, dx)
    u = np.zeros((2, n_blocks * block))
    u[0, :n] = w
    u[1, :n] = w[::-1]
    u = u.reshape(2, n_blocks, block)
    u *= up
    # exclusive prefix sums: the inclusive ones shifted by one, the last of which are the totals
    inclusive = np.cumsum(u, axis=2)
    prefix = np.empty_like(u)
    prefix[:, :, 0] = 0.0
    prefix[:, :, 1:] = inclusive[:, :, :-1]
    totals = inclusive[:, :, -1].tolist()
    carries = []
    for sums in totals:
        carry, row = 0.0, []
        for s in sums:
            row.append(carry)
            carry = decay * (carry + s)
        carries.append(row)
    prefix += np.array(carries)[:, :, None]
    prefix *= down
    out = prefix.reshape(2, -1)
    return out[0, :n], out[1, n - 1 :: -1]


def exp_velocity_scan(w: np.ndarray, dx: float) -> np.ndarray:
    """Velocity for the exponential kernel: 0.5 * (R - L)."""
    left, right = exp_one_sided_sums(w, dx)
    return 0.5 * (right - left)


def exp_potential_scan(w: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """(S, dS) for the exponential kernel via the one-sided scans.

    S includes the finite self term K(0) * w_j; dS excludes the diagonal.
    """
    left, right = exp_one_sided_sums(w, dx)
    s = 0.5 * (left + w + right)
    ds = 0.5 * (right - left)
    return s, ds


def _direct_sums(x: np.ndarray, w: np.ndarray, kernel_fns) -> list[np.ndarray]:
    """out[j] = sum_i f(x_j - x_i) w_i for each f of ``kernel_fns``, over
    row chunks of the pairwise difference matrix."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n = x.size
    outs = [np.empty(n) for _ in kernel_fns]
    for start in range(0, n, _CHUNK):
        diff = x[start : start + _CHUNK, None] - x[None, :]
        for out, f in zip(outs, kernel_fns):
            out[start : start + _CHUNK] = f(diff) @ w
    return outs


def direct_velocity(x: np.ndarray, w: np.ndarray, kernel) -> np.ndarray:
    """O(N^2) velocity sum a[j] = sum_{i != j} K'(x_j - x_i) * w_i."""
    (a,) = _direct_sums(x, w, (kernel.hat_deriv,))
    return a


def direct_potential(x: np.ndarray, w: np.ndarray, kernel) -> tuple[np.ndarray, np.ndarray]:
    """O(N^2) potential and hatted-derivative convolutions.

    S[j] = sum_i K(x_j - x_i) w_i  (self term included; K(0) is finite),
    dS[j] = sum_{i != j} K'(x_j - x_i) w_i.
    """
    s, ds = _direct_sums(x, w, (kernel.value, kernel.hat_deriv))
    return s, ds
