"""Linear-time convolution with every kernel of the package on a uniform grid.

For ordered nodes the factorization e^{-|x_j - x_i|} = e^{-|x_j - x_k|} *
e^{-|x_k - x_i|} turns the one-sided sums with the exponential kernel into
first-order recursions, evaluated blockwise so everything vectorizes while
the local exponential rescaling stays well inside float64 range.  Every
kernel of the package is the exponential one outside its band |x| <= inv_n
(:class:`~aggrekin.kernel.PointyKernel`), so the regularized K_n adds the
difference as a stencil over the cells within 1/n (empty for the former).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .kernel import PointyKernel

__all__ = ["exp_one_sided_sums", "exp_velocity_scan", "exp_potential_scan", "near_field", "add_near_field"]

# cap the in-block exponential rescaling at e^{0.25} to keep the blocked
# cumulative sums accurate to ~1e-13 relative
_MAX_BLOCK_SPAN = 0.25


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


@lru_cache(maxsize=8)
def near_field(kernel: PointyKernel, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """The stencils (K - E)(k dx) and (K' - E')(k dx), hatted at 0, that ``kernel`` adds to
    the scan of the exponential kernel E, for |k| <= floor(inv_n / dx) + 1; empty for E."""
    if not kernel.inv_n:
        return np.zeros(0), np.zeros(0)
    m = int(kernel.inv_n / dx) + 1
    x = np.arange(-m, m + 1) * dx
    e = PointyKernel()
    c_s, c_ds = kernel.value(x) - e.value(x), kernel.hat_deriv(x) - e.hat_deriv(x)
    c_s.flags.writeable = c_ds.flags.writeable = False
    return c_s, c_ds


def add_near_field(field: np.ndarray, w: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """``field`` plus sum_i w[i] stencil[j - i] on the cells of ``w``, in place,
    for a :func:`near_field` stencil (centred, cut to the window's width)."""
    if stencil.size:
        mid = stencil.size // 2
        m = min(mid, w.size - 1)
        field += np.convolve(w, stencil[mid - m : mid + m + 1])[m : m + w.size]
    return field
