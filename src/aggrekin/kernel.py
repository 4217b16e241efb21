"""Pointy interaction potentials and their derivatives.

A *pointy* potential is even, C^1 away from the origin, has a bounded
derivative and is one-sidedly concave; the kink at the origin is what
drives finite-time blow-up of smooth solutions.  The velocity field of
the transport model is built from the *hatted* derivative, i.e. the
derivative with its value at 0 replaced by exactly 0, which discretely
amounts to excluding the self-interaction term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "PointyKernel",
    "exponential_kernel",
    "regularize",
]


def _check_finite(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("kernel evaluated at non-finite position")
    return arr


@dataclass(frozen=True)
class PointyKernel:
    """Even interaction potential with bounded, one-sidedly concave slope.

    ``value`` and ``deriv`` must accept scalars or numpy arrays.  ``deriv``
    is only meaningful away from 0; use :meth:`hat_deriv` for the
    diagonal-zeroed version that the solvers consume.  ``lipschitz`` bounds
    ``|deriv|`` and ``lam`` is the one-sided concavity constant.  Outside
    |x| <= ``inv_n`` (0 for the exponential kernel, 1/n for K_n) the kernel
    is the exponential one; inside, its slope is linear (:attr:`band_slope`).
    """

    value_fn: Callable = field(repr=False)
    deriv_fn: Callable = field(repr=False)
    lipschitz: float
    lam: float
    inv_n: float = 0.0

    def value(self, x):
        """Potential value K(x); even in x."""
        arr = _check_finite(x)
        out = self.value_fn(arr)
        return float(out) if arr.ndim == 0 else out

    def deriv(self, x):
        """Spatial derivative of the potential, defined for x != 0."""
        arr = _check_finite(x)
        out = self.deriv_fn(arr)
        return float(out) if arr.ndim == 0 else out

    def hat_deriv(self, x):
        """Derivative with the origin value replaced by exactly 0."""
        arr = _check_finite(x)
        out = np.where(arr == 0.0, 0.0, self.deriv_fn(arr))
        return float(out) if arr.ndim == 0 else out

    @cached_property
    def band_slope(self) -> float:
        """K'(x) / x on |x| <= ``inv_n``; 0 for the exponential kernel."""
        return self.deriv(self.inv_n) / self.inv_n if self.inv_n else 0.0


def _exp_value(x):
    return 0.5 * np.exp(-np.abs(x))


def _exp_deriv(x):
    # sign(0) = 0, so this is already the hatted derivative at the origin
    return -0.5 * np.sign(x) * np.exp(-np.abs(x))


def exponential_kernel() -> PointyKernel:
    """The chemotaxis kernel K(x) = 0.5 * exp(-|x|).

    This is the Green function of 1 - d^2/dx^2 on the line, so the
    chemoattractant field is exactly K convolved with the weighted
    density.  |K'| <= 1/2 everywhere and the one-sided concavity
    constant is 1/2 (the supremum of K'' away from the origin; the
    downward kink at 0 only helps).
    """
    return PointyKernel(_exp_value, _exp_deriv, 0.5, 0.5)


def regularize(kernel: PointyKernel, n: int) -> PointyKernel:
    """Replace the kink by a linear slope on [-1/n, 1/n].

    The returned kernel's derivative equals the original one for
    |x| > 1/n and interpolates linearly through 0 inside.  The Lipschitz
    bound can only shrink and the concavity constant is unchanged.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("regularization index n must be a positive integer")
    n = int(n)
    inv_n = 1.0 / n
    slope = n * float(kernel.deriv(inv_n))

    def reg_deriv(x, _k=kernel, _inv=inv_n, _s=slope):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > _inv, _k.deriv_fn(x), _s * x)

    def reg_value(x, _k=kernel, _inv=inv_n, _s=slope):
        x = np.asarray(x, dtype=float)
        inner = _k.value_fn(np.full_like(x, _inv)) + 0.5 * _s * (x * x - _inv * _inv)
        return np.where(np.abs(x) > _inv, _k.value_fn(x), inner)

    band = max(kernel.inv_n, inv_n)  # where the result differs from the exponential kernel
    return PointyKernel(reg_value, reg_deriv, kernel.lipschitz, kernel.lam, inv_n=band)
