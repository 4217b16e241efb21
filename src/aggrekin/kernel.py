"""The pointy interaction potentials of the model: E and its regularizations K_n.

The exponential kernel E(x) = exp(-|x|)/2 is even, C^1 away from the
origin, has |E'| <= 1/2 and is one-sidedly concave with constant 1/2; the
kink at the origin is what drives finite-time blow-up of smooth solutions.
K_n is E outside |x| <= 1/n and has a linear slope through 0 inside, which
the hyperbolic-limit argument needs.  So a kernel is one number, the band
half-width ``inv_n``: 0 for E, 1/n for K_n.  The velocity field of the
transport model is built from the *hatted* derivative, the derivative with
its value at 0 replaced by exactly +0, which discretely amounts to
excluding the self-interaction term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

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
    """The kernel that is E(x) = exp(-|x|)/2 outside |x| <= ``inv_n`` and has
    the linear slope :attr:`band_slope` * x inside (0 for E, 1/n for K_n).

    ``value`` and ``hat_deriv`` accept scalars or numpy arrays.
    ``lipschitz`` bounds |K'| for every ``inv_n``.
    """

    inv_n: float = 0.0
    lipschitz: ClassVar[float] = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.inv_n) and self.inv_n >= 0.0):
            raise ValueError(f"inv_n: expected a finite nonnegative number, got {self.inv_n!r}")

    @cached_property
    def band_slope(self) -> float:
        """K'(x) / x on |x| <= ``inv_n``, i.e. E'(inv_n) / inv_n; 0 for E."""
        b = self.inv_n
        return float(-0.5 * np.exp(-b)) / b if b else 0.0

    def value(self, x):
        """Potential value K(x); even in x."""
        arr = _check_finite(x)
        b = self.inv_n
        band = 0.5 * np.exp(-b) + 0.5 * self.band_slope * (arr * arr - b * b)
        out = np.where(np.abs(arr) > b, 0.5 * np.exp(-np.abs(arr)), band)
        return float(out) if arr.ndim == 0 else out

    def hat_deriv(self, x):
        """K'(x), with the origin value replaced by exactly +0."""
        arr = _check_finite(x)
        outside = -0.5 * np.sign(arr) * np.exp(-np.abs(arr))
        out = np.where(np.abs(arr) > self.inv_n, outside, np.where(arr == 0.0, 0.0, self.band_slope * arr))
        return float(out) if arr.ndim == 0 else out


def exponential_kernel() -> PointyKernel:
    """The chemotaxis kernel E(x) = 0.5 * exp(-|x|).

    This is the Green function of 1 - d^2/dx^2 on the line, so the
    chemoattractant field is exactly E convolved with the weighted
    density.
    """
    return PointyKernel()


def regularize(kernel: PointyKernel, n: int) -> PointyKernel:
    """Replace the kink by a linear slope on [-1/n, 1/n].

    The result's derivative equals E' for |x| > 1/n and interpolates
    linearly through 0 inside; the Lipschitz bound can only shrink.  A
    kernel that already has a wider band is returned unchanged.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("regularization index n must be a positive integer")
    return PointyKernel(max(kernel.inv_n, 1.0 / int(n)))
