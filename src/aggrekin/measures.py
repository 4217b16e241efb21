"""Discrete nonnegative measures, the model parameters and the Wasserstein
distance.

Measures are stored as weighted atom lists (grid densities are just atoms
at cell centers carrying cell masses).  The 1D quadratic Wasserstein
distance is computed exactly by sweeping the merged breakpoints of the
two quantile staircases.  The quantile function and the coupled
two-species metric, which no run reads, are the test suite's oracle
(``tests/oracle.py``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoarseGridWarning",
    "DiscreteMeasure",
    "ModelParams",
    "bump_mass_unit",
    "wasserstein2",
    "sample_gaussian_bumps",
]


class CoarseGridWarning(UserWarning):
    """The sampling grid under-resolves a Gaussian bump (< 8 cells per sigma)."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms at strictly increasing positions with nonnegative masses."""

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        w = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if pos.shape != w.shape or pos.ndim != 1:
            raise ValueError("positions and masses must be 1-D arrays of equal length")
        if pos.size and np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if np.any(w < 0):
            raise ValueError("masses must be nonnegative")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(w)):
            raise ValueError("positions and masses must be finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", w)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def normalized(self) -> "DiscreteMeasure":
        tot = self.total_mass
        if tot <= 0:
            raise ValueError("cannot normalize an empty measure")
        return DiscreteMeasure(self.positions, self.masses / tot)


@dataclass(frozen=True)
class ModelParams:
    """Chemosensitivities chi, coupling weights theta and tumbling rates psi.

    The psi rates only enter the kinetic solver.  Kinetic runs additionally
    require chi_a * (theta1 + theta2) < 1 for both species; that condition
    is checked by the kinetic module, not here.
    """

    chi1: float
    chi2: float
    theta1: float = 1.0
    theta2: float = 1.0
    psi1: float = 1.0
    psi2: float = 1.0

    def __post_init__(self):
        for name in ("chi1", "chi2", "theta1", "theta2", "psi1", "psi2"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


def bump_mass_unit(width: float = 5000.0) -> float:
    """Total mass of a unit-amplitude Gaussian bump exp(-width * x^2)."""
    return math.sqrt(math.pi / width)


def _staircase(m: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    m = m.normalized()
    return np.cumsum(m.masses), m.positions


def wasserstein2(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """Quadratic Wasserstein distance between two atomic measures.

    Inputs are normalized internally; the integral of the squared quantile
    difference is evaluated exactly on the merged breakpoints of the two
    staircases.
    """
    if a.positions.size == 0 or b.positions.size == 0:
        raise ValueError("wasserstein2 requires nonempty measures")
    cum_a, pos_a = _staircase(a)
    cum_b, pos_b = _staircase(b)
    grid = np.concatenate(([0.0], cum_a[:-1], cum_b[:-1], [1.0]))
    grid.sort(kind="stable")
    dz = np.diff(grid)
    mid = 0.5 * (grid[:-1] + grid[1:])
    ia = np.minimum(np.searchsorted(cum_a, mid, side="right"), pos_a.size - 1)
    ib = np.minimum(np.searchsorted(cum_b, mid, side="right"), pos_b.size - 1)
    diff = pos_a[ia] - pos_b[ib]
    return float(np.sqrt(np.sum(dz * diff * diff)))


def sample_gaussian_bumps(
    bumps: list[tuple[float, float]],
    grid: tuple[float, float, float],
    width: float = 5000.0,
) -> DiscreteMeasure:
    """Sample a sum of Gaussian bumps A * exp(-width * (x - c)^2) on a grid.

    ``grid`` is (xmin, xmax, dx); atoms sit at cell centers and carry the
    midpoint-rule cell mass (cell-center density times dx).  The grid must
    cover every bump support down to a 1e-12 relative mass truncation.
    Warns with :class:`CoarseGridWarning` when there are bumps and fewer
    than 8 cells per bump standard deviation.
    """
    xmin, xmax, dx = (float(v) for v in grid)
    if dx <= 0 or xmax <= xmin:
        raise ValueError("grid must satisfy xmax > xmin and dx > 0")
    n = int(round((xmax - xmin) / dx))
    if n < 1:
        raise ValueError("grid has no cells")
    centers = xmin + (np.arange(n) + 0.5) * dx

    sqrt_w = math.sqrt(width)
    sigma = 1.0 / math.sqrt(2.0 * width)
    masses = np.zeros(n)
    for amplitude, center in bumps:
        if amplitude < 0:
            raise ValueError("bump amplitudes must be nonnegative")
        margin = min(center - xmin, xmax - center)
        if margin <= 0 or math.erfc(sqrt_w * margin) > 1e-12:
            raise ValueError(
                f"grid [{xmin}, {xmax}] does not cover the bump at {center} "
                "to 1e-12 relative mass truncation"
            )
        masses += amplitude * np.exp(-width * (centers - center) ** 2) * dx
    if bumps and dx > sigma / 8.0:
        warnings.warn(
            f"grid spacing {dx} gives fewer than 8 cells per bump standard deviation {sigma}",
            CoarseGridWarning,
            stacklevel=2,
        )
    return DiscreteMeasure(centers, masses)

