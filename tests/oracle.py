"""Oracles that the package is checked against, kept out of it because no
run reads them.

- O(N^2) pairwise sums over the pairwise difference matrix: the package's
  O(N) convolutions (the exponential scan plus the near-field stencil) must
  match them to 1e-12 relative.
- Quantile functions and the coupled two-species Wasserstein metric, in
  which the paper states its stability result.
"""

import math
from dataclasses import dataclass

import numpy as np

from aggrekin.measures import DiscreteMeasure, ModelParams, wasserstein2

# rows of the pairwise difference matrix formed at a time
_CHUNK = 256


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


def _check_probability(m: DiscreteMeasure) -> None:
    if m.positions.size == 0:
        raise ValueError("measure has no atoms")
    if abs(m.total_mass - 1.0) > 1e-12:
        raise ValueError(f"measure must be normalized to mass 1 (got {m.total_mass!r})")


def quantile(m: DiscreteMeasure, z):
    """Generalized inverse CDF: inf{x : m((-inf, x)) > z} for z in (0, 1).

    On a CDF plateau the strict inequality selects the atom to the right.
    Accepts a scalar or an array of probabilities.
    """
    _check_probability(m)
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= 0.0) or np.any(z_arr >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    cum = np.cumsum(m.masses)
    idx = np.searchsorted(cum, z_arr, side="right")
    idx = np.minimum(idx, m.positions.size - 1)
    out = m.positions[idx]
    return float(out) if np.ndim(z) == 0 else out


@dataclass(frozen=True)
class SpeciesPair:
    """The two species' measures, in a fixed order."""

    rho1: DiscreteMeasure
    rho2: DiscreteMeasure


def species_pair(cs) -> SpeciesPair:
    """The two species' measures of the cluster set ``cs``: one atom per
    cluster holding mass of that species."""
    pos1 = [(c.position, c.m1) for c in cs.clusters if c.m1 > 0]
    pos2 = [(c.position, c.m2) for c in cs.clusters if c.m2 > 0]
    return SpeciesPair(
        DiscreteMeasure([x for x, _ in pos1], [m for _, m in pos1]),
        DiscreteMeasure([x for x, _ in pos2], [m for _, m in pos2]),
    )


def coupled_w2(u: SpeciesPair, v: SpeciesPair, p: ModelParams) -> float:
    """Two-species product metric with weight chi1*theta2 / (chi2*theta1)."""
    d1 = wasserstein2(u.rho1, v.rho1)
    d2 = wasserstein2(u.rho2, v.rho2)
    weight = (p.chi1 * p.theta2) / (p.chi2 * p.theta1)
    return math.sqrt(d1 * d1 + weight * d2 * d2)
