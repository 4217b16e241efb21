"""O(N^2) pairwise sums over the pairwise difference matrix: the oracle
that the package's O(N) convolutions (the exponential scan plus the
near-field stencil) are checked against, to 1e-12 relative."""

import numpy as np

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
