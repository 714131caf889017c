"""Differential entropy estimators.

All estimators here return nats; callers convert to bits at public
boundaries via :func:`nats_to_bits`.
"""

from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from .errors import SingularCovariance

LN2 = float(np.log(2.0))


def nats_to_bits(h: float) -> float:
    return float(h) / LN2


def gaussian_entropy_nats(cov) -> float:
    """Entropy of N(mu, cov): 0.5 * log((2*pi*e)^n det(cov))."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    n = cov.shape[0]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(logdet):
        raise SingularCovariance(f"covariance determinant is not positive (sign={sign})")
    return 0.5 * (n * np.log(2.0 * np.pi * np.e) + logdet)


def grid_entropy_nats(density, cell_volume: float) -> float:
    """Plug-in entropy of a gridded density: -sum(d_i * dV * log d_i)."""
    d = np.asarray(density, dtype=float).ravel()
    pos = d[d > 0.0]
    return float(-np.sum(pos * np.log(pos)) * cell_volume)


def _kth_gap_1d(x: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point of a 1-D sample to its k-th nearest other
    point, in sample order.

    In the sorted sample the k nearest neighbours of a point are its j
    nearest on the left and k - j nearest on the right for some j, so the
    k-th distance is min_j max(left_j, right_{k-j}) over j = 0..k, where
    left_j and right_j are the gaps to the j-th sorted neighbour on each
    side (left_0 = right_0 = 0, and +inf past either end). Each gap is the
    same floating-point difference a KD-tree computes, so the result is
    bit-equal to it; tied values give equal gaps whatever their sorted
    order.
    """
    n = x.size
    order = np.argsort(x)
    s = x[order]
    padded = np.concatenate([np.full(k, -np.inf), s, np.full(k, np.inf)])

    def left(j):
        return s - padded[k - j : k - j + n]

    def right(j):
        return padded[k + j : k + j + n] - s

    eps = np.minimum(left(k), right(k))
    for j in range(1, k):
        np.minimum(eps, np.maximum(left(j), right(k - j)), out=eps)
    out = np.empty(n)
    out[order] = eps
    return out


@lru_cache(maxsize=4)
def _unit_jitter(shape: tuple) -> np.ndarray:
    """The fixed-seed standard normals behind the kNN tie-break jitter.

    Every call with one sample shape draws the same values, so they are
    drawn once per shape and shared read-only.
    """
    z = np.random.default_rng(0x5EED).standard_normal(shape)
    z.setflags(write=False)
    return z


def knn_entropy_nats(samples, k: int = 4) -> float:
    """Kozachenko-Leonenko k-NN entropy estimate for equal-weight samples.

    Uses the Chebyshev norm, for which the unit-ball volume term is
    d * log(2). A deterministic jitter (fixed internal seed) breaks ties
    between duplicated samples so the k-th neighbour distance stays
    positive; the jitter scale is far below any meaningful sample spread.

    One-dimensional samples take the k-th neighbour distance from the
    sorted sample (:func:`_kth_gap_1d`, O(n log n)) instead of a KD-tree.
    Both compute each distance as the same difference of two jittered
    values and the distances are averaged in sample order, so the estimate
    is bit-identical to the tree query; samples with d >= 2 use the tree.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n <= k:
        raise ValueError(f"need more than k={k} samples, got {n}")
    # keep the jitter above the float spacing at the data's magnitude even
    # when the spread collapses, else exact duplicates survive it
    scale = np.maximum(np.std(x, axis=0), 1e-4 * (1.0 + np.abs(x).max(axis=0)))
    xj = x + 1e-10 * scale * _unit_jitter(x.shape)
    if d == 1:
        eps = _kth_gap_1d(xj[:, 0], k)
    else:
        dist, _ = cKDTree(xj).query(xj, k=k + 1, p=np.inf)
        eps = dist[:, k]
    return float(digamma(n) - digamma(k) + d * np.log(2.0) + d * np.mean(np.log(eps)))
