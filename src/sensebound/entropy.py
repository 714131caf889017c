"""Differential entropy estimators.

All estimators here return nats; callers convert to bits at public
boundaries via :func:`nats_to_bits`.
"""

import math
from functools import lru_cache

import numpy as np

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


def plogp_row_sums(p: np.ndarray, log=np.log) -> np.ndarray:
    """sum(p_i * log(p_i)) over the positive entries of each row of the 2-D p.

    One mask, one log and one multiply serve the whole array. Each row's
    terms are then one contiguous slice, reduced by `np.add.reduce` (what
    `np.sum` runs) with the pairwise tree it builds for that row alone, so
    every row keeps its own bits. A padded row sum would not: the zeros
    change the tree.
    """
    mask = p > 0.0
    pos = p[mask]
    terms = pos * log(pos)
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return np.array([np.add.reduce(terms[a:b]) for a, b in zip([0, *ends], ends)])


def grid_entropy_nats(density, cell_volume):
    """Plug-in entropy of a gridded density: -sum(d_i * dV * log d_i).

    With a scalar cell volume the whole density is one grid and the result
    is one float; with one volume per row of a 2-D density, each row is a
    grid and the result has one entropy per row.
    """
    d = np.asarray(density, dtype=float)
    if np.ndim(cell_volume) == 0:
        return float(-plogp_row_sums(d.reshape(1, -1))[0] * cell_volume)
    return -plogp_row_sums(d) * cell_volume


def _kth_gap_1d(x: np.ndarray, k: int, order=None) -> np.ndarray:
    """Distance from each point of a 1-D sample to its k-th nearest other
    point, in sample order; `order` is a permutation that sorts x, found
    by `argsort` when not given.

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
    if order is None:
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


# Cephes `psi`: Euler's constant and the coefficients of its asymptotic series
_EULER = 0.57721566490153286061
_PSI_A = (8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3,
          -4.16666666666666666667e-3, 3.96825396825396825397e-3, -8.33333333333333333333e-3,
          8.33333333333333333333e-2)


def digamma_int(n: int) -> float:
    """The digamma function at a positive integer n, bit-equal to
    `scipy.special.digamma(n)`.

    It repeats Cephes `psi`, which scipy runs for positive reals: up to 10,
    the harmonic sum 1/1 + ... + 1/(n-1) in that order, minus Euler's
    constant; above, log(n) - 0.5/n - z * A(z) with z = 1/n^2 and A the
    series polynomial evaluated by Horner's rule (Cephes `polevl`).
    """
    if n <= 10:
        y = 0.0
        for i in range(1, n):  # not `sum`, which compensates from Python 3.12 on
            y += 1.0 / i
        return y - _EULER
    s = float(n)
    z = 1.0 / (s * s)
    poly = 0.0
    for a in _PSI_A:
        poly = poly * z + a
    return math.log(s) - 0.5 / s - z * poly


@lru_cache(maxsize=4)
def _unit_jitter(shape: tuple) -> np.ndarray:
    """The fixed-seed standard normals behind the kNN tie-break jitter.

    Every call with one sample shape draws the same values, so they are
    drawn once per shape and shared read-only.
    """
    z = np.random.default_rng(0x5EED).standard_normal(shape)
    z.setflags(write=False)
    return z


def knn_entropy_nats(samples, k: int = 4, order=None, return_order: bool = False):
    """Kozachenko-Leonenko k-NN entropy estimate for equal-weight samples.

    Uses the Chebyshev norm, for which the unit-ball volume term is
    d * log(2). A deterministic jitter (fixed internal seed) breaks ties
    between duplicated samples so the k-th neighbour distance stays
    positive; the jitter scale is far below any meaningful sample spread.

    One-dimensional samples take the k-th neighbour distance from the
    sorted sample (:func:`_kth_gap_1d`, O(n log n)) instead of a KD-tree.
    Both compute each distance as the same difference of two jittered
    values and the distances are averaged in sample order, so the estimate
    is bit-identical to the tree query; samples with d >= 2 use the tree,
    the only use of scipy here.

    `order` is a hint for a 1-D sample: a permutation of range(n) that
    may sort the jittered sample, such as the order of an earlier sample
    that an increasing map carried here. It is used only if the jittered
    values it gathers are non-decreasing, an exact check that fails at any
    NaN; otherwise the sample is sorted by `argsort`. Every permutation
    that sorts the sample gives the same gaps bit for bit, so the estimate
    does not depend on the hint. With `return_order` the result is
    (estimate, the permutation the sample was sorted by), the permutation
    None for d >= 2, which ignores the hint.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got k={k!r}")
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
        v = xj[:, 0]
        if order is None or not _sorts(order, v):
            order = np.argsort(v)
        eps = _kth_gap_1d(v, k, order)
    else:
        from scipy.spatial import cKDTree

        dist, _ = cKDTree(xj).query(xj, k=k + 1, p=np.inf)
        eps = dist[:, k]
        order = None
    h = float(digamma_int(n) - digamma_int(k) + d * np.log(2.0) + d * np.mean(np.log(eps)))
    return (h, order) if return_order else h


def _sorts(order, x: np.ndarray) -> bool:
    """Whether the permutation `order` of x's indices sorts x: x[order] is
    non-decreasing, which is False wherever a NaN is compared."""
    if len(order) != x.size:
        return False
    s = x[order]
    return bool(np.all(s[1:] >= s[:-1]))
