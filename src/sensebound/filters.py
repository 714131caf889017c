"""Posterior tracking for the unstable modes: p(z_t^u | y^t).

Three interchangeable belief representations:

- Gaussian:  exact Kalman recursion, valid for the linear-gaussian channel.
- Grid:      dense discretisation (dim <= 2), the near-exact oracle for
             arbitrary channels. The grid re-centres on the pushed-forward
             posterior each predict, as the belief's `GridSpec` places it
             (by default a half-width of 8 standard deviations).
- Particles: bootstrap filter with systematic resampling, the scalability
             path for everything else.

A block of runs' beliefs is one belief with a leading batch axis: a
`GaussianBelief` with one mean row per run and the covariance they share,
or a `GridBelief` whose axes and density have one row per run. Each row
gets the bits its own belief would have.

The predict step pushes the belief through z -> A_u z + B_u u exactly, so
predicted entropy exceeds the previous posterior entropy by the expansion
rate up to representation error.
"""

import ctypes
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .channels import ChannelModel, LinearGaussianChannel, rows_matvec
from .entropy import (
    LN2,
    gaussian_entropy_nats,
    grid_entropy_nats,
    knn_entropy_nats,
    nats_to_bits,
    plogp_row_sums,
)
from .errors import (
    DegenerateLikelihood,
    DimensionMismatch,
    GridOverflow,
    IncompatibleChannel,
    SingularCovariance,
)

COV_REGULARIZER = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Adaptive grid policy: half-width in posterior stds and resolution."""

    half_width_stds: float = 8.0
    cells_per_std: int = 24
    max_cells: int = 2**20

    def __post_init__(self):
        # config values arrive as parsed JSON: hold the declared types
        object.__setattr__(self, "half_width_stds", float(self.half_width_stds))
        object.__setattr__(self, "cells_per_std", int(self.cells_per_std))
        object.__setattr__(self, "max_cells", int(self.max_cells))
        if self.nodes_per_axis() < 3:
            raise ValueError(
                f"half_width_stds = {self.half_width_stds} and cells_per_std = "
                f"{self.cells_per_std} give {self.nodes_per_axis()} nodes per axis; "
                "a grid needs at least 3"
            )

    def nodes_per_axis(self) -> int:
        return 2 * int(round(self.half_width_stds * self.cells_per_std)) + 1


DEFAULT_GRID_SPEC = GridSpec()
DEFAULT_PARTICLES = 2**14
_KNN_K = 4  # neighbours of a particle belief's kNN entropy estimate
MIN_PARTICLES = _KNN_K + 1  # the estimate needs more samples than neighbours


def _condition_number(cov: np.ndarray) -> float:
    cov = np.atleast_2d(cov) + COV_REGULARIZER * np.eye(np.atleast_2d(cov).shape[0])
    vals = np.linalg.eigvalsh(cov)
    if vals[0] <= 0.0:
        return float("inf")
    return float(vals[-1] / vals[0])


class Belief:
    """Common surface of the three posterior representations."""

    representation = "abstract"
    batch = ()  # the leading shape of a block of beliefs; a single belief has none
    degenerate = None  # a block's rows whose likelihood vanished (grids only)

    t: int
    kind: str  # "predicted" (given y^{t-1}) or "posterior" (given y^t)

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def entropy_bits(self) -> float:
        """Differential entropy in bits, evaluated once per belief.

        Beliefs are frozen, so the first evaluation is memoised on the
        instance: the entropy of a predicted belief serves both as the
        previous step's terminal value and as this update's h_pred.
        """
        h = self.__dict__.get("_h_bits")
        if h is None:
            h = self._entropy_bits()
            object.__setattr__(self, "_h_bits", h)
        return h

    def _entropy_bits(self) -> float:
        raise NotImplementedError

    def mean(self) -> np.ndarray:
        raise NotImplementedError

    def cov(self) -> np.ndarray:
        raise NotImplementedError

    def cond_number(self) -> float:
        return _condition_number(self.cov())

    def to_json_dict(self) -> dict:
        """The belief as JSON; a block gives one dict per row."""
        raise NotImplementedError

    def tiled(self, n_rows: int) -> "Belief":
        """A block of n_rows copies of this belief, its entropy evaluated once."""
        raise NotImplementedError(f"a {self.representation} belief has no block form")

    def take(self, keep) -> "Belief":
        """The rows of a block selected by `keep`, with their entropies if evaluated."""
        raise NotImplementedError

    def _pushed(self, A: np.ndarray, shift: np.ndarray) -> "Belief":
        """The belief of A z + shift, one step later (used by `predict`)."""
        raise NotImplementedError

    def _conditioned(self, ch: ChannelModel, y, rng):
        """(posterior given y, resampled flag) (used by `update`)."""
        raise NotImplementedError

    def _weighted_points(self):
        """(points, masses) of a discrete representation of the belief."""
        raise IncompatibleChannel("discrete predictive needs a grid or particle belief")


@dataclass(frozen=True)
class GaussianBelief(Belief):
    """N(mean_vec, cov_mat); a block has one mean row per run and the one
    covariance they share, so its entropy and condition number are single
    values and the Kalman gain is computed once for the block.

    The covariance side of a Kalman step does not read the means. The
    beliefs that `_pushed`, `_conditioned`, `tiled` and `take` derive from
    one constructed belief form a lineage, which shares a memo of that
    side: each transition keeps the exact bytes and shape of its last
    inputs (P, C and R for an update, P and A for a predict) and what they
    gave (the gain, the checked covariance and that covariance's entropy
    and condition number, once evaluated). A step whose inputs repeat
    those bit for bit, as every step does once the Riccati recursion
    reaches a fixed point in floating point, runs only its mean update;
    any other step computes its covariance side afresh. The memo holds no
    mean and no belief, and a belief built by the constructor starts a
    lineage with an empty one.
    """

    representation = "gaussian"

    mean_vec: np.ndarray
    cov_mat: np.ndarray
    t: int = 0
    kind: str = "posterior"

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean_vec, dtype=float))
        P = np.atleast_2d(np.asarray(self.cov_mat, dtype=float))
        if P.shape != (m.shape[-1],) * 2:
            raise DimensionMismatch(f"cov shape {P.shape} vs mean length {m.shape[-1]}")
        object.__setattr__(self, "mean_vec", m)
        object.__setattr__(self, "cov_mat", _checked_cov(P))
        object.__setattr__(self, "_cov_facts", {})  # of cov_mat: entropy bits, condition number
        object.__setattr__(self, "_memo", {})  # the lineage's: transition -> (inputs, outputs)

    def _with(self, mean_vec, **changes) -> "GaussianBelief":
        """A belief of this lineage with other means, and with the checked
        covariance and its facts in `changes` if it has another one."""
        out = object.__new__(GaussianBelief)
        out.__dict__.update(self.__dict__, mean_vec=mean_vec, **changes)
        return out

    @property
    def batch(self) -> tuple:
        return self.mean_vec.shape[:-1]

    @property
    def dim(self) -> int:
        return self.mean_vec.shape[-1]

    def _cov_fact(self, name, evaluate):
        """evaluate(cov_mat), once for every belief that shares cov_mat."""
        facts = self._cov_facts
        if name not in facts:
            facts[name] = evaluate(self.cov_mat)
        return facts[name]

    def entropy_bits(self) -> float:
        return self._cov_fact("h_bits", _gaussian_entropy_bits)

    def cond_number(self) -> float:
        return self._cov_fact("cond", _condition_number)

    def mean(self) -> np.ndarray:
        return self.mean_vec.copy()

    def cov(self) -> np.ndarray:
        return self.cov_mat.copy()

    def to_json_dict(self):
        cov = self.cov_mat.tolist()
        rows = [
            {"representation": "gaussian", "t": self.t, "kind": self.kind,
             "mean": m.tolist(), "cov": cov}
            for m in self.mean_vec.reshape(-1, self.dim)
        ]
        return rows if self.batch else rows[0]

    def tiled(self, n_rows):
        return self._with(np.tile(self.mean_vec, (n_rows, 1)))

    def take(self, keep):
        return self._with(self.mean_vec[keep])

    def _covariance_side(self, transition, *inputs) -> tuple:
        """transition(*inputs), or what it gave the last time this lineage
        called it on the same inputs, bit for bit."""
        key = tuple((a.shape, a.tobytes()) for a in inputs)
        last = self._memo.get(transition)
        if last is None or last[0] != key:
            last = self._memo[transition] = (key, transition(*inputs))
        return last[1]

    def _pushed(self, A, shift):
        cov, facts = self._covariance_side(_predicted_cov, self.cov_mat, A)
        return self._with(rows_matvec(A, self.mean_vec) + shift, cov_mat=cov,
                          _cov_facts=facts, t=self.t + 1, kind="predicted")

    def _conditioned(self, ch, y, rng):
        if not isinstance(ch, LinearGaussianChannel):
            raise IncompatibleChannel(
                "the Gaussian/Kalman representation is exact only for the "
                "linear-gaussian channel; use a grid or particle filter"
            )
        y = np.asarray(y, dtype=float).reshape(*self.batch, -1)
        C = ch.C
        K, cov, facts = self._covariance_side(_posterior_cov, self.cov_mat, C, ch.R)
        mean = self.mean_vec + rows_matvec(K, y - rows_matvec(C, self.mean_vec))
        return self._with(mean, cov_mat=cov, _cov_facts=facts, kind="posterior"), False


def _checked_cov(P: np.ndarray) -> np.ndarray:
    """The square matrix P symmetrised, once found positive semidefinite."""
    P = 0.5 * (P + P.T)
    if np.min(np.linalg.eigvalsh(P)) < -1e-10:
        raise SingularCovariance("covariance must be positive semidefinite")
    return P


def _gaussian_entropy_bits(P) -> float:
    return nats_to_bits(gaussian_entropy_nats(P))


# The covariance sides of a Kalman predict and update: each gives its new
# covariance, checked, with an empty dict for that covariance's facts.


def _predicted_cov(P, A):
    return _checked_cov(A @ P @ A.T), {}


def _posterior_cov(P, C, R):
    """Also the gain K, which the mean update reads."""
    K = np.linalg.solve((C @ P @ C.T + R).T, C @ P).T  # P C^T (C P C^T + R)^-1
    I_KC = np.eye(P.shape[0]) - K @ C
    return K, _checked_cov(I_KC @ P @ I_KC.T + K @ R @ K.T), {}  # Joseph form


@dataclass(frozen=True)
class GridBelief(Belief):
    """A density on a uniform grid, or a block of them; `spec` places the
    grid of each predict.

    Axis i is a (*batch, n_i) array of nodes and the density is (*batch,
    n_0, ...): a single belief has no batch, and a block holds one grid
    per row. Each method gives a row the bits the single belief of that row
    gives, so a row's bits do not depend on the block. `degenerate` marks
    the rows of a block posterior whose likelihood vanished, where a single
    belief raises DegenerateLikelihood; such a row keeps its predicted
    density and must leave the block.
    """

    representation = "grid"

    axes: tuple
    density: np.ndarray  # normalised on its grid, row by row
    t: int = 0
    kind: str = "posterior"
    spec: GridSpec = DEFAULT_GRID_SPEC
    degenerate: Optional[np.ndarray] = None

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if len(axes) not in (1, 2):
            raise DimensionMismatch("grid beliefs support 1 or 2 dimensions")
        batch = axes[0].shape[:-1]
        d = np.asarray(self.density, dtype=float)
        if d.shape != (*batch, *(a.shape[-1] for a in axes)) or any(
            a.shape[:-1] != batch for a in axes
        ):
            raise DimensionMismatch(
                f"density shape {d.shape} does not match axes {[a.shape for a in axes]}"
            )
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise DegenerateLikelihood("grid density must be finite and nonnegative")
        object.__setattr__(self, "axes", axes)
        mass = d.reshape(*batch, -1).sum(axis=-1) * self.cell_volume
        if np.any(mass <= 0.0):
            raise DegenerateLikelihood("grid density has no mass")
        object.__setattr__(self, "density", d / mass.reshape(*batch, *(1,) * len(axes)))

    def _with(self, axes, density, **changes) -> "GridBelief":
        """This belief on other grids whose densities are already normalised,
        taken as they are: normalising them again would move their bits."""
        out = object.__new__(GridBelief)
        out.__dict__.update(t=self.t, kind=self.kind, spec=self.spec, axes=axes, density=density)
        out.__dict__.update(changes)
        return out

    @property
    def batch(self) -> tuple:
        return self.axes[0].shape[:-1]

    @property
    def cell_volume(self):
        """The cell volume of each grid, one per row of a block."""
        a = self.axes
        v = a[0][..., 1] - a[0][..., 0]
        return v if len(a) == 1 else v * (a[1][..., 1] - a[1][..., 0])

    @property
    def dim(self) -> int:
        return len(self.axes)

    def nodes(self) -> np.ndarray:
        """All grid nodes as a (*batch, N, dim) array in C order."""
        return _grid_nodes(self.axes)

    def masses(self) -> np.ndarray:
        return self.density.reshape(*self.batch, -1) * self.cell_volume[..., None]

    def _entropy_bits(self):
        return grid_entropy_nats(self.density.reshape(*self.batch, -1), self.cell_volume) / LN2

    def _moments(self):
        """(means (*batch, dim), covariances (*batch, dim, dim)), evaluated
        once, each row by BLAS products on that row alone."""
        memo = self.__dict__.get("_moment_memo")
        if memo is None:
            w, pts = self.masses(), self.nodes()
            mu = np.matmul(w[..., None, :], pts)[..., 0, :]
            centered = pts - mu[..., None, :]
            cov = np.matmul((centered * w[..., None]).swapaxes(-1, -2), centered)
            memo = (mu, cov)
            object.__setattr__(self, "_moment_memo", memo)
        return memo

    def mean(self) -> np.ndarray:
        return self._moments()[0]

    def cov(self) -> np.ndarray:
        return self._moments()[1]

    def cond_number(self):
        cov = self.cov()
        if self.dim == 1:  # a 1x1 covariance is its own eigenvalue
            vals = cov[..., 0] + COV_REGULARIZER
        else:
            vals = np.linalg.eigvalsh(cov + COV_REGULARIZER * np.eye(self.dim))
        with np.errstate(invalid="ignore"):
            c = np.where(vals[..., 0] <= 0.0, np.inf, vals[..., -1] / vals[..., 0])
        return c if self.batch else float(c)

    def to_json_dict(self):
        rows = [
            {"representation": "grid", "t": self.t, "kind": self.kind,
             "axes": [{"start": float(a[0]), "step": float(a[1] - a[0]), "num": len(a)}
                      for a in row_axes],
             "density": d.tolist()}
            for *row_axes, d in zip(
                *(a.reshape(-1, a.shape[-1]) for a in self.axes),
                self.density.reshape(-1, *self.density.shape[len(self.batch):]),
            )
        ]
        return rows if self.batch else rows[0]

    def tiled(self, n_rows):
        rows = self._with(tuple(np.tile(a, (n_rows, 1)) for a in self.axes),
                          np.tile(self.density, (n_rows, *(1,) * self.dim)))
        object.__setattr__(rows, "_h_bits", np.full(n_rows, self.entropy_bits()))
        return rows

    def take(self, keep):
        rows = self._with(tuple(a[keep] for a in self.axes), self.density[keep])
        h = self.__dict__.get("_h_bits")
        if h is not None:
            object.__setattr__(rows, "_h_bits", h[keep])
        return rows

    def _pushed(self, A, shift):
        mu, cov = self._moments()
        mu = rows_matvec(A, mu) + shift
        cov = np.matmul(np.matmul(A, cov), A.T)
        axes = _rows_axes(mu, cov, self.spec)
        det = abs(np.linalg.det(A))
        A_inv = np.linalg.inv(A)
        # cubic interpolation keeps the re-gridding error well below the
        # entropy-shift and moment tolerances; clip the slight undershoot
        if self.dim == 1:
            x = self.axes[0]
            z_old = (axes[0] - shift) * A_inv[0, 0]
            dens = _rows_cubic_spline(x, self.density, z_old)
            dens = np.where((z_old >= x[..., :1]) & (z_old <= x[..., -1:]), dens, 0.0)
        elif self.batch:
            raise NotImplementedError("a block of 2-D grids has no re-grid; predict each alone")
        else:
            dens = _grid_bicubic(self.axes, self.density,
                                 (_grid_nodes(axes) - shift) @ A_inv.T).reshape(
                [len(a) for a in axes])
        dens = np.clip(dens, 0.0, None) / det
        return GridBelief(axes, dens, t=self.t + 1, kind="predicted", spec=self.spec)

    def _conditioned(self, ch, y, rng):
        # the likelihood is evaluated state by state, so the rows that saw
        # one observation (a quantizer has few) share one call
        pts = self.nodes()
        pts = pts.reshape(-1, *pts.shape[-2:])
        n = pts.shape[1]
        ll = np.empty(pts.shape[:2])
        seen, which = _unique_rows(np.asarray(y, dtype=float).reshape(len(pts), -1))
        for k, y_k in enumerate(seen):
            rows = np.flatnonzero(which == k)
            ll[rows] = ch.log_density_batch(y_k, pts[rows].reshape(-1, self.dim)).reshape(
                rows.size, n)
        ll = ll.reshape(*self.batch, -1)
        prior = self.density.reshape(ll.shape)
        peak = np.max(ll, axis=-1)
        bad = ~np.isfinite(peak)
        dens = prior * np.exp(ll - np.where(bad, 0.0, peak)[..., None])
        total = dens.sum(axis=-1) * self.cell_volume
        bad |= ~((total > 0.0) & np.isfinite(total))
        if not self.batch and bad:
            raise DegenerateLikelihood("the likelihood vanished or the posterior mass underflowed")
        post = np.where(bad[..., None], prior, dens / np.where(bad, 1.0, total)[..., None])
        return self._with(self.axes, post.reshape(self.density.shape), kind="posterior",
                          degenerate=bad), False

    def _weighted_points(self):
        return self.nodes(), self.masses()


def _grid_nodes(axes) -> np.ndarray:
    """The nodes of each grid, (*batch, N, dim) in C order."""
    if len(axes) == 1:
        return axes[0][..., None]
    g0, g1 = np.broadcast_arrays(axes[0][..., :, None], axes[1][..., None, :])
    return np.stack([g0, g1], axis=-1).reshape(*g0.shape[:-2], -1, 2)


def _rows_axes(mean: np.ndarray, cov: np.ndarray, spec: GridSpec) -> tuple:
    """The grid axes `spec` places around beliefs with means (*batch, dim)
    and covariances (*batch, dim, dim): axis i is (*batch, n), each row the
    nodes `np.linspace` gives, bit for bit."""
    dim = mean.shape[-1]
    num = spec.nodes_per_axis()
    if num**dim > spec.max_cells:
        raise GridOverflow(f"{num}^{dim} cells exceed budget {spec.max_cells}")
    j = np.arange(num, dtype=float)
    axes = []
    for i in range(dim):
        sigma = np.maximum(np.sqrt(np.maximum(cov[..., i, i], 0.0)), 1e-12)
        half = spec.half_width_stds * sigma
        lo, hi = mean[..., i] - half, mean[..., i] + half
        delta = hi - lo
        step = delta / (num - 1)
        nodes = j * step[..., None]
        flat = step == 0  # linspace's branch for a step that underflows
        if flat.any():
            nodes = np.where(flat[..., None], (j / (num - 1)) * delta[..., None], nodes)
        nodes += lo[..., None]
        nodes[..., -1] = hi
        axes.append(nodes)
    return tuple(axes)


@lru_cache(maxsize=None)
def _gtsv():
    """LAPACK dgtsv as `solve(dl, d, du, b)`: the solution of the
    tridiagonal system with sub-, main and super-diagonals dl, d, du and
    one right-hand side b (1-D float64 arrays, C-contiguous and writable,
    all four overwritten). A singular system raises LinAlgError.

    numpy's wheels bundle an ILP64 OpenBLAS whose LAPACK symbols carry the
    `scipy_` prefix and `64_` suffix. The routine is looked up once per
    process through the handle of the loaded `numpy.linalg._umath_linalg`
    extension (`dlsym` searches its dependencies too), so the re-grid maps
    no second LAPACK and imports no scipy. Only that known ILP64 name is
    used: an unsuffixed `dgtsv_` could take 32- or 64-bit integers. Where
    it is absent (numpy built on MKL or Accelerate, Windows) the public
    `scipy.linalg.lapack.dgtsv` solves instead; both are the reference
    LAPACK routine, with the same bits.
    """
    try:
        from numpy.linalg import _umath_linalg

        routine = ctypes.CDLL(_umath_linalg.__file__).scipy_dgtsv_64_
    except (ImportError, OSError, AttributeError):
        from scipy.linalg.lapack import dgtsv

        def solve(dl, d, du, b):
            *_, x, info = dgtsv(dl, d, du, b.reshape(-1, 1), True, True, True, True)
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")
            return x.reshape(b.shape)

        return solve

    int64 = ctypes.POINTER(ctypes.c_int64)
    vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS, WRITEABLE")
    routine.argtypes = [int64, int64, vector, vector, vector, vector, int64, int64]
    routine.restype = None

    def solve(dl, d, du, b):
        n = len(d)
        if dl.shape != (n - 1,) or du.shape != (n - 1,) or b.shape != (n,):
            raise ValueError(f"dgtsv: shapes {dl.shape} {d.shape} {du.shape} {b.shape} "
                             "do not form an n x n tridiagonal system")
        size, info = ctypes.c_int64(n), ctypes.c_int64(0)
        routine(size, ctypes.c_int64(1), dl, d, du, b, size, info)
        if info.value > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return b

    return solve


def _rows_cubic_spline(x: np.ndarray, y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row r is `CubicSpline(x[r], y[r])(q[r])`, bit for bit, at the queries
    inside [x[r, 0], x[r, -1]] (outside them it is some finite value). The
    rows run along the last axis, under any leading shape, a single grid's
    none included; this is the one 1-D re-grid.

    The node slopes are `_rows_spline_slopes`; PPoly's evaluation is
    reproduced term by term, by `_hermite`, from the interval
    searchsorted(x, q, "right") - 1 clipped to [0, n-2].
    """
    shape = q.shape
    x, y, q = (a.reshape(-1, a.shape[-1]) for a in (x, y, q))
    N, n = x.shape
    if n < 4:  # scipy's two- and three-node special cases
        from scipy.interpolate import CubicSpline

        return np.array([CubicSpline(a, b)(c) for a, b, c in zip(x, y, q)]).reshape(shape)
    s = _rows_spline_slopes(x, y)
    flat = _rows_interval(x, q) + n * np.arange(N)[:, None]
    x, y, s = x.ravel(), y.ravel(), s.ravel()
    return _hermite(y[flat], y[flat + 1], s[flat], s[flat + 1], x[flat + 1] - x[flat],
                    q - x[flat]).reshape(shape)


def _rows_spline_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The node slopes of `CubicSpline(x[r], y[r])` (not-a-knot ends) for
    every row r of the 2-D x and y, bit for bit when a row has 4 or more
    nodes.

    The arithmetic is scipy's, elementwise on rows: `CubicSpline.__init__`
    builds the tridiagonal system of the node slopes, and LAPACK dgtsv
    solves the N systems as one whose blocks are joined by zero
    off-diagonals (the routine `solve_banded((1, 1), ...)` calls; a zero
    coupling only ever adds exact zeros). Rows of 2 or 3 nodes are scipy's
    special cases, a line and a parabola, whose slopes are the spline's
    derivative at its nodes.
    """
    N, n = x.shape
    if n < 4:
        from scipy.interpolate import CubicSpline

        return np.array([CubicSpline(a, b)(a, 1) for a, b in zip(x, y)])
    dx = np.diff(x, axis=1)
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    slope = np.diff(y, axis=1) / dx

    # gtsv's three diagonals and right-hand side, one row per system
    diag, upper, lower = np.empty((N, n)), np.zeros((N, n)), np.zeros((N, n))
    b = np.empty((N, n))
    diag[:, 1:-1] = 2 * (dx[:, :-1] + dx[:, 1:])
    upper[:, 1:-1] = dx[:, :-1]
    lower[:, :-2] = dx[:, 1:]
    b[:, 1:-1] = 3 * (dx[:, 1:] * slope[:, :-1] + dx[:, :-1] * slope[:, 1:])
    d = x[:, 2] - x[:, 0]
    diag[:, 0], upper[:, 0] = dx[:, 1], d
    b[:, 0] = ((dx[:, 0] + 2 * d) * dx[:, 1] * slope[:, 0] + dx[:, 0] ** 2 * slope[:, 1]) / d
    d = x[:, -1] - x[:, -3]
    diag[:, -1], lower[:, -2] = dx[:, -2], d
    b[:, -1] = (dx[:, -1] ** 2 * slope[:, -2] + (2 * d + dx[:, -1]) * dx[:, -2] * slope[:, -1]) / d
    s = _gtsv()(lower.ravel()[:-1], diag.ravel(), upper.ravel()[:-1], b.ravel())
    return s.reshape(N, n)


def _hermite(y0, y1, s0, s1, h, u):
    """The cubic with values y0, y1 and slopes s0, s1 at the ends of an
    interval of width h, at offset u from its left end; elementwise, in the
    coefficients `CubicHermiteSpline` makes and the order PPoly sums them."""
    slope = (y1 - y0) / h
    t = (s0 + s1 - 2 * slope) / h
    c0, c1 = t / h, (slope - s0) / h - t
    uu = u * u
    return (((0.0 + y0) + s0 * u) + c1 * uu) + c0 * (uu * u)


def _grid_bicubic(axes, F, pts):
    """The not-a-knot tensor-product cubic spline of the grid values F on
    the two `axes` (de Boor, A Practical Guide to Splines, ch. 17) at the
    points pts (M, 2), and 0 outside the grid's box.

    The spline restricted to a node line is that line's 1-D spline, so its
    node derivatives are 1-D slope solves: F_x along axis 0, F_y along
    axis 1 and F_xy, the slopes of F_x along axis 1. Each cell is then the
    bicubic Hermite patch of its corners' values and derivatives, evaluated
    as four cubics along x and one along y.
    """
    x, y = axes
    Fx = _rows_spline_slopes(np.broadcast_to(x, F.shape[::-1]), F.T).T
    Fy = _rows_spline_slopes(np.broadcast_to(y, F.shape), F)
    Fxy = _rows_spline_slopes(np.broadcast_to(y, F.shape), Fx)
    px, py = pts[:, 0], pts[:, 1]
    i = _rows_interval(x[None], px[None])[0]
    j = _rows_interval(y[None], py[None])[0]
    hx, ux = x[i + 1] - x[i], px - x[i]
    ny = len(y)
    cell = i * ny + j  # the flat index of the cell's lower corner

    def along_x(V, Vx, k):  # the cubic along x on node line j + k
        v, vx, at = V.ravel(), Vx.ravel(), cell + k
        return _hermite(v[at], v[at + ny], vx[at], vx[at + ny], hx, ux)

    dens = _hermite(along_x(F, Fx, 0), along_x(F, Fx, 1), along_x(Fy, Fxy, 0),
                    along_x(Fy, Fxy, 1), y[j + 1] - y[j], py - y[j])
    inside = (px >= x[0]) & (px <= x[-1]) & (py >= y[0]) & (py <= y[-1])
    return np.where(inside, dens, 0.0)


def _rows_interval(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """clip(searchsorted(x[r], q[r], "right") - 1, 0, n - 2) for every row:
    a guess from the uniform spacing, moved until x[r, i] <= q < x[r, i+1]."""
    N, n = x.shape
    base = n * np.arange(N)[:, None]
    guess = np.clip((q - x[:, :1]) / (x[:, 1:2] - x[:, :1]), 0, n - 2)
    k = base + guess.astype(np.intp)
    flat = x.ravel()
    while True:
        up = (k < base + n - 2) & (flat[k + 1] <= q)
        down = (k > base) & (flat[k] > q)
        if not (up.any() or down.any()):
            return k - base
        k += up
        k -= down


# Liu-West shrinkage constant for the post-resample kernel: the plant has
# no process noise, so without rejuvenation resampled duplicates could
# never separate again and the support would collapse. The shrinkage
# kernel preserves the posterior mean and covariance exactly.
_LIU_WEST_A = 0.99
# a particle belief resamples when its effective sample size drops below
# this fraction of its particle count
_RESAMPLE_FRACTION = 0.5


@dataclass(frozen=True)
class ParticleBelief(Belief):
    representation = "particles"

    states: np.ndarray
    weights: Optional[np.ndarray] = None
    t: int = 0
    kind: str = "posterior"

    def __post_init__(self):
        x = np.asarray(self.states, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        w = self.weights
        if w is None:
            w = np.full(x.shape[0], 1.0 / x.shape[0])
            object.__setattr__(self, "_ew_idx", _equal_weight_indices(x.shape[0]))
        else:
            w = np.asarray(w, dtype=float)
            total = w.sum()
            if not np.isfinite(total) or total <= 0:
                raise DegenerateLikelihood("particle weights have no mass")
            w = w / total
        if w.shape[0] != x.shape[0]:
            raise DimensionMismatch("weights length must match particle count")
        object.__setattr__(self, "states", x)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    def ess(self) -> float:
        return float(1.0 / np.sum(self.weights**2))

    def equal_weight_states(self) -> np.ndarray:
        """Deterministic systematic resample used for entropy estimation.

        Its indices depend on the weights alone, so they are memoised on the
        instance, and `_pushed`, which keeps the weights, hands them on: a
        posterior and the prediction from it share one resample. A
        belief built with equal weights (`weights=None`) takes them from
        the cache of its particle count.
        """
        idx = self.__dict__.get("_ew_idx")
        if idx is None:
            idx = _systematic_indices(self.weights, offset=0.5)
            idx.setflags(write=False)  # shared with the beliefs pushed from this one
            object.__setattr__(self, "_ew_idx", idx)
        return self.states[idx]

    def _entropy_bits(self) -> float:
        """The kNN estimate on the equal-weight states. The permutation it
        sorts them by is memoised, and `_pushed` hands it on with the
        resample indices as the hint for the predicted belief's estimate."""
        h, order = knn_entropy_nats(self.equal_weight_states(), k=_KNN_K,
                                    order=self.__dict__.get("_knn_order"), return_order=True)
        object.__setattr__(self, "_knn_order", order)
        return nats_to_bits(h)

    def mean(self) -> np.ndarray:
        return self.weights @ self.states

    def cov(self) -> np.ndarray:
        mu = self.mean()
        centered = self.states - mu
        return (centered * self.weights[:, None]).T @ centered

    def to_json_dict(self) -> dict:
        return {
            "representation": "particles",
            "t": self.t,
            "kind": self.kind,
            "states": self.states.tolist(),
            "weights": self.weights.tolist(),
        }

    def _pushed(self, A, shift):
        """The cloud moved, its weights taken as they are (normalising them
        again would move their bits), with their resample indices and kNN
        order."""
        out = object.__new__(ParticleBelief)
        memo = {k: v for k, v in self.__dict__.items() if k in ("_ew_idx", "_knn_order")}
        out.__dict__.update(memo, states=self.states @ A.T + shift, weights=self.weights,
                            t=self.t + 1, kind="predicted")
        return out

    def _conditioned(self, ch, y, rng):
        with np.errstate(divide="ignore"):
            logw = np.log(self.weights) + ch.log_density_batch(y, self.states)
        peak = np.max(logw)
        if not np.isfinite(peak):
            raise DegenerateLikelihood("all particle weights underflowed")
        w = np.exp(logw - peak)
        w_sum = w.sum()
        if w_sum <= 0.0 or not np.isfinite(w_sum):
            raise DegenerateLikelihood("all particle weights underflowed")
        post = ParticleBelief(self.states.copy(), w / w_sum, t=self.t, kind="posterior")
        if post.ess() >= _RESAMPLE_FRACTION * post.n_particles:
            return post, False
        if rng is None:
            raise ValueError("particle update needs an rng once resampling triggers")
        idx = _systematic_indices(post.weights, offset=float(rng.random()))
        states = post.states[idx]
        mu = post.mean()
        cov = post.cov() + 1e-30 * np.eye(post.dim)
        a = _LIU_WEST_A
        h = np.sqrt(1.0 - a * a)
        chol = np.linalg.cholesky(cov)
        noise = rng.standard_normal(states.shape) @ (h * chol).T
        states = mu + a * (states - mu) + noise
        return ParticleBelief(states, None, t=self.t, kind="posterior"), True

    def _weighted_points(self):
        return self.states, self.weights


@lru_cache(maxsize=4)
def _equal_weight_indices(n: int) -> np.ndarray:
    """The offset-0.5 systematic indices of n equal weights, computed once
    per particle count and shared read-only."""
    idx = _systematic_indices(np.full(n, 1.0 / n), offset=0.5)
    idx.setflags(write=False)
    return idx


def _systematic_indices(weights: np.ndarray, offset: float) -> np.ndarray:
    """searchsorted(cumsum(weights), positions).clip(0, n - 1) for the
    systematic positions (j + offset) / n, without a binary search.

    Index j counts the cumsum values c_i < position j, which are those
    whose m_i = #{positions <= c_i} is at most j; so the indices are the
    running count of the m_i. The positions are uniform, so m_i is guessed
    as floor(c_i n - offset) + 1 and moved until position m_i - 1 <= c_i <
    position m_i, by exact compares.
    """
    n = weights.shape[0]
    positions = (np.arange(n) + offset) / n
    c = np.cumsum(weights)
    padded = np.concatenate([[-np.inf], positions, [np.inf]])  # position j is padded[j + 1]
    m = np.clip(np.floor(c * n - offset) + 1, 0, n).astype(np.intp)
    while True:
        up = padded[m + 1] <= c
        down = padded[m] > c
        if not (up.any() or down.any()):
            break
        m += up
        m -= down
    return np.cumsum(np.bincount(m, minlength=n + 1)[:n]).clip(0, n - 1)


@dataclass(frozen=True)
class FilterStep:
    """One Bayes update: the posterior and the entropies around it."""

    belief_post: Belief
    h_pred: float  # bits
    h_post: float  # bits
    cond_number: float
    cmi_channel: Optional[float] = None  # bits; discrete channels only
    resampled: bool = False

    @property
    def t(self) -> int:
        return self.belief_post.t


# ---------------------------------------------------------------------------
# predict / update


def predict(belief: Belief, decomp, u) -> Belief:
    """Push a posterior at time t through the unstable dynamics to t+1.

    A block of beliefs takes one input row per belief. A grid belief
    re-grids by its own `spec`.
    """
    A = np.asarray(decomp.A_u, dtype=float)
    B = np.asarray(decomp.B_u, dtype=float)
    u = np.asarray(u, dtype=float).reshape(*belief.batch, -1, 1)
    return belief._pushed(A, (B @ u)[..., 0])


def update(belief_pred: Belief, ch: ChannelModel, y, rng=None) -> FilterStep:
    """Condition a predicted belief on observation y.

    Bootstrap particle beliefs resample (systematic, via rng) when the
    effective sample size drops below `_RESAMPLE_FRACTION` of the particle
    count. h_post can exceed h_pred for individual realizations; only the
    expectation of the drop is sign-constrained.
    """
    h_pred = belief_pred.entropy_bits()
    post, resampled = belief_pred._conditioned(ch, y, rng)
    h_post = post.entropy_bits()
    cmi_channel = None
    if ch.support == "discrete":
        cmi_channel = _discrete_predictive_entropy_bits(belief_pred, ch)
    return FilterStep(
        belief_post=post,
        h_pred=h_pred,
        h_post=h_post,
        cond_number=post.cond_number(),
        cmi_channel=cmi_channel,
        resampled=resampled,
    )


def _discrete_predictive_entropy_bits(belief_pred: Belief, ch: ChannelModel):
    """Entropy (bits) of the predictive observation pmf under belief_pred,
    one per row for a block of beliefs.

    For a deterministic quantizer this equals the conditional mutual
    information carried by the observation.
    """
    pts, w = belief_pred._weighted_points()
    bins, k = ch.bins(pts)
    # a block: row r counts in bins r*K..r*K+K-1, so one bincount adds each
    # row's masses in the row's own order, as a bincount of that row would;
    # bins no point hits stay zero and drop out of the entropy
    rows = np.atleast_2d(w).shape[0]
    bins = bins.reshape(rows, -1) + k * np.arange(rows)[:, None]
    pmf = np.bincount(bins.ravel(), weights=w.ravel(), minlength=k * rows)
    h = -plogp_row_sums(pmf.reshape(rows, k), np.log2)
    return h if w.ndim > 1 else float(h[0])


def _unique_rows(a: np.ndarray):
    """The distinct rows of a (..., cols) array, sorted, and the index of
    each row among them: np.unique(axis=0, return_inverse=True) over the
    leading axes. With one column a 1-D unique gives the same order and
    indices without comparing rows, several times faster."""
    if a.shape[-1] == 1:
        values, inverse = np.unique(a[..., 0], return_inverse=True)
        return values[:, None], inverse.reshape(a.shape[:-1])
    values, inverse = np.unique(a.reshape(-1, a.shape[-1]), axis=0, return_inverse=True)
    return values, inverse.reshape(a.shape[:-1])


def moments(belief: Belief):
    """(mean, covariance, condition number) of a belief."""
    return belief.mean(), belief.cov(), belief.cond_number()


# ---------------------------------------------------------------------------
# initial beliefs


def make_initial_belief(
    prior,
    kind: str,
    grid_spec: GridSpec = DEFAULT_GRID_SPEC,
    n_particles: int = DEFAULT_PARTICLES,
    rng=None,
) -> Belief:
    if kind == "kalman":
        return GaussianBelief(prior.mean, prior.cov, t=0, kind="predicted")
    if kind == "grid":
        axes = _rows_axes(prior.mean, prior.cov, grid_spec)
        dens = np.exp(prior.logpdf_batch(_grid_nodes(axes))).reshape([len(a) for a in axes])
        return GridBelief(axes, dens, t=0, kind="predicted", spec=grid_spec)
    if kind == "particle":
        if rng is None:
            raise ValueError("particle initialisation needs an rng")
        states = prior.sample(rng, size=n_particles)
        return ParticleBelief(np.atleast_2d(states), None, t=0, kind="predicted")
    raise ValueError(f"unknown filter kind {kind!r}")

