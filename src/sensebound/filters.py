"""Posterior tracking for the unstable modes: p(z_t^u | y^t).

Three interchangeable belief representations:

- Gaussian:  exact Kalman recursion, valid for the linear-gaussian channel.
- Grid:      dense discretisation (dim <= 2), the near-exact oracle for
             arbitrary channels. The grid re-centres on the pushed-forward
             posterior each predict, half-width 8 standard deviations.
- Particles: bootstrap filter with systematic resampling, the scalability
             path for everything else.

The predict step pushes the belief through z -> A_u z + B_u u exactly, so
predicted entropy exceeds the previous posterior entropy by the expansion
rate up to representation error.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from .channels import ChannelModel, LinearGaussianChannel
from .entropy import (
    gaussian_entropy_nats,
    grid_entropy_nats,
    knn_entropy_nats,
    nats_to_bits,
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

    def nodes_per_axis(self) -> int:
        return 2 * int(round(self.half_width_stds * self.cells_per_std)) + 1


DEFAULT_GRID_SPEC = GridSpec()


def _condition_number(cov: np.ndarray) -> float:
    cov = np.atleast_2d(cov) + COV_REGULARIZER * np.eye(np.atleast_2d(cov).shape[0])
    vals = np.linalg.eigvalsh(cov)
    if vals[0] <= 0.0:
        return float("inf")
    return float(vals[-1] / vals[0])


class Belief:
    """Common surface of the three posterior representations."""

    representation = "abstract"

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
        raise NotImplementedError

    def _pushed(self, A: np.ndarray, shift: np.ndarray, grid_spec: GridSpec) -> "Belief":
        """The belief of A z + shift, one step later (used by `predict`)."""
        raise NotImplementedError

    def _conditioned(self, ch: ChannelModel, y, rng, resample_fraction: float):
        """(posterior given y, resampled flag) (used by `update`)."""
        raise NotImplementedError

    def _weighted_points(self):
        """(points, masses) of a discrete representation of the belief."""
        raise IncompatibleChannel("discrete predictive needs a grid or particle belief")


@dataclass(frozen=True)
class GaussianBelief(Belief):
    representation = "gaussian"

    mean_vec: np.ndarray
    cov_mat: np.ndarray
    t: int = 0
    kind: str = "posterior"

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean_vec, dtype=float))
        P = np.atleast_2d(np.asarray(self.cov_mat, dtype=float))
        if P.shape != (m.size, m.size):
            raise DimensionMismatch(f"cov shape {P.shape} vs mean length {m.size}")
        P = 0.5 * (P + P.T)
        if np.min(np.linalg.eigvalsh(P)) < -1e-10:
            raise SingularCovariance("covariance must be positive semidefinite")
        object.__setattr__(self, "mean_vec", m)
        object.__setattr__(self, "cov_mat", P)

    @property
    def dim(self) -> int:
        return self.mean_vec.size

    def _entropy_bits(self) -> float:
        return nats_to_bits(gaussian_entropy_nats(self.cov_mat))

    def mean(self) -> np.ndarray:
        return self.mean_vec.copy()

    def cov(self) -> np.ndarray:
        return self.cov_mat.copy()

    def to_json_dict(self) -> dict:
        return {
            "representation": "gaussian",
            "t": self.t,
            "kind": self.kind,
            "mean": self.mean_vec.tolist(),
            "cov": self.cov_mat.tolist(),
        }

    def _pushed(self, A, shift, grid_spec):
        return GaussianBelief(
            A @ self.mean_vec + shift, A @ self.cov_mat @ A.T, t=self.t + 1, kind="predicted"
        )

    def _conditioned(self, ch, y, rng, resample_fraction):
        if not isinstance(ch, LinearGaussianChannel):
            raise IncompatibleChannel(
                "the Gaussian/Kalman representation is exact only for the "
                "linear-gaussian channel; use a grid or particle filter"
            )
        y = np.asarray(y, dtype=float).reshape(-1)
        C, R, P = ch.C, ch.R, self.cov_mat
        K = self.kalman_gain(ch)
        mean = self.mean_vec + K @ (y - C @ self.mean_vec)
        I_KC = np.eye(self.dim) - K @ C
        cov = I_KC @ P @ I_KC.T + K @ R @ K.T  # Joseph form
        return GaussianBelief(mean, cov, t=self.t, kind="posterior"), False

    def kalman_gain(self, ch: LinearGaussianChannel) -> np.ndarray:
        """K = P C^T (C P C^T + R)^{-1}; it depends on the covariance only."""
        C, P = ch.C, self.cov_mat
        S = C @ P @ C.T + ch.R
        return np.linalg.solve(S.T, C @ P).T


@dataclass(frozen=True)
class GridBelief(Belief):
    representation = "grid"

    axes: tuple  # per-dim uniform node arrays
    density: np.ndarray
    t: int = 0
    kind: str = "posterior"

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if len(axes) not in (1, 2):
            raise DimensionMismatch("grid beliefs support 1 or 2 dimensions")
        d = np.asarray(self.density, dtype=float)
        if d.shape != tuple(len(a) for a in axes):
            raise DimensionMismatch(
                f"density shape {d.shape} does not match axes {[len(a) for a in axes]}"
            )
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise DegenerateLikelihood("grid density must be finite and nonnegative")
        mass = float(d.sum() * self.cell_volume_of(axes))
        if mass <= 0.0:
            raise DegenerateLikelihood("grid density has no mass")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "density", d / mass)

    @staticmethod
    def cell_volume_of(axes) -> float:
        return float(np.prod([a[1] - a[0] for a in axes]))

    @property
    def cell_volume(self) -> float:
        return self.cell_volume_of(self.axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (N, dim) array in C order."""
        if self.dim == 1:
            return self.axes[0][:, None]
        g0, g1 = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        return np.column_stack([g0.ravel(), g1.ravel()])

    def masses(self) -> np.ndarray:
        return self.density.ravel() * self.cell_volume

    def _entropy_bits(self) -> float:
        return nats_to_bits(grid_entropy_nats(self.density, self.cell_volume))

    def mean(self) -> np.ndarray:
        w = self.masses()
        return w @ self.nodes()

    def cov(self) -> np.ndarray:
        w = self.masses()
        pts = self.nodes()
        mu = w @ pts
        centered = pts - mu
        return (centered * w[:, None]).T @ centered

    def to_json_dict(self) -> dict:
        return {
            "representation": "grid",
            "t": self.t,
            "kind": self.kind,
            "axes": [
                {"start": float(a[0]), "step": float(a[1] - a[0]), "num": int(len(a))}
                for a in self.axes
            ],
            "density": self.density.tolist(),
        }

    def _pushed(self, A, shift, grid_spec):
        mu = A @ self.mean() + shift
        cov = A @ self.cov() @ A.T
        axes = grid_axes_from_moments(mu, cov, grid_spec)
        det = abs(np.linalg.det(A))
        A_inv = np.linalg.inv(A)
        # cubic interpolation keeps the re-gridding error well below the
        # entropy-shift and moment tolerances; clip the slight undershoot
        if self.dim == 1:
            z_old = (axes[0] - shift[0]) * A_inv[0, 0]
            dens = CubicSpline(self.axes[0], self.density)(z_old)
            inside = (z_old >= self.axes[0][0]) & (z_old <= self.axes[0][-1])
            dens = np.where(inside, dens, 0.0)
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.column_stack([g0.ravel(), g1.ravel()]) - shift
            interp = RegularGridInterpolator(
                self.axes, self.density, bounds_error=False, fill_value=0.0,
                method="cubic",
            )
            dens = interp(pts @ A_inv.T).reshape(g0.shape)
        dens = np.clip(dens, 0.0, None) / det
        return GridBelief(axes, dens, t=self.t + 1, kind="predicted")

    def _conditioned(self, ch, y, rng, resample_fraction):
        ll = ch.log_density_batch(y, self.nodes()).reshape(self.density.shape)
        peak = np.max(ll)
        if not np.isfinite(peak):
            raise DegenerateLikelihood("likelihood vanished on the whole grid")
        dens = self.density * np.exp(ll - peak)
        total = dens.sum() * self.cell_volume
        if total <= 0.0 or not np.isfinite(total):
            raise DegenerateLikelihood("posterior grid mass underflowed")
        return GridBelief(self.axes, dens, t=self.t, kind="posterior"), False

    def _weighted_points(self):
        return self.nodes(), self.masses()


# Liu-West shrinkage constant for the post-resample kernel: the plant has
# no process noise, so without rejuvenation resampled duplicates could
# never separate again and the support would collapse. The shrinkage
# kernel preserves the posterior mean and covariance exactly.
_LIU_WEST_A = 0.99


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
        """Deterministic systematic resample used for entropy estimation."""
        idx = _systematic_indices(self.weights, offset=0.5)
        return self.states[idx]

    def _entropy_bits(self) -> float:
        return nats_to_bits(knn_entropy_nats(self.equal_weight_states(), k=4))

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

    def _pushed(self, A, shift, grid_spec):
        return ParticleBelief(
            self.states @ A.T + shift, self.weights.copy(), t=self.t + 1, kind="predicted"
        )

    def _conditioned(self, ch, y, rng, resample_fraction):
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
        if post.ess() >= resample_fraction * post.n_particles:
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


def _systematic_indices(weights: np.ndarray, offset: float) -> np.ndarray:
    n = weights.shape[0]
    positions = (np.arange(n) + offset) / n
    return np.searchsorted(np.cumsum(weights), positions).clip(0, n - 1)


@dataclass(frozen=True)
class FilterStep:
    """One Bayes update: predicted belief in, posterior out."""

    belief_pred: Belief
    belief_post: Belief
    h_pred: float  # bits
    h_post: float  # bits
    cmi_realized: float  # bits, h_pred - h_post by construction
    cond_number: float
    cmi_channel: Optional[float] = None  # bits; discrete channels only
    resampled: bool = False

    @property
    def t(self) -> int:
        return self.belief_post.t


# ---------------------------------------------------------------------------
# predict / update


def grid_axes_from_moments(mean, cov, spec: GridSpec) -> tuple:
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    dim = mean.size
    n_axis = spec.nodes_per_axis()
    if n_axis**dim > spec.max_cells:
        raise GridOverflow(
            f"{n_axis}^{dim} cells exceed budget {spec.max_cells}"
        )
    axes = []
    for i in range(dim):
        sigma = max(float(np.sqrt(max(cov[i, i], 0.0))), 1e-12)
        half = spec.half_width_stds * sigma
        axes.append(np.linspace(mean[i] - half, mean[i] + half, n_axis))
    return tuple(axes)


def predict(belief: Belief, decomp, u, grid_spec: GridSpec = DEFAULT_GRID_SPEC) -> Belief:
    """Push a posterior at time t through the unstable dynamics to t+1."""
    A = np.asarray(decomp.A_u, dtype=float)
    B = np.asarray(decomp.B_u, dtype=float)
    u = np.asarray(u, dtype=float).reshape(-1)
    return belief._pushed(A, B @ u, grid_spec)


def update(
    belief_pred: Belief,
    ch: ChannelModel,
    y,
    rng=None,
    resample_fraction: float = 0.5,
) -> FilterStep:
    """Condition a predicted belief on observation y.

    Bootstrap particle beliefs resample (systematic, via rng) when the
    effective sample size drops below resample_fraction * N. h_post can
    exceed h_pred for individual realizations; only the expectation of the
    drop is sign-constrained.
    """
    h_pred = belief_pred.entropy_bits()
    post, resampled = belief_pred._conditioned(ch, y, rng, resample_fraction)
    h_post = post.entropy_bits()
    cmi_channel = None
    if ch.support == "discrete":
        cmi_channel = _discrete_predictive_entropy_bits(belief_pred, ch)
    return FilterStep(
        belief_pred=belief_pred,
        belief_post=post,
        h_pred=h_pred,
        h_post=h_post,
        cmi_realized=h_pred - h_post,
        cond_number=post.cond_number(),
        cmi_channel=cmi_channel,
        resampled=resampled,
    )


def _discrete_predictive_entropy_bits(belief_pred: Belief, ch: ChannelModel) -> float:
    """Entropy (bits) of the predictive observation pmf under belief_pred.

    For a deterministic quantizer this equals the conditional mutual
    information carried by the observation.
    """
    pts, w = belief_pred._weighted_points()
    labels = ch.deterministic_labels(pts)
    _, inverse = np.unique(labels, axis=0, return_inverse=True)
    pmf = np.bincount(inverse, weights=w)
    pmf = pmf[pmf > 0]
    return float(-np.sum(pmf * np.log2(pmf)))


def moments(belief: Belief):
    """(mean, covariance, condition number) of a belief."""
    return belief.mean(), belief.cov(), belief.cond_number()


# ---------------------------------------------------------------------------
# initial beliefs


def make_initial_belief(
    prior,
    kind: str,
    grid_spec: GridSpec = DEFAULT_GRID_SPEC,
    n_particles: int = 2**14,
    rng=None,
) -> Belief:
    if kind in ("kalman", "gaussian"):
        return GaussianBelief(prior.mean, prior.cov, t=0, kind="predicted")
    if kind == "grid":
        axes = grid_axes_from_moments(prior.mean, prior.cov, grid_spec)
        if len(axes) == 1:
            pts = axes[0][:, None]
            dens = np.exp(prior.logpdf_batch(pts))
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.column_stack([g0.ravel(), g1.ravel()])
            dens = np.exp(prior.logpdf_batch(pts)).reshape(g0.shape)
        return GridBelief(axes, dens, t=0, kind="predicted")
    if kind == "particle":
        if rng is None:
            raise ValueError("particle initialisation needs an rng")
        states = prior.sample(rng, size=n_particles)
        return ParticleBelief(np.atleast_2d(states), None, t=0, kind="predicted")
    raise ValueError(f"unknown filter kind {kind!r}")

