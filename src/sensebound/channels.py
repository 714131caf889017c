"""Memoryless observation channels p(y | z).

Each channel writes its law once, as `observe(X, W)`: the observations of
states X given `noise_dim` unit normals per observation, one row each or
a single state; `sample` feeds it normals from a generator. Its
log-likelihood in nats is `log_density_batch`, for a block of states, and
the twice-differentiable kinds give its closed-form Hessian in the state,
`hessian`. Under a noise schedule, the constructor's `gamma`, the channel
of step t is `at(t)`. The library spans the regimes the experiment suite
needs:

- linear-gaussian: exactly solvable baseline (Kalman-compatible)
- tanh-gaussian:   smooth, log-concave saturating nonlinearity
- cubic-gaussian:  smooth with vanishing sensitivity at the origin
- sign-quantizer:  hard finite-information quantizer (non-smooth, discrete)
- modulo-gaussian: wrapped Gaussian; smooth but violates log-concavity
"""

from typing import Optional

import numpy as np

from .errors import DimensionMismatch, UnsupportedDerivative

_LOG_2PI = float(np.log(2.0 * np.pi))


def rows_matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X, or for X itself when it is one vector.

    Each row goes through the kernel the single product `M @ x` calls
    (batched matmul runs one product per row), so a row's bits are the
    scalar product's and do not depend on the block around it.
    """
    return np.matmul(M, X[..., None])[..., 0]


def _check_gamma(gamma) -> Optional[float]:
    """A noise schedule's decay as a float in (0, 1], or None for none."""
    if gamma is None:
        return None
    gamma = float(gamma)
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    return gamma


def check_spd(R: np.ndarray, name: str = "R") -> np.ndarray:
    """R as a float matrix, checked square, symmetric and positive definite
    (Cholesky); a channel's R and a Gaussian prior's cov take this check."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if R.shape[0] != R.shape[1]:
        raise DimensionMismatch(f"{name} must be square")
    if np.max(np.abs(R - R.T)) > 1e-12 * max(1.0, np.max(np.abs(R))):
        raise DimensionMismatch(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise DimensionMismatch(f"{name} must be positive definite") from exc
    return R


class ChannelModel:
    """Base interface; concrete channels fill in the law-specific parts."""

    kind: str = "abstract"
    smoothness: str = "C2"
    support: str = "continuous"
    # the noise schedule's decay: the channel of step t observes with its
    # noise scaled by gamma**t; a kind with noise takes it as a parameter
    gamma: Optional[float] = None

    @property
    def obs_dim(self) -> int:
        raise NotImplementedError

    @property
    def state_dim(self) -> int:
        """Length of the state the channel observes (coordinatewise: obs_dim)."""
        return self.obs_dim

    @property
    def noise_dim(self) -> int:
        """Unit normals drawn per observation."""
        return self.obs_dim

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.state_dim:
            raise DimensionMismatch(
                f"{self.kind} channel expects a state of length {self.state_dim}, "
                f"got {x.shape[0]}"
            )
        return x

    def observe(self, X, W) -> np.ndarray:
        """The observations of the states X (rows, or one state) given the
        unit normals W (`noise_dim` per observation): the channel's law."""
        raise NotImplementedError

    def sample(self, x, rng) -> np.ndarray:
        """One observation of state x, its noise drawn from rng."""
        return self.observe(self._check_x(x), rng.standard_normal(self.noise_dim))

    def log_density_batch(self, y, X) -> np.ndarray:
        """Log-likelihood in nats for each state row of X against a fixed y."""
        raise NotImplementedError

    def hessian(self, y, x) -> np.ndarray:
        """The Hessian in the state x of the log-likelihood of y, symmetrised;
        raises `UnsupportedDerivative` for a kind that is not C2."""
        self._require_smooth()
        H = self._hessian(y, x)
        return 0.5 * (H + H.T)

    def _hessian(self, y, x) -> np.ndarray:
        raise NotImplementedError

    def at(self, t: int) -> "ChannelModel":
        """The channel of step t: this one, or with a schedule this one with
        its noise scaled by gamma**t."""
        return self if self.gamma is None else self.with_noise_scale(self.gamma**t)

    def _require_smooth(self):
        if self.smoothness != "C2":
            raise UnsupportedDerivative(
                f"channel kind {self.kind!r} has no C2 log-likelihood"
            )


class _GaussianNoiseChannel(ChannelModel):
    """Shared machinery for y = g(x) + v, v ~ N(0, R)."""

    def __init__(self, R, gamma=None):
        self.gamma = _check_gamma(gamma)
        R = check_spd(R)
        self.R = R
        self._R_inv = np.linalg.inv(R)
        self._chol = np.linalg.cholesky(R)
        sign, logdet = np.linalg.slogdet(R)
        self._log_norm = -0.5 * (R.shape[0] * _LOG_2PI + logdet)

    @property
    def obs_dim(self) -> int:
        return self.R.shape[0]

    # g, g', g'' are elementwise; LinearGaussianChannel has g = C x and
    # overrides `_hessian`.
    def _g(self, X):
        raise NotImplementedError

    def _g1(self, X):
        raise NotImplementedError

    def _g2(self, X):
        raise NotImplementedError

    def observe(self, X, W) -> np.ndarray:
        return self._g(X) + rows_matvec(self._chol, W)

    def log_density_batch(self, y, X) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        E = y[None, :] - self._g(X)
        return self._log_norm - 0.5 * np.einsum("ij,jk,ik->i", E, self._R_inv, E)

    def _hessian(self, y, x) -> np.ndarray:
        x = self._check_x(x)
        e = np.asarray(y, dtype=float).reshape(-1) - self._g(x)
        J = np.diag(self._g1(x))
        return -J @ self._R_inv @ J + np.diag(self._R_inv @ e * self._g2(x))

    def _scaled_R(self, scale: float) -> np.ndarray:
        if scale <= 0:
            raise ValueError("noise scale must be positive")
        return self.R * scale


class LinearGaussianChannel(_GaussianNoiseChannel):
    """y = C x + v."""

    kind = "linear-gaussian"

    def __init__(self, C=1.0, R=1.0, gamma=None):
        C = np.atleast_2d(np.asarray(C, dtype=float))
        super().__init__(R, gamma)
        if C.shape[0] != self.R.shape[0]:
            raise DimensionMismatch(
                f"C has {C.shape[0]} rows but R is {self.R.shape[0]}x{self.R.shape[0]}"
            )
        self.C = C

    @property
    def state_dim(self) -> int:
        return self.C.shape[1]

    def _g(self, X):
        return rows_matvec(self.C, X)

    def _hessian(self, y, x) -> np.ndarray:
        self._check_x(x)
        return -self.C.T @ self._R_inv @ self.C

    def with_noise_scale(self, scale: float) -> "LinearGaussianChannel":
        return LinearGaussianChannel(self.C, self._scaled_R(scale))


class TanhGaussianChannel(_GaussianNoiseChannel):
    """y_i = tanh(scale * x_i) + v_i.

    With g = tanh(scale x) and residual e = y - g, the log-likelihood
    curvature in x is proportional to -(1 - g^2)(1 - g^2 + 2 g e): the
    channel is log-concave on the region |scale x| <= 0.5 with residuals
    within 0.4 of the mean response (roughly 4 noise sigmas at r = 0.01),
    and loses concavity for large opposing residuals.
    """

    kind = "tanh-gaussian"

    def __init__(self, scale=1.0, R=1.0, gamma=None):
        super().__init__(R, gamma)
        self.scale = float(scale)

    def _g(self, X):
        return np.tanh(self.scale * X)

    def _g1(self, x):
        return self.scale * (1.0 - np.tanh(self.scale * x) ** 2)

    def _g2(self, x):
        g = np.tanh(self.scale * x)
        return -2.0 * self.scale**2 * g * (1.0 - g**2)

    def with_noise_scale(self, scale: float) -> "TanhGaussianChannel":
        return TanhGaussianChannel(self.scale, self._scaled_R(scale))


class CubicGaussianChannel(_GaussianNoiseChannel):
    """y_i = x_i^3 + v_i."""

    kind = "cubic-gaussian"

    def __init__(self, R=1.0, gamma=None):
        super().__init__(R, gamma)

    def _g(self, X):
        return X**3

    def _g1(self, x):
        return 3.0 * x**2

    def _g2(self, x):
        return 6.0 * x

    def with_noise_scale(self, scale: float) -> "CubicGaussianChannel":
        return CubicGaussianChannel(self._scaled_R(scale))


class SignQuantizerChannel(ChannelModel):
    """Deterministic coordinatewise quantizer.

    The default two-level form reports sign(x_i) as +/-1. More levels use
    unit-spaced thresholds centred on zero and report the cell index.
    """

    kind = "sign-quantizer"
    smoothness = "non-smooth"
    support = "discrete"
    noise_dim = 0

    def __init__(self, levels: int = 2, dim: int = 1):
        self.levels = int(levels)
        self.dim = int(dim)
        if self.levels < 2:
            raise ValueError("need at least 2 quantizer levels")
        self.thresholds = np.arange(self.levels - 1) - (self.levels - 2) / 2.0

    @property
    def obs_dim(self) -> int:
        return self.dim

    def _cells(self, X) -> np.ndarray:
        """The cell index, 0..levels-1, of every coordinate of X."""
        return np.searchsorted(self.thresholds, X, side="left")

    def _quantize(self, X) -> np.ndarray:
        cells = self._cells(X).astype(float)
        if self.levels == 2:
            return 2.0 * cells - 1.0
        return cells

    def observe(self, X, W) -> np.ndarray:
        return self._quantize(X)

    def bins(self, X):
        """(bin of each state row's observation, number of bins K).

        The channel is noiseless, so a state's observation is its cells, read
        here as the mixed-radix number in 0..K-1 with the first coordinate
        most significant: bins ascend in the lexicographic order that
        `np.unique(axis=0)` gives the observations.
        """
        cells = self._cells(X)
        bins = cells[..., 0]
        for j in range(1, cells.shape[-1]):
            bins = bins * self.levels + cells[..., j]
        return bins, self.levels ** cells.shape[-1]

    def log_density_batch(self, y, X) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        match = np.all(self._quantize(X) == y[None, :], axis=1)
        return np.where(match, 0.0, -np.inf)


class ModuloGaussianChannel(ChannelModel):
    """y_i = (x_i + v_i) mod period, v_i ~ N(0, r) independently.

    The observation density is a wrapped Gaussian, smooth in x but
    periodic, so its log-likelihood curvature changes sign: the standard
    log-concavity counterexample.
    """

    kind = "modulo-gaussian"

    def __init__(self, period=1.0, r=0.04, dim: int = 1, gamma=None):
        self.gamma = _check_gamma(gamma)
        self.period = float(period)
        self.r = float(r)
        self.dim = int(dim)
        if self.period <= 0 or self.r <= 0:
            raise ValueError("period and r must be positive")
        sigma = np.sqrt(self.r)
        self._k_span = max(2, int(np.ceil(10.0 * sigma / self.period)) + 1)

    @property
    def obs_dim(self) -> int:
        return self.dim

    def observe(self, X, W) -> np.ndarray:
        return np.mod(X + np.sqrt(self.r) * W, self.period)

    def _wrap_terms(self, y, X):
        """Per-coordinate offsets d_k = y + k*period - x over the wrap window."""
        k0 = np.round((X - y[None, :]) / self.period)
        ks = k0[..., None] + np.arange(-self._k_span, self._k_span + 1)
        return y[None, :, None] + ks * self.period - X[..., None]

    def log_density_batch(self, y, X) -> np.ndarray:
        from scipy.special import logsumexp

        y = np.asarray(y, dtype=float).reshape(-1)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = self._wrap_terms(y, X)
        per_coord = logsumexp(-0.5 * d * d / self.r, axis=-1) - 0.5 * np.log(
            2.0 * np.pi * self.r
        )
        return np.sum(per_coord, axis=1)

    def _hessian(self, y, x) -> np.ndarray:
        from scipy.special import logsumexp

        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        d = self._wrap_terms(y, x[None, :])[0]  # (dim, n_k)
        logw = -0.5 * d * d / self.r
        w = np.exp(logw - logsumexp(logw, axis=-1, keepdims=True))
        mean_d = np.sum(w * d, axis=-1)
        mean_d2 = np.sum(w * d * d, axis=-1)
        return np.diag((mean_d2 - mean_d**2) / self.r**2 - 1.0 / self.r)

    def with_noise_scale(self, scale: float) -> "ModuloGaussianChannel":
        if scale <= 0:
            raise ValueError("noise scale must be positive")
        return ModuloGaussianChannel(self.period, self.r * scale, self.dim)


# The channel kinds. A kind's config keys are its constructor's parameters.
CHANNELS = {
    cls.kind: cls
    for cls in (LinearGaussianChannel, TanhGaussianChannel, CubicGaussianChannel,
                SignQuantizerChannel, ModuloGaussianChannel)
}


def make_channel(kind: str, **params) -> ChannelModel:
    if kind not in CHANNELS:
        raise ValueError(f"unknown channel kind {kind!r}; known: {sorted(CHANNELS)}")
    return CHANNELS[kind](**params)
