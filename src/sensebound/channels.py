"""Memoryless observation channels p(y | z).

Each channel exposes sampling, log-likelihood evaluation in nats, and,
for the twice-differentiable kinds, closed-form gradient and Hessian with
respect to the state argument. The library spans the regimes the
experiment suite needs:

- linear-gaussian: exactly solvable baseline (Kalman-compatible)
- tanh-gaussian:   smooth, log-concave saturating nonlinearity
- cubic-gaussian:  smooth with vanishing sensitivity at the origin
- sign-quantizer:  hard finite-information quantizer (non-smooth, discrete)
- modulo-gaussian: wrapped Gaussian; smooth but violates log-concavity
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .errors import (
    DimensionMismatch,
    MissingInputHistory,
    UnsupportedDerivative,
)

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class LikelihoodEval:
    """Log-likelihood value (nats) and optional state derivatives."""

    loglik: float
    grad: Optional[np.ndarray] = None
    hessian: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.hessian is not None:
            H = np.atleast_2d(np.asarray(self.hessian, dtype=float))
            object.__setattr__(self, "hessian", 0.5 * (H + H.T))
        if self.grad is not None:
            object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float).reshape(-1))


def _check_spd(R: np.ndarray, name: str = "R") -> np.ndarray:
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

    @property
    def obs_dim(self) -> int:
        raise NotImplementedError

    def sample(self, x, rng) -> np.ndarray:
        raise NotImplementedError

    def log_density_batch(self, y, X) -> np.ndarray:
        """Log-likelihood in nats for each state row of X against a fixed y."""
        raise NotImplementedError

    def log_likelihood(self, y, x, derivatives: bool = True) -> LikelihoodEval:
        raise NotImplementedError

    def _require_smooth(self):
        if self.smoothness != "C2":
            raise UnsupportedDerivative(
                f"channel kind {self.kind!r} has no C2 log-likelihood"
            )


class _GaussianNoiseChannel(ChannelModel):
    """Shared machinery for y = g(x) + v, v ~ N(0, R)."""

    def __init__(self, R):
        R = _check_spd(R)
        self.R = R
        self._R_inv = np.linalg.inv(R)
        self._chol = np.linalg.cholesky(R)
        sign, logdet = np.linalg.slogdet(R)
        self._log_norm = -0.5 * (R.shape[0] * _LOG_2PI + logdet)

    @property
    def obs_dim(self) -> int:
        return self.R.shape[0]

    @property
    def noise_factor(self) -> np.ndarray:
        """Lower Cholesky factor L of R: the noise is L w, w ~ N(0, I)."""
        return self._chol

    # g, g', g'' are elementwise; LinearGaussianChannel overrides everything.
    def _g(self, X):
        raise NotImplementedError

    def _g1(self, X):
        raise NotImplementedError

    def _g2(self, X):
        raise NotImplementedError

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.obs_dim:
            raise DimensionMismatch(
                f"{self.kind} channel maps R^{self.obs_dim} observations; "
                f"got state of length {x.shape[0]}"
            )
        return x

    def sample(self, x, rng) -> np.ndarray:
        x = self._check_x(x)
        noise = self._chol @ rng.standard_normal(self.obs_dim)
        return self._g(x) + noise

    def log_density_batch(self, y, X) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        E = y[None, :] - self._g(X)
        return self._log_norm - 0.5 * np.einsum("ij,jk,ik->i", E, self._R_inv, E)

    def log_likelihood(self, y, x, derivatives: bool = True) -> LikelihoodEval:
        x = self._check_x(x)
        y = np.asarray(y, dtype=float).reshape(-1)
        e = y - self._g(x)
        ll = float(self._log_norm - 0.5 * e @ self._R_inv @ e)
        if not derivatives:
            return LikelihoodEval(loglik=ll)
        slope = self._g1(x)
        J = np.diag(slope)
        w = self._R_inv @ e
        grad = J @ w
        hess = -J @ self._R_inv @ J + np.diag(w * self._g2(x))
        return LikelihoodEval(loglik=ll, grad=grad, hessian=hess)

    def _scaled_R(self, scale: float) -> np.ndarray:
        if scale <= 0:
            raise ValueError("noise scale must be positive")
        return self.R * scale


class LinearGaussianChannel(_GaussianNoiseChannel):
    """y = C x + v."""

    kind = "linear-gaussian"

    def __init__(self, C, R):
        C = np.atleast_2d(np.asarray(C, dtype=float))
        super().__init__(R)
        if C.shape[0] != self.R.shape[0]:
            raise DimensionMismatch(
                f"C has {C.shape[0]} rows but R is {self.R.shape[0]}x{self.R.shape[0]}"
            )
        self.C = C

    @property
    def state_dim(self) -> int:
        return self.C.shape[1]

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.state_dim:
            raise DimensionMismatch(
                f"channel expects state of length {self.state_dim}, got {x.shape[0]}"
            )
        return x

    def sample(self, x, rng) -> np.ndarray:
        x = self._check_x(x)
        return self.C @ x + self._chol @ rng.standard_normal(self.obs_dim)

    def log_density_batch(self, y, X) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        E = y[None, :] - X @ self.C.T
        return self._log_norm - 0.5 * np.einsum("ij,jk,ik->i", E, self._R_inv, E)

    def log_likelihood(self, y, x, derivatives: bool = True) -> LikelihoodEval:
        x = self._check_x(x)
        y = np.asarray(y, dtype=float).reshape(-1)
        e = y - self.C @ x
        ll = float(self._log_norm - 0.5 * e @ self._R_inv @ e)
        if not derivatives:
            return LikelihoodEval(loglik=ll)
        grad = self.C.T @ self._R_inv @ e
        hess = -self.C.T @ self._R_inv @ self.C
        return LikelihoodEval(loglik=ll, grad=grad, hessian=hess)

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

    def __init__(self, scale=1.0, R=1.0):
        super().__init__(R)
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

    def __init__(self, R=1.0):
        super().__init__(R)

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

    def __init__(self, levels: int = 2, dim: int = 1):
        if levels < 2:
            raise ValueError("need at least 2 quantizer levels")
        self.levels = int(levels)
        self.dim = int(dim)
        self.thresholds = np.arange(levels - 1) - (levels - 2) / 2.0

    @property
    def obs_dim(self) -> int:
        return self.dim

    def _quantize(self, X) -> np.ndarray:
        cells = np.searchsorted(self.thresholds, X, side="left").astype(float)
        if self.levels == 2:
            return 2.0 * cells - 1.0
        return cells

    def sample(self, x, rng) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatch(f"expected state of length {self.dim}")
        return self._quantize(x)

    def deterministic_labels(self, X) -> np.ndarray:
        """Quantizer outputs for each state row; the channel is noiseless."""
        return self._quantize(np.atleast_2d(np.asarray(X, dtype=float)))

    def log_density_batch(self, y, X) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        match = np.all(self._quantize(X) == y[None, :], axis=1)
        return np.where(match, 0.0, -np.inf)

    def log_likelihood(self, y, x, derivatives: bool = True) -> LikelihoodEval:
        if derivatives:
            self._require_smooth()
        ll = float(self.log_density_batch(y, np.asarray(x, dtype=float)[None, :])[0])
        return LikelihoodEval(loglik=ll)


class ModuloGaussianChannel(ChannelModel):
    """y_i = (x_i + v_i) mod period, v_i ~ N(0, r) independently.

    The observation density is a wrapped Gaussian, smooth in x but
    periodic, so its log-likelihood curvature changes sign: the standard
    log-concavity counterexample.
    """

    kind = "modulo-gaussian"

    def __init__(self, period=1.0, r=0.04, dim: int = 1):
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

    def sample(self, x, rng) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatch(f"expected state of length {self.dim}")
        return np.mod(x + np.sqrt(self.r) * rng.standard_normal(self.dim), self.period)

    def _wrap_terms(self, y, X):
        """Per-coordinate offsets d_k = y + k*period - x over the wrap window."""
        k0 = np.round((X - y[None, :]) / self.period)
        ks = k0[..., None] + np.arange(-self._k_span, self._k_span + 1)
        return y[None, :, None] + ks * self.period - X[..., None]

    def log_density_batch(self, y, X) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = self._wrap_terms(y, X)
        per_coord = logsumexp(-0.5 * d * d / self.r, axis=-1) - 0.5 * np.log(
            2.0 * np.pi * self.r
        )
        return np.sum(per_coord, axis=1)

    def log_likelihood(self, y, x, derivatives: bool = True) -> LikelihoodEval:
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        ll = float(self.log_density_batch(y, x[None, :])[0])
        if not derivatives:
            return LikelihoodEval(loglik=ll)
        d = self._wrap_terms(y, x[None, :])[0]  # (dim, n_k)
        logw = -0.5 * d * d / self.r
        w = np.exp(logw - logsumexp(logw, axis=-1, keepdims=True))
        mean_d = np.sum(w * d, axis=-1)
        mean_d2 = np.sum(w * d * d, axis=-1)
        grad = mean_d / self.r
        curv = (mean_d2 - mean_d**2) / self.r**2 - 1.0 / self.r
        return LikelihoodEval(loglik=ll, grad=grad, hessian=np.diag(curv))

    def with_noise_scale(self, scale: float) -> "ModuloGaussianChannel":
        if scale <= 0:
            raise ValueError("noise scale must be positive")
        return ModuloGaussianChannel(self.period, self.r * scale, self.dim)


def pulled_back_hessian(ch, decomp, y_k, k: int, t: int, z_t, inputs=None) -> np.ndarray:
    """Observation Hessian at time k expressed in time-t coordinates.

    Reconstructs z_k from z_t by inverting the unstable dynamics through
    the recorded inputs, evaluates the channel Hessian there, and pulls it
    back: (A_u^{-(t-k)})^T H_obs,k (A_u^{-(t-k)}).
    """
    if t < k:
        raise ValueError(f"need t >= k, got t={t}, k={k}")
    ch._require_smooth()
    A_u = np.asarray(decomp.A_u, dtype=float)
    B_u = np.asarray(decomp.B_u, dtype=float)
    z = np.asarray(z_t, dtype=float).reshape(-1)
    steps = t - k
    if steps > 0:
        if inputs is None or len(inputs) < t:
            raise MissingInputHistory(
                f"inverse dynamics from t={t} to k={k} needs inputs u_{k}..u_{t-1}"
            )
        A_inv = np.linalg.inv(A_u)
        for j in range(t - 1, k - 1, -1):
            u_j = np.asarray(inputs[j], dtype=float).reshape(-1)
            z = A_inv @ (z - B_u @ u_j)
        M = np.linalg.matrix_power(A_inv, steps)
    else:
        M = np.eye(decomp.n_u)
    H = ch.log_likelihood(y_k, z, derivatives=True).hessian
    return M.T @ H @ M


def make_channel(kind: str, **params) -> ChannelModel:
    factories = {
        "linear-gaussian": LinearGaussianChannel,
        "tanh-gaussian": TanhGaussianChannel,
        "cubic-gaussian": CubicGaussianChannel,
        "sign-quantizer": SignQuantizerChannel,
        "modulo-gaussian": ModuloGaussianChannel,
    }
    if kind not in factories:
        raise ValueError(f"unknown channel kind {kind!r}; known: {sorted(factories)}")
    return factories[kind](**params)
