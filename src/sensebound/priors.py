"""Initial-state density families.

Gaussian is the workhorse prior for closed-loop runs. Student-t is the
bundled heavy-tailed stress case for the curvature audits (its log-density
Hessian is positive in the tails). Laplace / exponential / uniform exist
as sample sources for the entropy-gap checks.
"""

import numpy as np

from .channels import check_spd
from .errors import DimensionMismatch


class GaussianPrior:
    family = "gaussian"

    def __init__(self, mean=None, cov=None, *, dim: int = 1):
        """N(mean, cov); mean defaults to zero in `dim` dimensions, cov to I.
        cov must be symmetric positive definite, as a channel's R must."""
        if mean is None:
            mean = np.zeros(dim)
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        if cov is None:
            cov = np.eye(self.mean.size)
        self.cov = check_spd(cov, "cov")
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise DimensionMismatch(
                f"cov shape {self.cov.shape} does not match mean length {self.mean.size}"
            )
        self._prec = np.linalg.inv(self.cov)
        _, logdet = np.linalg.slogdet(self.cov)
        self._log_norm = -0.5 * (self.dim * np.log(2 * np.pi) + logdet)
        # numpy's multivariate_normal factors cov by SVD on every call;
        # the factor is fixed, so it is taken once, as numpy takes it
        u, s, _ = np.linalg.svd(self.cov)
        self._factor = u * np.sqrt(s)

    @property
    def dim(self) -> int:
        return self.mean.size

    def sample(self, rng, size=None):
        """Draws bit-equal to rng.multivariate_normal(mean, cov, size)."""
        shape = [] if size is None else list(np.atleast_1d(size))
        x = rng.standard_normal(shape + [self.dim]).reshape(-1, self.dim)
        return (self.mean + x @ self._factor.T).reshape(shape + [self.dim])

    def logpdf(self, z) -> float:
        d = np.asarray(z, dtype=float).reshape(-1) - self.mean
        return float(self._log_norm - 0.5 * d @ self._prec @ d)

    def logpdf_batch(self, Z) -> np.ndarray:
        D = np.atleast_2d(np.asarray(Z, dtype=float)) - self.mean
        return self._log_norm - 0.5 * np.einsum("ij,jk,ik->i", D, self._prec, D)

    def hessian_logpdf(self, z) -> np.ndarray:
        return -self._prec


def _positive_finite(name, value) -> float:
    if not 0 < value < np.inf:
        raise ValueError(f"need a positive finite {name}, got {value!r}")
    return float(value)


class StudentTPrior:
    """1-D Student-t with df nu and scale s (location 0)."""

    family = "student-t"

    def __init__(self, df, scale=1.0):
        if df <= 2:
            raise ValueError("need df > 2 for a finite second moment")
        self.df = float(df)
        self.scale = _positive_finite("scale", scale)

    @property
    def dim(self) -> int:
        return 1

    def sample(self, rng, size=None):
        draw = rng.standard_t(self.df, size=size) * self.scale
        return np.atleast_1d(draw) if size is None else np.asarray(draw)[..., None]

    def logpdf(self, z) -> float:
        from scipy.stats import t as student_t

        return float(student_t.logpdf(np.asarray(z).reshape(()), self.df, scale=self.scale))

    def logpdf_batch(self, Z) -> np.ndarray:
        from scipy.stats import t as student_t

        z = np.atleast_2d(np.asarray(Z, dtype=float))[:, 0]
        return student_t.logpdf(z, self.df, scale=self.scale)

    def d2_logpdf(self, z) -> float:
        # d^2/dz^2 of -((nu+1)/2) * log(1 + z^2/(nu s^2))
        nu, s = self.df, self.scale
        z = float(np.asarray(z).reshape(()))
        denom = nu * s * s + z * z
        return -(nu + 1.0) * (nu * s * s - z * z) / (denom * denom)

    def hessian_logpdf(self, z) -> np.ndarray:
        return np.array([[self.d2_logpdf(np.asarray(z).reshape(-1)[0])]])

    @property
    def mean(self):
        return np.zeros(1)

    @property
    def cov(self):
        v = self.scale * self.scale * self.df / (self.df - 2.0)
        return np.array([[v]])


class LaplacePrior:
    """1-D Laplace with scale b (location 0)."""

    family = "laplace"

    def __init__(self, scale=1.0):
        self.scale = _positive_finite("scale", scale)

    @property
    def dim(self) -> int:
        return 1

    def sample(self, rng, size=None):
        draw = rng.laplace(0.0, self.scale, size=size)
        return np.atleast_1d(draw) if size is None else np.asarray(draw)[..., None]

    def logpdf_batch(self, Z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(Z, dtype=float))[:, 0]
        return -np.abs(z) / self.scale - np.log(2.0 * self.scale)

    @property
    def mean(self):
        return np.array([0.0])

    @property
    def cov(self):
        return np.array([[2.0 * self.scale * self.scale]])


class ExponentialPrior:
    family = "exponential"

    def __init__(self, rate=1.0):
        self.rate = _positive_finite("rate", rate)

    @property
    def dim(self) -> int:
        return 1

    def sample(self, rng, size=None):
        draw = rng.exponential(1.0 / self.rate, size=size)
        return np.atleast_1d(draw) if size is None else np.asarray(draw)[..., None]

    def logpdf_batch(self, Z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(Z, dtype=float))[:, 0]
        return np.where(z >= 0.0, np.log(self.rate) - self.rate * z, -np.inf)

    @property
    def mean(self):
        return np.array([1.0 / self.rate])

    @property
    def cov(self):
        return np.array([[1.0 / (self.rate * self.rate)]])


class UniformPrior:
    family = "uniform"

    def __init__(self, low=0.0, high=1.0):
        if high <= low:
            raise ValueError("need high > low")
        self.low = float(low)
        self.high = float(high)

    @property
    def dim(self) -> int:
        return 1

    def sample(self, rng, size=None):
        draw = rng.uniform(self.low, self.high, size=size)
        return np.atleast_1d(draw) if size is None else np.asarray(draw)[..., None]

    def logpdf_batch(self, Z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(Z, dtype=float))[:, 0]
        inside = (z >= self.low) & (z <= self.high)
        return np.where(inside, -np.log(self.high - self.low), -np.inf)

    @property
    def mean(self):
        return np.array([0.5 * (self.low + self.high)])

    @property
    def cov(self):
        w = self.high - self.low
        return np.array([[w * w / 12.0]])


# The prior families. A family's config keys are its constructor's
# parameters, less the keyword-only ones, which the builder supplies.
PRIORS = {
    cls.family: cls
    for cls in (GaussianPrior, StudentTPrior, LaplacePrior, ExponentialPrior, UniformPrior)
}
