"""Reference code the acceptance criteria check the library against.

No run, CLI command or benchmark reaches these; the tests import them by
bare name (`from reference import ...`), as they import `conftest`.

- `lemma1_probe`: the spectral-bound matrix inequality of Lemma 1 on
  random inputs (criterion 08).
- `sandwich_check`: a belief's entropy against the Gaussian with its
  covariance, with an empirical cap on the gap (criterion 07).
- `replay_filter`: a filter run offline against a recorded (u, y)
  sequence, so representations can be cross-validated on one trajectory
  (criterion 09).
"""

from dataclasses import dataclass

import numpy as np

from sensebound import filters
from sensebound.entropy import gaussian_entropy_nats, nats_to_bits
from sensebound.errors import PreconditionViolated
from sensebound.filters import DEFAULT_GRID_SPEC, DEFAULT_PARTICLES, GridSpec, make_initial_belief

GAP_CAP_BITS_PER_DIM = 1.0  # empirical regression cap for log-concave test sets


@dataclass(frozen=True)
class SpectralBoundProbe:
    """One instance of the transformed-matrix inequality check."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual_min_eig: float

    @property
    def holds(self) -> bool:
        return self.residual_min_eig >= -1e-8


def lemma1_probe(P, Q_list, V, J, t: int, L: int) -> SpectralBoundProbe:
    """Check V^T Omega_t V <= beta smax^2(V) (J^t)^T J^t
                              - alpha smin^2(V) sum_j (J^{jL})^T J^{jL}.

    beta and alpha are taken tight from the inputs: beta is lambda_max(P)
    clamped below at zero (the prior-cap constant is positive by
    assumption, and a negative multiplier would flip the singular-value
    bound), alpha = min_j lambda_min(Q_j) and must be positive, so a
    nonpositive-definite Q_j is a precondition failure.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Qs = [np.atleast_2d(np.asarray(Q, dtype=float)) for Q in Q_list]
    V = np.atleast_2d(np.asarray(V, dtype=float))
    J = np.atleast_2d(np.asarray(J, dtype=float))
    if np.max(np.abs(P - P.T)) > 1e-10:
        raise PreconditionViolated("P must be symmetric")
    beta = max(float(np.max(np.linalg.eigvalsh(P))), 0.0)
    alphas = [float(np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T)))) for Q in Qs]
    alpha = min(alphas)
    if alpha <= 0.0:
        raise PreconditionViolated(
            f"every Q_j must be positive definite; got min eigenvalue {alpha:.3g}"
        )
    svals = np.linalg.svd(V, compute_uv=False)
    if svals[-1] <= 0.0:
        raise PreconditionViolated("V must be invertible")
    s_max2, s_min2 = float(svals[0] ** 2), float(svals[-1] ** 2)

    V_inv = np.linalg.inv(V)
    A_inv = V @ J @ V_inv
    A_pow_t = np.linalg.matrix_power(A_inv, t)
    omega = A_pow_t.T @ P @ A_pow_t
    for j, Q in enumerate(Qs):
        M = np.linalg.matrix_power(A_inv, j * L)
        omega = omega - M.T @ Q @ M
    lhs = V.T @ omega @ V

    Jt = np.linalg.matrix_power(J, t)
    rhs = beta * s_max2 * (Jt.T @ Jt)
    for j in range(len(Qs)):
        JjL = np.linalg.matrix_power(J, j * L)
        rhs = rhs - alpha * s_min2 * (JjL.T @ JjL)

    resid = rhs - lhs
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (resid + resid.T))))
    return SpectralBoundProbe(lhs=lhs, rhs=rhs, residual_min_eig=min_eig)


@dataclass(frozen=True)
class SandwichReport:
    """Entropy gap between a belief and the Gaussian with its covariance.

    Gaussians maximise entropy at fixed covariance, so the per-dimension
    gap is nonnegative up to estimator error; for log-concave laws it is
    additionally bounded above by a universal constant, tracked here as
    the empirical cap.
    """

    h_actual: float  # bits/dim
    h_gauss_same_cov: float  # bits/dim
    gap: float  # bits/dim

    @property
    def ok_lower(self) -> bool:
        return self.gap >= -1e-6

    @property
    def within_cap(self) -> bool:
        return self.gap <= GAP_CAP_BITS_PER_DIM


def sandwich_check(belief) -> SandwichReport:
    """Compare a belief's entropy against the max-entropy Gaussian bound."""
    n = belief.dim
    h_actual = belief.entropy_bits() / n
    h_gauss = nats_to_bits(gaussian_entropy_nats(belief.cov())) / n
    return SandwichReport(
        h_actual=float(h_actual),
        h_gauss_same_cov=float(h_gauss),
        gap=float(h_gauss - h_actual),
    )


def replay_filter(decomp, channel, prior, filter_kind, us, ys,
                  grid_spec: GridSpec = DEFAULT_GRID_SPEC,
                  n_particles: int = DEFAULT_PARTICLES, rng=None):
    """Run a filter offline against a recorded (u, y) sequence.

    Bayes updates only depend on the realized inputs and observations, so
    different representations can be cross-validated on one trajectory.
    Step t is updated with the channel of its step, channel.at(t), as in
    the run.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    belief = make_initial_belief(
        prior, filter_kind, grid_spec=grid_spec, n_particles=n_particles, rng=rng
    )
    steps = []
    for t, (u_t, y_t) in enumerate(zip(us, ys)):
        steps.append(filters.update(belief, channel.at(t), y_t, rng=rng))
        belief = filters.predict(steps[-1].belief_post, decomp, u_t)
    return steps
