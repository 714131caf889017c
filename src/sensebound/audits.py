"""Numerical audits of the regularity conditions behind the sufficiency
results.

Everything here is a pure post-processing pass over recorded run data:
windowed observation-curvature sums pulled back through the powers of
A_u^-1 (condition 1), the prior Hessian cap (condition 2), posterior
condition numbers (condition 3), and the accumulated log-posterior
Hessian with its first stably-negative time. Each step's observation
Hessian is taken at the recorded state: the plant is noiseless, so no
past state is rebuilt from a later one.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PreconditionViolated, UnknownPriorFamily, UnsupportedDerivative
from .priors import GaussianPrior, StudentTPrior

KAPPA_CAP = 1e6  # assumption 3's cap on a posterior covariance's condition number
DEFAULT_AUDIT_WINDOW = 2
NEG_DEF_C = 0.01  # the accumulation is negative definite once lambda_max <= -NEG_DEF_C


@dataclass(frozen=True)
class AssumptionVerdict:
    name: str
    applicable: bool
    passed: Optional[bool]
    statistic: Optional[float]
    witness_t: Optional[int] = None
    witness_eigs: Optional[tuple] = None
    detail: str = ""


@dataclass(frozen=True)
class CurvatureAudit:
    """Bundle of the three assumption verdicts for one run."""

    window: int
    alpha_hat: Optional[float]
    beta_hat: Optional[float]
    kappa_hat: Optional[float]
    verdicts: dict
    accumulation: Optional[dict] = None  # log-posterior Hessian trace summary


def _observation_hessians(ch, z_trace, y_trace):
    """Each recorded step's observation Hessian, ch.at(k).hessian(y_k, z_k),
    at the recorded state z_k, in step order; lazily, so a caller can check
    its preconditions before the first evaluation."""
    return (
        ch.at(k).hessian(y, np.asarray(z_trace[k], dtype=float).reshape(-1))
        for k, y in enumerate(y_trace)
    )


def audit_assumption1(ch, decomp, z_trace, y_trace, L: int) -> AssumptionVerdict:
    """Window the pulled-back observation Hessians and find the worst top
    eigenvalue: alpha_hat is the largest margin by which the windowed sums
    stay negative definite. Step k's term is taken with its channel, ch.at(k).
    """
    return _window_verdict(decomp, list(_observation_hessians(ch, z_trace, y_trace)), L)


def _window_verdict(decomp, hessians: list, L: int) -> AssumptionVerdict:
    """Assumption 1 over a run's observation Hessians: the window ending at
    t sums (A_u^-(t-k))^T H_k A_u^-(t-k) for k = t-L+1..t."""
    if L < 1:
        raise ValueError("window length must be >= 1")
    n_steps = len(hessians)
    if n_steps < L:
        raise ValueError(f"trajectory of length {n_steps} is shorter than window {L}")
    A_inv = np.linalg.inv(np.asarray(decomp.A_u, dtype=float))
    powers = [np.linalg.matrix_power(A_inv, j) for j in range(L)]
    worst = None
    for t in range(L - 1, n_steps):
        S = np.zeros((decomp.n_u, decomp.n_u))
        for k in range(t - L + 1, t + 1):
            M = powers[t - k]
            S = S + M.T @ hessians[k] @ M
        eigs = np.linalg.eigvalsh(0.5 * (S + S.T))
        lam_max = float(eigs[-1])
        if worst is None or lam_max > worst[1]:
            worst = (t, lam_max, tuple(float(e) for e in eigs))
    t_star, lam_max, eigs = worst
    alpha_hat = -lam_max
    passed = alpha_hat > 0.0
    return AssumptionVerdict(
        name="assumption1",
        applicable=True,
        passed=passed,
        statistic=alpha_hat,
        witness_t=t_star,
        witness_eigs=eigs,
        detail=(
            f"windowed curvature sum (L={L}) worst lambda_max={lam_max:.6g} at t={t_star}"
        ),
    )


def audit_assumption2(prior) -> AssumptionVerdict:
    """Upper bound on the prior log-density Hessian.

    Gaussian priors have Hessian -inv(cov) <= 0: any positive beta works,
    reported as 0. The Student-t stress prior has positive curvature in
    its tails: its second derivative -(nu+1)(nu s^2 - z^2)/(nu s^2 + z^2)^2
    peaks at z^2 = 3 nu s^2, where it is (nu+1)/(8 nu s^2).
    """
    if isinstance(prior, GaussianPrior):
        return AssumptionVerdict(
            name="assumption2",
            applicable=True,
            passed=True,
            statistic=0.0,
            detail="gaussian prior: Hessian = -inv(cov) <= 0",
        )
    if isinstance(prior, StudentTPrior):
        nu, s = prior.df, prior.scale
        beta_hat = (nu + 1.0) / (8.0 * nu * s * s)
        return AssumptionVerdict(
            name="assumption2",
            applicable=True,
            passed=bool(np.isfinite(beta_hat)),
            statistic=beta_hat,
            detail=f"student-t prior: max log-density curvature {beta_hat:.6g}",
        )
    raise UnknownPriorFamily(
        f"no Hessian-cap audit for prior family {getattr(prior, 'family', type(prior))!r}"
    )


def audit_assumption3(cond_trace) -> AssumptionVerdict:
    """Worst posterior-covariance condition number over the run."""
    cond = np.asarray(cond_trace, dtype=float)
    if cond.size == 0:
        raise ValueError("need at least one posterior")
    kappa_hat = float(np.max(cond))
    t_star = int(np.argmax(cond))
    passed = bool(np.isfinite(kappa_hat) and kappa_hat <= KAPPA_CAP)
    return AssumptionVerdict(
        name="assumption3",
        applicable=True,
        passed=passed,
        statistic=kappa_hat,
        witness_t=t_star,
        detail=f"max condition number {kappa_hat:.6g} at t={t_star} (cap {KAPPA_CAP:.3g})",
    )


@dataclass(frozen=True)
class CurvatureAccumulation:
    """Time series of the accumulated log-posterior Hessian."""

    lambda_max_trace: np.ndarray
    first_negative_t: Optional[int]
    threshold: float
    hessians: tuple = field(repr=False)


def lemma2_accumulate(ch, decomp, prior, z_trace, y_trace) -> CurvatureAccumulation:
    """Accumulate H_t = (A^-t)^T H_prior (A^-t) + sum_k pulled-back H_obs,k.

    Uses the equivalent one-step recursion
    H_t = (A^-1)^T H_{t-1} (A^-1) + H_obs,t with H_obs evaluated along the
    recorded trajectory, with the channel of step t, ch.at(t) (as in
    audit_assumption1). first_negative_t is the first time
    the trace enters the lambda_max <= -NEG_DEF_C regime and stays there through
    the trailing half of the audited horizon; None when positive
    excursions keep recurring that late (the log-concavity-violation
    signature).
    """
    return _accumulate(decomp, prior, z_trace[0], _observation_hessians(ch, z_trace, y_trace))


def _accumulate(decomp, prior, z0, hessians) -> CurvatureAccumulation:
    """lemma2_accumulate over the observation Hessians of a run, in step
    order; they are read after the preconditions are checked."""
    A_u = np.asarray(decomp.A_u, dtype=float)
    mags = np.abs(np.linalg.eigvals(A_u))
    if np.any(mags <= 1.0 + 1e-12):
        raise PreconditionViolated(
            "accumulation audit covers strictly unstable blocks only "
            f"(min |eig| = {mags.min():.6g})"
        )
    A_inv = np.linalg.inv(A_u)
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    H = np.atleast_2d(np.asarray(prior.hessian_logpdf(z0), dtype=float))
    lam_trace = []
    accumulated = []
    for t, H_obs in enumerate(hessians):
        if t > 0:
            H = A_inv.T @ H @ A_inv
        H = 0.5 * ((H + H_obs) + (H + H_obs).T)
        lam_trace.append(float(np.max(np.linalg.eigvalsh(H))))
        accumulated.append(H)
    lam = np.array(lam_trace)
    first_neg = None
    above = np.nonzero(lam > -NEG_DEF_C)[0]
    suffix_start = int(above[-1]) + 1 if above.size else 0
    if suffix_start <= len(lam) // 2 and suffix_start < len(lam):
        first_neg = suffix_start
    return CurvatureAccumulation(
        lambda_max_trace=lam,
        first_negative_t=first_neg,
        threshold=NEG_DEF_C,
        hessians=tuple(accumulated),
    )


def audit_run(
    ch,
    decomp,
    prior,
    z_trace,
    y_trace,
    cond_trace,
    L: int = DEFAULT_AUDIT_WINDOW,
) -> CurvatureAudit:
    """Run the three assumption audits against one recorded trajectory.

    Non-smooth channels make the curvature audits inapplicable rather
    than failed, mirroring the scope of the assumptions themselves.
    Each step's observation Hessian is evaluated once, with the channel of
    its step, ch.at(k), at the recorded state, and both curvature audits
    read that one list.
    """
    verdicts = {}
    alpha_hat = None
    hessians = None
    try:
        hessians = list(_observation_hessians(ch, z_trace, y_trace))
        v1 = _window_verdict(decomp, hessians, L)
        alpha_hat = v1.statistic
    except UnsupportedDerivative as exc:
        v1 = AssumptionVerdict(
            name="assumption1",
            applicable=False,
            passed=None,
            statistic=None,
            detail=f"not applicable: {exc}",
        )
    verdicts["assumption1"] = v1

    beta_hat = None
    try:
        v2 = audit_assumption2(prior)
        beta_hat = v2.statistic
    except UnknownPriorFamily as exc:
        v2 = AssumptionVerdict(
            name="assumption2",
            applicable=False,
            passed=None,
            statistic=None,
            detail=f"not applicable: {exc}",
        )
    verdicts["assumption2"] = v2

    v3 = audit_assumption3(cond_trace)
    verdicts["assumption3"] = v3

    # the accumulation starts from the prior's log-density Hessian, which
    # priors that are not twice differentiable (Laplace, exponential,
    # uniform) do not define
    accumulation = None
    if hessians is not None and hasattr(prior, "hessian_logpdf"):
        try:
            acc = _accumulate(decomp, prior, z_trace[0], hessians)
            lam = acc.lambda_max_trace
            accumulation = {
                "first_negative_t": acc.first_negative_t,
                "threshold": acc.threshold,
                "lambda_max_final": float(lam[-1]),
                "n_positive": int(np.sum(lam > 0.0)),
            }
        except PreconditionViolated:
            pass

    return CurvatureAudit(
        window=L,
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        kappa_hat=v3.statistic,
        verdicts=verdicts,
        accumulation=accumulation,
    )
