import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sensebound.audits as audits_mod
from conftest import fd_hessian_1d
from sensebound.audits import (
    audit_assumption1,
    audit_assumption2,
    audit_assumption3,
    audit_run,
    lemma1_probe,
    lemma2_accumulate,
)
from sensebound.channels import ChannelModel, make_channel
from sensebound.config import build_context
from sensebound.errors import PreconditionViolated, UnknownPriorFamily
from sensebound.experiments import load_bundled
from sensebound.filters import GaussianBelief, predict, update
from sensebound.loop import run_closed_loop
from sensebound.priors import GaussianPrior, LaplacePrior, StudentTPrior
from sensebound.system import SystemModel, decompose


def make_gaussian_trajectory(decomp, ch, horizon, seed=0, z0=0.4):
    rng = np.random.default_rng(seed)
    z = np.array([z0])
    zs, ys = [], []
    for _ in range(horizon):
        zs.append(z.copy())
        ys.append(ch.sample(z, rng))
        z = decomp.A_u @ z
    return np.array(zs), ys


class TestAssumption1:
    def test_scalar_window_two(self, scalar_double, unit_gaussian_channel):
        zs, ys = make_gaussian_trajectory(scalar_double, unit_gaussian_channel, 10)
        v = audit_assumption1(unit_gaussian_channel, scalar_double, zs, ys, L=2)
        assert v.passed
        assert v.statistic == pytest.approx(1.25, abs=1e-12)

    def test_scalar_window_one(self, scalar_double, unit_gaussian_channel):
        zs, ys = make_gaussian_trajectory(scalar_double, unit_gaussian_channel, 10)
        v = audit_assumption1(unit_gaussian_channel, scalar_double, zs, ys, L=1)
        assert v.passed
        assert v.statistic == pytest.approx(1.0, abs=1e-12)

    def test_modulo_fails_with_witness(self):
        ctx = build_context(load_bundled("modulo-counterexample"))
        rec = run_closed_loop(ctx, 20250805, 0)
        v = audit_assumption1(ctx.channel, ctx.decomp, rec.z_u, rec.y, L=2)
        assert not v.passed
        assert v.witness_t is not None
        assert max(v.witness_eigs) > 0  # the positive-curvature witness

    def test_witness_matches_dense_eigenscan(self):
        """Oracle: a dense eigenvalue scan over every window of the run, each
        term the channel Hessian at the recorded state pulled back to t."""
        ctx = build_context(load_bundled("modulo-counterexample"))
        rec = run_closed_loop(ctx, 20250805, 0)
        A_inv = np.linalg.inv(ctx.decomp.A_u)

        worst = -np.inf
        for t in range(1, rec.steps):
            S = 0.0
            for k in (t - 1, t):
                M = np.linalg.matrix_power(A_inv, t - k)
                S = S + M.T @ ctx.channel.at(k).hessian(rec.y[k], rec.z_u[k]) @ M
            worst = max(worst, float(np.max(np.linalg.eigvalsh(S))))
        v = audit_assumption1(ctx.channel, ctx.decomp, rec.z_u, rec.y, L=2)
        assert -v.statistic == pytest.approx(worst, rel=1e-12)


class TestAssumption2:
    def test_gaussian_any_beta(self):
        v = audit_assumption2(GaussianPrior([0.0], [[1.0]]))
        assert v.passed and v.statistic == 0.0

    def test_gaussian_matrix_hessian(self):
        prior = GaussianPrior([0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]])
        H = prior.hessian_logpdf([0.3, -0.1])
        assert np.allclose(H, -np.linalg.inv(prior.cov))
        assert np.max(np.linalg.eigvalsh(H)) <= 0.0

    def test_student_t_beta_positive_finite(self):
        """The cap is the peak of -(nu+1)(nu s^2 - z^2)/(nu s^2 + z^2)^2,
        at z^2 = 3 nu s^2: (nu+1)/(8 nu s^2), 1/6 for nu = 3, s = 1."""
        for nu, s in [(3.0, 1.0), (5.0, 0.7), (2.5, 3.0), (30.0, 0.05)]:
            prior = StudentTPrior(df=nu, scale=s)
            v = audit_assumption2(prior)
            assert v.passed
            assert v.statistic == (nu + 1.0) / (8.0 * nu * s * s)
            z_star = np.sqrt(3.0 * nu) * s
            assert prior.d2_logpdf(z_star) == pytest.approx(v.statistic, rel=1e-12)
            # no point of a dense scan, nor a finite difference of the
            # log-density, lies above the cap
            zs = np.linspace(-50.0 * s, 50.0 * s, 20001)
            assert max(prior.d2_logpdf(z) for z in zs) <= v.statistic * (1.0 + 1e-12)
            fd = max(fd_hessian_1d(prior.logpdf, z0, h=1e-5 * s) for z0 in zs[::400])
            assert fd <= v.statistic * (1.0 + 1e-4)
        assert audit_assumption2(StudentTPrior(df=3.0)).statistic == pytest.approx(1 / 6, rel=1e-15)

    def test_unknown_family(self):
        with pytest.raises(UnknownPriorFamily):
            audit_assumption2(LaplacePrior(1.0))


class TestAssumption3:
    def test_scalar_always_one(self):
        v = audit_assumption3(np.ones(50))
        assert v.passed and v.statistic == pytest.approx(1.0)

    def test_partially_observed_2d_fails(self):
        """Coordinate 2 is never observed: kappa grows without bound."""
        dec = decompose(SystemModel(np.diag([3.0, 2.0]), np.eye(2)))
        assert np.allclose(dec.A_u, np.diag([3.0, 2.0]))  # order preserved
        ch = make_channel("linear-gaussian", C=[[1.0, 0.0]], R=[[1.0]])
        b = GaussianBelief([0.0, 0.0], np.eye(2), kind="predicted")
        conds, p_oracle = [], np.eye(2)
        A = np.diag([3.0, 2.0])
        for t in range(12):
            step = update(b, ch, [0.0])
            conds.append(step.cond_number)
            # independent Riccati recursion for the partially observed pair
            C = np.array([[1.0, 0.0]])
            S = C @ p_oracle @ C.T + 1.0
            K = p_oracle @ C.T / S
            p_post = (np.eye(2) - K @ C) @ p_oracle
            vals = np.linalg.eigvalsh(p_post)
            assert step.cond_number == pytest.approx(vals[1] / vals[0], rel=1e-6)
            b = predict(step.belief_post, dec, [0.0, 0.0])
            p_oracle = A @ p_post @ A.T
        v = audit_assumption3(conds, kappa_cap=1e6)
        assert not v.passed
        assert v.witness_t == len(conds) - 1  # monotone growth


class TestLemma1:
    def test_identity_v(self):
        """V = I collapses the bound to an equality of construction."""
        J = np.diag([0.5, 0.8])
        probe = lemma1_probe(
            np.eye(2), [np.eye(2)] * 3, np.eye(2), J, t=4, L=1
        )
        assert probe.holds
        assert probe.residual_min_eig >= -1e-10
        assert np.abs(probe.rhs - probe.lhs).max() < 1e-12

    def test_scalar_spec_arithmetic(self):
        """a = 2 (J = 1/2), beta = alpha = 1, L = 1, t = 3: both sides equal
        2^-6 - (1 + 1/4 + 1/16 + 1/64)."""
        probe = lemma1_probe(
            [[1.0]], [[[1.0]]] * 4, [[1.0]], [[0.5]], t=3, L=1
        )
        expected = 2.0**-6 - (1.0 + 0.25 + 0.0625 + 1.0 / 64.0)
        assert probe.lhs[0, 0] == pytest.approx(expected, abs=1e-12)
        assert probe.rhs[0, 0] == pytest.approx(expected, abs=1e-12)
        assert probe.holds

    def test_precondition_violated(self):
        with pytest.raises(PreconditionViolated):
            lemma1_probe(np.eye(2), [np.diag([1.0, -0.1])], np.eye(2), np.eye(2) * 0.5, 2, 1)
        with pytest.raises(PreconditionViolated):
            lemma1_probe(np.array([[0.0, 1.0], [0.0, 0.0]]), [np.eye(2)], np.eye(2), np.eye(2) * 0.5, 2, 1)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_random_probe_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        W, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V = U @ np.diag(rng.uniform(0.5, 5.0, size=n)) @ W.T
        J = rng.uniform(-0.9, 0.9, size=(n, n))
        P = rng.standard_normal((n, n))
        P = 0.5 * (P + P.T)
        Qs = []
        for _ in range(int(rng.integers(1, 4))):
            M = rng.standard_normal((n, n))
            Qs.append(M @ M.T + 0.1 * np.eye(n))
        probe = lemma1_probe(P, Qs, V, J, t=int(rng.integers(0, 8)), L=int(rng.integers(1, 4)))
        assert probe.residual_min_eig >= -1e-8


class TestLemma2:
    def test_scalar_closed_form(self, scalar_double, unit_gaussian_channel):
        """H_t = -4^-t - sum_{j<=t} 4^-j, exactly."""
        zs, ys = make_gaussian_trajectory(scalar_double, unit_gaussian_channel, 20)
        acc = lemma2_accumulate(
            unit_gaussian_channel, scalar_double, GaussianPrior([0.0], [[1.0]]),
            zs, ys,
        )
        for t in range(20):
            expected = -(4.0**-t) - sum(4.0**-j for j in range(t + 1))
            assert acc.hessians[t][0, 0] == pytest.approx(expected, abs=1e-12)
            assert acc.lambda_max_trace[t] <= -1.0
        assert acc.first_negative_t == 0

    def test_student_t_prior_first_negative_finite(self, scalar_double, unit_gaussian_channel):
        prior = StudentTPrior(df=3.0, scale=1.0)
        zs, ys = make_gaussian_trajectory(scalar_double, unit_gaussian_channel, 30, z0=3.0)
        acc = lemma2_accumulate(unit_gaussian_channel, scalar_double, prior, zs, ys)
        assert acc.first_negative_t is not None
        # prior curvature decays at |a|^-2t while the accumulation term grows:
        # the ratio goes to zero
        beta = 1.0 / 6.0
        ratios = [
            (beta * 4.0**-t) / sum(4.0**-j for j in range(t + 1)) for t in range(30)
        ]
        assert ratios[-1] < 1e-15
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))

    def test_modulo_recurrently_positive(self):
        ctx = build_context(load_bundled("modulo-counterexample"))
        rec = run_closed_loop(ctx, 20250805, 0)
        acc = lemma2_accumulate(ctx.channel, ctx.decomp, ctx.prior, rec.z_u, rec.y)
        lam = acc.lambda_max_trace
        assert acc.first_negative_t is None
        assert np.sum(lam > 0) >= 3
        assert np.any(lam[len(lam) // 2 :] > -acc.threshold)

    def test_rejects_marginal_modes(self, unit_gaussian_channel):
        th = np.pi / 6
        rot = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        dec = decompose(SystemModel(rot, np.eye(2)))
        with pytest.raises(PreconditionViolated):
            lemma2_accumulate(
                unit_gaussian_channel, dec, GaussianPrior([0.0, 0.0], np.eye(2)),
                np.zeros((3, 2)), [np.zeros(2)] * 3,
            )

    def test_matches_grid_log_posterior_curvature(self, scalar_double):
        """Chain-rule cross-check: H_t vs a finite-difference Hessian of the
        grid filter's log-posterior at the posterior mean (1-D)."""
        from sensebound.filters import GridSpec, make_initial_belief

        ch = make_channel("tanh-gaussian", scale=1.0, R=[[0.04]])
        prior = GaussianPrior([0.0], [[0.25]])
        spec = GridSpec(cells_per_std=48)
        rng = np.random.default_rng(17)
        belief = make_initial_belief(prior, "grid", grid_spec=spec)
        z = np.array([0.2])
        ys, us = [], []
        beliefs = []
        for t in range(10):
            y = ch.sample(z, rng)
            ys.append(y)
            step = update(belief, ch, y)
            beliefs.append(step.belief_post)
            u = np.array([-2.0 * step.belief_post.mean()[0]])
            us.append(u)
            belief = predict(step.belief_post, scalar_double, u)
            z = scalar_double.A_u @ z + scalar_double.B_u @ u
        checked = 0
        for t in (2, 5, 9):
            post = beliefs[t]
            ax, dens = post.axes[0], post.density
            i = int(np.argmin(np.abs(ax - post.mean()[0])))
            if dens[i - 1] <= 0 or dens[i] <= 0 or dens[i + 1] <= 0:
                continue
            h = ax[1] - ax[0]
            fd = (np.log(dens[i + 1]) - 2 * np.log(dens[i]) + np.log(dens[i - 1])) / h**2
            # evaluate the accumulated Hessian at the same point: rebuild the
            # pullback sum anchored at z_t = grid point
            A_inv = np.linalg.inv(scalar_double.A_u)
            zt = np.array([ax[i]])
            zk = zt.copy()
            terms = []
            for k in range(t, -1, -1):
                M = np.linalg.matrix_power(A_inv, t - k)
                terms.append(M.T @ ch.hessian(ys[k], zk) @ M)
                if k > 0:
                    zk = A_inv @ (zk - scalar_double.B_u @ us[k - 1])
            Mt = np.linalg.matrix_power(A_inv, t)
            total = sum(terms) + Mt.T @ prior.hessian_logpdf(zk) @ Mt
            assert total[0, 0] == pytest.approx(fd, rel=0.05)
            checked += 1
        assert checked >= 2


class TestAuditRun:
    def test_bundle_of_verdicts(self, scalar_double, unit_gaussian_channel):
        zs, ys = make_gaussian_trajectory(scalar_double, unit_gaussian_channel, 12)
        audit = audit_run(
            unit_gaussian_channel, scalar_double, GaussianPrior([0.0], [[1.0]]),
            zs, ys, np.ones(12), L=2,
        )
        assert audit.alpha_hat == pytest.approx(1.25, abs=1e-12)
        assert audit.beta_hat == 0.0
        assert audit.kappa_hat == pytest.approx(1.0)
        assert all(v.passed for v in audit.verdicts.values())

    def test_non_smooth_not_applicable(self, scalar_double):
        ch = make_channel("sign-quantizer")
        zs = np.zeros((5, 1))
        ys = [np.array([1.0])] * 5
        audit = audit_run(
            ch, scalar_double, GaussianPrior([0.0], [[1.0]]), zs, ys, np.ones(5), L=2
        )
        assert not audit.verdicts["assumption1"].applicable
        assert audit.verdicts["assumption1"].passed is None

    def test_prior_without_hessian_skips_accumulation(self, scalar_double):
        ch = make_channel("tanh-gaussian", scale=1.0, R=[[0.04]])
        zs, ys = make_gaussian_trajectory(scalar_double, ch, 8)
        audit = audit_run(ch, scalar_double, LaplacePrior(), zs, ys, np.ones(8), L=2)
        assert audit.accumulation is None
        assert audit.alpha_hat is not None

    def test_one_hessian_per_recorded_step(self, monkeypatch):
        """Both curvature audits read one evaluation per step, each at the
        recorded state with the step's channel."""
        ctx = build_context(load_bundled("modulo-counterexample"))
        rec = run_closed_loop(ctx, 20250805, 0)
        calls = []
        hessian = ChannelModel.hessian

        def counting(self, y, x):
            calls.append((np.array(y), np.array(x)))
            return hessian(self, y, x)

        monkeypatch.setattr(ChannelModel, "hessian", counting)
        audit = audit_run(ctx.channel, ctx.decomp, ctx.prior, rec.z_u, rec.y, rec.cond,
                          L=ctx.audit_window)
        assert rec.steps == 60 and len(calls) == rec.steps
        for k, (y, x) in enumerate(calls):
            assert np.array_equal(y, rec.y[k]) and np.array_equal(x, rec.z_u[k])
        assert audit.verdicts["assumption1"].applicable and audit.accumulation is not None

    def test_attribute_error_in_accumulation_propagates(self, scalar_double, monkeypatch):
        def broken(*args, **kwargs):
            raise AttributeError("bug inside lemma2_accumulate")

        monkeypatch.setattr(audits_mod, "_accumulate", broken)
        ch = make_channel("tanh-gaussian", scale=1.0, R=[[0.04]])
        zs, ys = make_gaussian_trajectory(scalar_double, ch, 8)
        with pytest.raises(AttributeError, match="bug inside"):
            audit_run(ch, scalar_double, GaussianPrior([0.0], [[1.0]]), zs, ys, np.ones(8))
