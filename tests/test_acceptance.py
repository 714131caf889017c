"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Bundled experiments execute at their configured sizes and
are cached across criteria within the session.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from sensebound.audits import audit_assumption1, lemma1_probe, lemma2_accumulate
from sensebound.channels import make_channel
from sensebound.config import build_context
from sensebound.experiments import bundled_names, load_bundled
from sensebound.filters import GaussianBelief, ParticleBelief, moments, predict, update
from sensebound.infoflow import rate_balance_check, sandwich_check
from sensebound.loop import (
    RunContext,
    replay_filter,
    run_closed_loop,
)
from sensebound.priors import GaussianPrior
from sensebound.report import run_experiment
from sensebound.system import SystemModel, decompose, design_gain


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL: {desc}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS: {desc}")


def scalar_ctx(a=2.0, r=1.0, horizon=200, mode="predict", filter_kind="kalman",
               prior_var=1.0, guard=1e12):
    model = SystemModel([[a]], [[1.0]])
    dec = decompose(model)
    gain = None if mode == "none" else design_gain(dec, method="deadbeat", target_pole=0.5)
    return RunContext(
        model=model, decomp=dec,
        channel=make_channel("linear-gaussian", C=[[1.0]], R=[[r]]),
        prior=GaussianPrior([0.0], [[prior_var]]),
        filter_kind=filter_kind, gain=gain, controller_mode=mode,
        horizon=horizon, divergence_guard=guard,
    )


def test_criterion_01_entropy_evolution_identity():
    desc = "predicted minus posterior entropy equals r_exp each step (1e-9 gaussian, 0.02 grid)"
    with criterion(1, desc):
        rec = run_closed_loop(scalar_ctx(horizon=200), 1001, 0)
        assert rec.steps == 200
        lg = rec.ledger
        for t in range(199):
            shift = lg.h_pred[t + 1] - lg.h_post[t]
            assert abs(shift - 1.0) <= 1e-9
        assert abs(lg.terminal_h_pred - lg.h_post[-1] - 1.0) <= 1e-9

        grid = run_closed_loop(
            scalar_ctx(horizon=200, mode="update", filter_kind="grid"), 1002, 0
        )
        assert grid.steps == 200
        lg = grid.ledger
        for t in range(199):
            shift = lg.h_pred[t + 1] - lg.h_post[t]
            assert abs(shift - 1.0) <= 0.02


def test_criterion_02_rate_balance_identity(bundles):
    desc = "rate-balance residual <= 1e-9 (Kalman) and <= 0.05 (grid/tanh, T=60, 200 runs)"
    with criterion(2, desc):
        rec = run_closed_loop(scalar_ctx(horizon=101), 1003, 0)
        assert abs(rate_balance_check(rec.ledger, T=100)) <= 1e-9

        bal = bundles("entropy-balance")
        s = bal.summary
        assert s["n_runs"] == 200 and s["horizon"] == 60
        assert abs(s["rate_balance_residual_bits_per_step"]) <= 0.05


def test_criterion_03_kalman_boundary_law():
    desc = "steady posterior variance = r(1-a^-2) to 1e-9; steady info = log2 a to 1e-6, never below r_exp"
    with criterion(3, desc):
        for a in (1.5, 2.0, 3.0):
            for r in (0.25, 1.0, 4.0):
                dec = decompose(SystemModel([[a]], [[1.0]]))
                ch = make_channel("linear-gaussian", C=[[1.0]], R=[[r]])
                belief = GaussianBelief([0.0], [[1.0]], t=0, kind="predicted")
                p_trace, cmi = [], None
                for _ in range(200):
                    step = update(belief, ch, [0.0])
                    p_trace.append(float(step.belief_post.cov_mat[0, 0]))
                    cmi = step.h_pred - step.h_post
                    belief = predict(step.belief_post, dec, [0.0])
                # independent oracle: Riccati fixed-point iteration
                p = 2.345
                for _ in range(100_000):
                    p_next = (a * a * p * r) / (a * a * p + r)
                    if abs(p_next - p) < 1e-15:
                        break
                    p = p_next
                closed_form = r * (1.0 - 1.0 / (a * a))
                assert abs(p - closed_form) <= 1e-9
                assert abs(p_trace[-1] - closed_form) <= 1e-9
                assert abs(cmi - np.log2(a)) <= 1e-6
                assert cmi >= np.log2(a) - 1e-6  # never below r_exp at steady state
                assert max(p_trace) <= 10.0  # error stays bounded


def test_criterion_04_necessity_across_bundled_suite(bundles):
    desc = "no bounded run in the bundled suite has di rate < r_exp - 0.05"
    with criterion(4, desc):
        for name in bundled_names():
            bundle = bundles(name)
            assert not bundle.acceptance_violation, f"{name} violated necessity"
            nec = bundle.summary["necessity"]
            if nec is not None and nec["applicable"]:
                assert nec["di_rate_bits_per_step"] >= (
                    nec["r_exp_bits_per_step"] - 0.05
                )


def test_criterion_05_sign_sensor_threshold(bundles):
    desc = "1-bit sign sensor stabilizes a=1.5 and fails a=3 (>=95% diverged by t=60)"
    with criterion(5, desc):
        # oracle: interval-halving recursion with per-step factor a/2
        def interval_width_after(a, steps, w0=1.0):
            w = w0
            for _ in range(steps):
                w *= a / 2.0
            return w

        assert interval_width_after(1.5, 60) < 1e-6  # contracts
        assert interval_width_after(3.0, 60) > 1e9  # expands

        easy = bundles("sign-threshold-easy").summary
        assert easy["n_runs"] == 200
        assert easy["outcome"]["ms_bounded_state"] and easy["outcome"]["ms_bounded_error"]
        w = easy["outcome"]["tail_window"]
        tail_state = float(np.mean(easy["ensemble"]["mean_state_sq"][-w:]))
        assert tail_state < easy["outcome"]["bound_state"]

        hard = bundles("sign-threshold-hard").summary
        assert hard["n_runs"] == 200
        assert hard["fraction_halted_by"]["60"] >= 0.95
        assert not hard["outcome"]["ms_bounded_state"]


def test_criterion_06_sufficiency_regime(bundles):
    desc = "shrinking noise: di rate >= r_exp + 0.4, tail error <= 1e-3, asymptotic"
    with criterion(6, desc):
        s = bundles("shrinking-noise").summary
        assert s["di_rate_bits_per_step"] >= s["r_exp_bits_per_step"] + 0.4
        # the excess converges to half a bit per halving of the noise
        excess = s["di_rate_bits_per_step"] - s["r_exp_bits_per_step"]
        assert excess == pytest.approx(0.5 * np.log2(1.0 / 0.5), abs=0.1)
        w = s["outcome"]["tail_window"]
        tail = float(np.mean(s["ensemble"]["mean_err_sq"][-w:]))
        assert tail <= 1e-3
        assert s["outcome"]["asymptotic_error"]


def test_criterion_07_log_concave_sandwich():
    desc = "entropy gap: 0 (gaussian), ~0.1044 (laplace), ~0.6044 (exponential), never < -1e-6"
    with criterion(7, desc):
        gauss = sandwich_check(GaussianBelief([0.4], [[2.2]]))
        assert abs(gauss.gap) <= 1e-9

        rng = np.random.default_rng(20250808)
        laplace = sandwich_check(
            ParticleBelief(rng.laplace(0.0, 1.0, size=10**5)[:, None])
        )
        assert abs(laplace.gap - 0.5 * np.log2(np.pi / np.e)) <= 0.02

        expo = sandwich_check(
            ParticleBelief(rng.exponential(1.0, size=10**5)[:, None])
        )
        expected = 0.5 * np.log2(2 * np.pi * np.e) - np.log2(np.e)
        assert abs(expo.gap - expected) <= 0.02

        for rep in (gauss, laplace, expo):
            assert rep.gap >= -1e-6


def test_criterion_08_curvature_audits():
    desc = "lemma-1 probe 1000 trials clean; lemma-2 scalar closed form to 1e-12; modulo witness"
    with criterion(8, desc):
        # 10^3 randomized spectral-bound probes, zero violations at 1e-8
        violations = 0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 4))
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            W, _ = np.linalg.qr(rng.standard_normal((n, n)))
            V = U @ np.diag(rng.uniform(0.5, 5.0, size=n)) @ W.T
            J = rng.uniform(-0.9, 0.9, size=(n, n))
            P = rng.standard_normal((n, n))
            P = 0.5 * (P + P.T)
            Qs = [
                (lambda M: M @ M.T + 0.1 * np.eye(n))(rng.standard_normal((n, n)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            probe = lemma1_probe(P, Qs, V, J, t=int(rng.integers(0, 8)), L=int(rng.integers(1, 4)))
            if probe.residual_min_eig < -1e-8:
                violations += 1
        assert violations == 0

        # scalar closed form H_t = -4^-t - sum_{j<=t} 4^-j
        dec = decompose(SystemModel([[2.0]], [[1.0]]))
        ch = make_channel("linear-gaussian", C=[[1.0]], R=[[1.0]])
        rng = np.random.default_rng(0)
        z = np.array([0.4])
        zs, ys = [], []
        for _ in range(25):
            zs.append(z.copy())
            ys.append(ch.sample(z, rng))
            z = dec.A_u @ z
        acc = lemma2_accumulate(ch, dec, GaussianPrior([0.0], [[1.0]]), np.array(zs), ys)
        for t in range(25):
            expected = -(4.0**-t) - sum(4.0**-j for j in range(t + 1))
            assert abs(acc.hessians[t][0, 0] - expected) <= 1e-12
        assert acc.first_negative_t == 0

        # modulo channel: recurrent positive curvature, assumption 1 fails
        ctx = build_context(load_bundled("modulo-counterexample"))
        rec = run_closed_loop(ctx, 20250805, 0)
        macc = lemma2_accumulate(ctx.channel, ctx.decomp, ctx.prior, rec.z_u, rec.y)
        assert macc.first_negative_t is None
        v1 = audit_assumption1(ctx.channel, ctx.decomp, rec.z_u, rec.y, L=2)
        assert not v1.passed and v1.witness_t is not None
        assert max(v1.witness_eigs) > 0


def test_criterion_09_filter_cross_validation():
    desc = "grid and particle posteriors track the Kalman oracle over 50 steps"
    with criterion(9, desc):
        ctx = scalar_ctx(horizon=50, mode="update")
        rec = run_closed_loop(ctx, 4242, 0)
        assert rec.steps == 50
        kalman_steps = replay_filter(ctx.decomp, ctx.channel, ctx.prior, "kalman", rec.u, rec.y)
        k_mu = np.array([moments(s.belief_post)[0][0] for s in kalman_steps])
        k_var = np.array([moments(s.belief_post)[1][0, 0] for s in kalman_steps])
        sigma = np.sqrt(k_var)

        # grid is deterministic: hold it to the tight tolerances directly
        grid_steps = replay_filter(ctx.decomp, ctx.channel, ctx.prior, "grid", rec.u, rec.y)
        for t in range(50):
            g_mu, g_cov, _ = moments(grid_steps[t].belief_post)
            assert abs(g_mu[0] - k_mu[t]) <= 1e-3 * sigma[t]
            assert abs(g_cov[0, 0] - k_var[t]) <= 0.02 * k_var[t]

        # the particle estimate is stochastic and its per-step standard
        # error accumulates across resampling; calibrate it from eight
        # independent replicas and hold the tested replay to 3 SEs
        def pf_trace(seed):
            steps = replay_filter(
                ctx.decomp, ctx.channel, ctx.prior, "particle", rec.u, rec.y,
                n_particles=2**14, rng=np.random.default_rng(seed),
            )
            mus = np.array([moments(s.belief_post)[0][0] for s in steps])
            vars_ = np.array([moments(s.belief_post)[1][0, 0] for s in steps])
            return mus - k_mu, vars_ / k_var - 1.0

        cal_dev = []
        cal_var = []
        for seed in (1000, 1002, 1003, 1004, 1005, 1006, 1007, 1008):
            d, v = pf_trace(seed)
            cal_dev.append(d)
            cal_var.append(v)
        se_mu = np.std(cal_dev, axis=0, ddof=1)
        se_var = np.std(cal_var, axis=0, ddof=1)

        dev, var_rel = pf_trace(1001)
        assert np.all(np.abs(dev) <= 3 * se_mu)
        assert np.all(np.abs(var_rel) <= 3 * se_var)
        # hard envelopes and time-averaged unbiasedness at the 2% scale
        assert np.max(np.abs(dev) / sigma) <= 0.3
        assert np.max(np.abs(var_rel)) <= 0.2
        assert abs(np.mean(var_rel)) <= 0.02


def test_criterion_10_reproducibility(tmp_path):
    desc = "same (config, seed) gives byte-identical CSVs; distinct seeds agree within 3 SEs"
    with criterion(10, desc):
        cfg1 = load_bundled("entropy-balance")
        cfg2 = load_bundled("entropy-balance")
        b1 = run_experiment(cfg1, out_dir=str(tmp_path / "b1"), runs=10, workers=1)
        b2 = run_experiment(cfg2, out_dir=str(tmp_path / "b2"), runs=10, workers=1)
        for i in range(10):
            name = f"runs/run_{i:05d}.csv"
            t1 = (tmp_path / "b1" / name).read_bytes()
            t2 = (tmp_path / "b2" / name).read_bytes()
            assert t1 == t2

        from sensebound.loop import run_ensemble

        ctx = scalar_ctx(horizon=80)
        e1 = run_ensemble(ctx, 150, master_seed=555)
        e2 = run_ensemble(ctx, 150, master_seed=556)
        for attr in ("err_norm_sq", "state_norm_sq"):
            t1 = [float(np.mean(getattr(r, attr)[-20:])) for r in e1.runs]
            t2 = [float(np.mean(getattr(r, attr)[-20:])) for r in e2.runs]
            se = np.sqrt(np.var(t1) / len(t1) + np.var(t2) / len(t2))
            assert abs(np.mean(t1) - np.mean(t2)) <= 3 * se
