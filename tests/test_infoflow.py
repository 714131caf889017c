import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sensebound.channels import make_channel
from sensebound.errors import OutOfOrderStep
from sensebound.experiments import load_bundled
from sensebound.filters import GaussianBelief, ParticleBelief, predict, update
from sensebound.infoflow import (
    InfoLedger,
    ensemble_mean_ledger,
    exact_step_means,
    necessity_audit,
    rate_balance_check,
    sandwich_check,
)
from sensebound.loop import (
    OutcomeThresholds,
    RunContext,
    classify_outcome,
    kalman_error_floor,
    run_closed_loop,
    run_ensemble,
)
from sensebound.priors import GaussianPrior
from sensebound.report import run_experiment
from sensebound.system import SystemModel, decompose


class _FakeStep:
    def __init__(self, t, h_pred, h_post):
        self.t = t
        self.h_pred = h_pred
        self.h_post = h_post


class TestLedger:
    def test_single_step(self):
        lg = InfoLedger(r_exp=1.0)
        lg.record(_FakeStep(0, 2.0, 1.0))
        assert lg.di_cum[-1] == pytest.approx(1.0)

    def test_additivity(self):
        lg = InfoLedger(r_exp=1.0)
        lg.record(_FakeStep(0, 2.0, 1.0))
        lg.record(_FakeStep(1, 2.0, 1.5))
        assert lg.di_cum == pytest.approx([1.0, 1.5])
        assert lg.cmi == pytest.approx([1.0, 0.5])
        assert (lg.h_pred, lg.h_post) == ([2.0, 2.0], [1.0, 1.5])

    def test_out_of_order(self):
        lg = InfoLedger(r_exp=1.0)
        with pytest.raises(OutOfOrderStep):
            lg.record(_FakeStep(3, 2.0, 1.0))

    def test_compensated_sum_matches_fsum(self):
        rng = np.random.default_rng(5)
        vals = rng.uniform(-1.0, 1.0, size=2000)
        lg = InfoLedger(r_exp=0.0)
        for t, v in enumerate(vals):
            lg.record(_FakeStep(t, v, 0.0))
        assert lg.di_cum[-1] == pytest.approx(math.fsum(vals), abs=1e-12)

    def test_steady_state_cmi_is_log2_a(self, scalar_double, unit_gaussian_channel):
        """Riccati fixed point: p* = r(1 - a^-2), cmi* = log2 a."""
        b = GaussianBelief([0.0], [[1.0]], t=0, kind="predicted")
        lg = InfoLedger(r_exp=1.0)
        for t in range(120):
            step = update(b, unit_gaussian_channel, [0.0])
            lg.record(step)
            b = predict(step.belief_post, scalar_double, [0.0])
        assert lg.cmi[-1] == pytest.approx(1.0, abs=1e-9)
        assert step.belief_post.cov_mat[0, 0] == pytest.approx(
            kalman_error_floor(2.0, 1.0), abs=1e-12
        )


class TestRateBalance:
    def _kalman_run(self, horizon=101, seed=0):
        model = SystemModel([[2.0]], [[1.0]])
        ctx = RunContext(
            model=model,
            decomp=decompose(model),
            channel=make_channel("linear-gaussian", C=[[1.0]], R=[[1.0]]),
            prior=GaussianPrior([0.0], [[1.0]]),
            filter_kind="kalman",
            gain=None,
            controller_mode="none",
            horizon=horizon,
            divergence_guard=1e300,
        )
        return run_closed_loop(ctx, seed, 0)

    def test_kalman_identity_exact(self):
        rec = self._kalman_run()
        assert abs(rate_balance_check(rec.ledger, T=100)) <= 1e-9

    def test_kalman_identity_many_combos(self):
        for a in (1.5, 2.0, 3.0):
            for r in (0.25, 1.0, 4.0):
                model = SystemModel([[a]], [[1.0]])
                ctx = RunContext(
                    model=model,
                    decomp=decompose(model),
                    channel=make_channel("linear-gaussian", C=[[1.0]], R=[[r]]),
                    prior=GaussianPrior([0.0], [[1.0]]),
                    filter_kind="kalman",
                    gain=None,
                    controller_mode="none",
                    horizon=60,
                    divergence_guard=1e300,
                )
                rec = run_closed_loop(ctx, 1, 0)
                assert abs(rate_balance_check(rec.ledger)) <= 1e-9

    def test_needs_terminal_entropy(self):
        lg = InfoLedger(r_exp=1.0)
        lg.record(_FakeStep(0, 2.0, 1.0))
        with pytest.raises(ValueError):
            rate_balance_check(lg, T=0)

    def test_stable_baseline_nonnegative_rate(self, bundles):
        b = bundles("stable-baseline", runs=50)
        s = b.summary
        assert s["r_exp_bits_per_step"] == 0.0
        assert s["di_rate_bits_per_step"] >= 0.0
        assert abs(s["rate_balance_residual_bits_per_step"]) <= 1e-9


def _outcome(err, threshold, n_halted=0):
    """classify_outcome of an ensemble whose mean-square error trace is err."""
    ens = SimpleNamespace(horizon=len(err), n_halted=n_halted, n_degenerate=0,
                          mean_state_sq=np.zeros(len(err)), mean_err_sq=err)
    return classify_outcome(ens, OutcomeThresholds(bound_state=1.0, bound_error=threshold,
                                                   tail_window=len(err) // 4))


class TestNecessity:
    def test_bounded_kalman_passes(self):
        lg = InfoLedger(r_exp=1.0)
        for t in range(40):
            lg.record(_FakeStep(t, 2.0, 1.0))
        err = np.full(40, 0.5)
        v = necessity_audit(lg, err, _outcome(err, threshold=1.0))
        assert v.applicable and v.passed
        assert v.di_rate_bits_per_step == pytest.approx(1.0)

    def test_unbounded_is_vacuous(self):
        lg = InfoLedger(r_exp=1.585)
        for t in range(40):
            lg.record(_FakeStep(t, 2.0, 1.9))
        err = np.geomspace(1.0, 1e9, 40)
        v = necessity_audit(lg, err, _outcome(err, threshold=10.0))
        assert not v.applicable and v.passed is None
        assert v.detail.startswith("tail max E||e||^2 = ")
        assert "exceeds threshold 10" in v.detail

    def test_violation_detected(self):
        lg = InfoLedger(r_exp=1.0)
        for t in range(40):
            lg.record(_FakeStep(t, 2.0, 1.8))  # 0.2 bits/step only
        err = np.full(40, 0.5)
        v = necessity_audit(lg, err, _outcome(err, threshold=1.0))
        assert v.applicable and not v.passed
        assert "VIOLATION" in v.detail

    def test_premise_is_the_outcome_verdict(self):
        """A halted run makes the ensemble unbounded, so a rate shortfall
        under a small error tail is vacuous, not a violation."""
        lg = InfoLedger(r_exp=1.0)
        for t in range(40):
            lg.record(_FakeStep(t, 2.0, 1.8))
        err = np.full(40, 0.5)
        outcome = _outcome(err, threshold=1.0, n_halted=1)
        assert not outcome.ms_bounded_error
        v = necessity_audit(lg, err, outcome)
        assert not v.applicable and not v.bounded and v.passed is None
        assert "a run halted or degenerated" in v.detail

    def test_guarded_kalman_ensemble_agrees_with_its_outcome(self):
        """kalman-baseline with a guard at 200 halts a few of 100 runs: the
        outcome calls the ensemble unbounded, and so does the necessity
        check, whose premise it is."""
        cfg = load_bundled("kalman-baseline")
        cfg.run["divergence_guard"] = 200.0
        s = run_experiment(cfg, write=False, runs=100).summary
        assert 0 < s["n_halted"] < 100
        assert s["outcome"]["ms_bounded_error"] is False
        assert s["necessity"]["applicable"] is False and s["necessity"]["bounded"] is False
        assert s["necessity"]["passed"] is None


class TestSandwich:
    def test_gaussian_gap_zero(self):
        b = GaussianBelief([0.3], [[2.7]])
        rep = sandwich_check(b, logconcave_hint=True)
        assert rep.gap == pytest.approx(0.0, abs=1e-9)
        assert rep.ok_lower and rep.within_cap

    def test_laplace_gap(self):
        rng = np.random.default_rng(42)
        samples = rng.laplace(0.0, 1.3, size=10**5)
        rep = sandwich_check(ParticleBelief(samples[:, None]))
        expected = 0.5 * np.log2(np.pi / np.e)  # ~0.1044, scale-free
        assert rep.gap == pytest.approx(expected, abs=0.02)
        assert rep.ok_lower

    def test_exponential_gap_scale_free(self):
        rng = np.random.default_rng(43)
        expected = 0.5 * np.log2(2.0 * np.pi * np.e) - np.log2(np.e)  # ~0.6044
        for lam in (0.5, 2.0):
            samples = rng.exponential(1.0 / lam, size=10**5)
            rep = sandwich_check(ParticleBelief(samples[:, None]))
            assert rep.gap == pytest.approx(expected, abs=0.02)

    def test_uniform_within_cap(self):
        rng = np.random.default_rng(44)
        rep = sandwich_check(ParticleBelief(rng.uniform(0, 1, size=10**5)[:, None]))
        expected = 0.5 * np.log2(2 * np.pi * np.e / 12.0)  # ~0.2546
        assert rep.gap == pytest.approx(expected, abs=0.02)
        assert rep.within_cap


class TestEnsembleLedger:
    def test_mean_of_identical_runs(self):
        ledgers = []
        for _ in range(3):
            lg = InfoLedger(r_exp=1.0)
            lg.record(_FakeStep(0, 2.0, 1.0))
            lg.terminal_h_pred = 2.0
            ledgers.append(lg)
        mean = ensemble_mean_ledger(ledgers)
        assert mean.di_cum[-1] == pytest.approx(1.0)
        assert mean.terminal_h_pred == pytest.approx(2.0)

    def test_duality_grid_mean_cmi_matches_kalman(self):
        """Ensemble-mean realized drop vs the deterministic Kalman CMI."""
        model = SystemModel([[2.0]], [[1.0]])
        dec = decompose(model)
        ch = make_channel("linear-gaussian", C=[[1.0]], R=[[1.0]])
        ctx = RunContext(
            model=model, decomp=dec, channel=ch,
            prior=GaussianPrior([0.0], [[1.0]]),
            filter_kind="grid", gain=None, controller_mode="none",
            horizon=12, divergence_guard=1e300,
        )
        ens = run_ensemble(ctx, 100, master_seed=6)
        # oracle: deterministic Riccati variance trace
        p = 1.0
        for t in range(12):
            p_post = p * 1.0 / (p + 1.0)
            cmi = 0.5 * np.log2(p / p_post)
            assert ens.mean_cmi[t] == pytest.approx(cmi, abs=0.02)
            p = 4.0 * p_post

    def test_monotone_accumulation_in_expectation(self, bundles):
        for name in ("entropy-balance", "stable-baseline"):
            s = bundles(name).summary if name != "stable-baseline" else bundles(name, runs=50).summary
            assert np.all(np.asarray(s["ensemble"]["mean_cmi_bits"]) > -0.01)


@st.composite
def traces_with_shared_objects(draw):
    """Ragged traces of lengths 0..T: some entries are one list object
    passed several times, as a Kalman block's ledger columns are, the
    others distinct arrays."""
    T = draw(st.integers(0, 12))
    values = st.floats(-1e12, 1e12, allow_nan=False, width=64)
    bases = draw(st.lists(st.lists(values, max_size=T), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(bases) - 1), st.booleans()),
                          min_size=1, max_size=12))
    return [bases[i] if shared else np.array(bases[i], dtype=float) for i, shared in picks]


_SHARED = [0.1, 1e-17, -3.0, 2.5e8]


class TestExactStepMeans:
    @given(traces_with_shared_objects())
    @example([[0.1, 0.2, 0.3]])  # one trace
    @example([_SHARED] * 7)  # all one object
    @example([_SHARED] * 3 + [_SHARED[:2]] * 2 + [[]])
    @settings(max_examples=200, deadline=None)
    def test_shared_traces_count_as_their_copies(self, traces):
        got = exact_step_means(traces)
        copies = exact_step_means([np.array(tr, dtype=float) for tr in traces])
        assert np.array(got).tobytes() == np.array(copies).tobytes()
        longest = max(len(tr) for tr in traces)
        want = [math.fsum(tr[t] for tr in traces if len(tr) > t)
                / sum(len(tr) > t for tr in traces) for t in range(longest)]
        assert np.array(got).tobytes() == np.array(want).tobytes()
