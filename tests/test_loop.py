import ctypes
import json
import os
import platform
import subprocess
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

import sensebound.loop as loop_mod
from sensebound.channels import LinearGaussianChannel, make_channel
from sensebound.config import build_context
from sensebound.experiments import load_bundled
from sensebound.loop import (
    OutcomeThresholds,
    RunContext,
    classify_outcome,
    kalman_error_floor,
    replay_filter,
    run_closed_loop,
    run_ensemble,
    tracked_block,
)
from sensebound.priors import GaussianPrior
from sensebound.report import run_experiment
from sensebound.system import ModeDecomposition, SystemModel, decompose, design_gain


def kalman_ctx(a=2.0, r=1.0, horizon=200, mode="predict", gain_pole=0.5, guard=1e12):
    model = SystemModel([[a]], [[1.0]])
    dec = decompose(model)
    gain = None
    if mode != "none":
        gain = design_gain(dec, method="deadbeat", target_pole=gain_pole)
    return RunContext(
        model=model,
        decomp=dec,
        channel=make_channel("linear-gaussian", C=[[1.0]], R=[[r]]),
        prior=GaussianPrior([0.0], [[1.0]]),
        filter_kind="kalman",
        gain=gain,
        controller_mode=mode,
        horizon=horizon,
        divergence_guard=guard,
    )


def replayed_errors(ctx, rec):
    """Posterior-mean errors z_hat - z_u, re-derived from the recorded (u, y)."""
    steps = replay_filter(ctx.decomp, ctx.channel, ctx.prior, ctx.filter_kind, rec.u, rec.y)
    return np.array([s.belief_post.mean() for s in steps]) - rec.z_u


class TestClosedLoop:
    def test_error_floor_riccati(self):
        """500-run tail mean of ||e||^2 sits at the Riccati fixed point."""
        ens = run_ensemble(kalman_ctx(), 500, master_seed=101)
        tail = float(np.mean(ens.mean_err_sq[-50:]))
        assert tail == pytest.approx(kalman_error_floor(2.0, 1.0), rel=0.05)

    def test_modal_state_mapped_once_per_step(self, monkeypatch):
        """x at the end of step t is x at the start of step t+1, and the
        guard does not read x after the final step: one from_modes call per
        step, the initial state's and one after each step but the last."""
        ctx = kalman_ctx(horizon=12)
        calls = []
        original = ModeDecomposition.from_modes

        def counting(self, z):
            calls.append(1)
            return original(self, z)

        ref = run_closed_loop(ctx, 8, 2)
        monkeypatch.setattr(ModeDecomposition, "from_modes", counting)
        rec = run_closed_loop(ctx, 8, 2)
        assert len(calls) == ctx.horizon
        assert rec.state_norm_sq.tobytes() == ref.state_norm_sq.tobytes()

    def test_open_loop_divergence_flag(self):
        rec = run_closed_loop(kalman_ctx(mode="none"), 7, 0)
        assert rec.outcome == "halted" and rec.steps > 0
        # autonomous growth doubles the state every step
        assert rec.steps < 45

    def test_stable_plant_bounded_without_control(self):
        model = SystemModel([[0.5]], [[1.0]], allow_stable=True)
        dec = decompose(model)
        ctx = RunContext(
            model=model, decomp=dec,
            channel=make_channel("linear-gaussian", C=[[1.0]], R=[[1.0]]),
            prior=GaussianPrior([0.0], [[1.0]]),
            filter_kind="kalman", gain=None, controller_mode="none",
            horizon=80,
        )
        trk = tracked_block(dec)
        assert trk.n_u == 1 and dec.n_u == 0
        ens = run_ensemble(ctx, 50, master_seed=5)
        assert ens.n_halted == 0
        assert float(np.mean(ens.mean_state_sq[-20:])) < 1.0
        assert ens.mean_ledger.r_exp == 0.0

    def test_certainty_equivalence_identity(self):
        """z_{t+1} - A_cl z_t recomputes to B_u K e_t (update timing)."""
        ctx = kalman_ctx(mode="update", horizon=60)
        rec = run_closed_loop(ctx, 21, 0)
        e = replayed_errors(ctx, rec)
        A_cl = ctx.decomp.A_u + ctx.decomp.B_u @ ctx.gain.K
        for t in range(rec.steps - 1):
            lhs = rec.z_u[t + 1] - A_cl @ rec.z_u[t]
            w_t = ctx.decomp.B_u @ ctx.gain.K @ e[t]
            assert lhs == pytest.approx(w_t, abs=1e-9)

    def test_error_recomputable(self):
        ctx = kalman_ctx(horizon=40)
        rec = run_closed_loop(ctx, 33, 0)
        e = replayed_errors(ctx, rec)
        assert e.shape == (rec.steps, 1)
        assert np.allclose(rec.err_norm_sq, np.sum(e**2, axis=1))

    def test_measurability_canary(self):
        """In predict timing, u_t cannot depend on y_t: spiking the current
        observation leaves u_t unchanged and only affects u_{t+1}."""

        class SpikedChannel(LinearGaussianChannel):
            def __init__(self, spike_at):
                super().__init__([[1.0]], [[1.0]])
                self.spike_at = spike_at
                self.calls = 0

            def sample(self, x, rng):
                y = super().sample(x, rng)
                if self.calls == self.spike_at:
                    y = y + 100.0
                self.calls += 1
                return y

        def run_with(spike_at):
            model = SystemModel([[2.0]], [[1.0]])
            dec = decompose(model)
            ctx = RunContext(
                model=model, decomp=dec, channel=SpikedChannel(spike_at),
                prior=GaussianPrior([0.0], [[1.0]]), filter_kind="kalman",
                gain=design_gain(dec, method="deadbeat", target_pole=0.5),
                controller_mode="predict", horizon=8, divergence_guard=1e12,
            )
            return run_closed_loop(ctx, 99, 0)

        clean = run_with(spike_at=10**9)
        spiked = run_with(spike_at=5)
        assert spiked.u[5] == pytest.approx(clean.u[5], abs=1e-12)
        assert abs(spiked.u[6] - clean.u[6]) > 1.0

    def test_update_timing_sees_current_observation(self):
        class SpikedChannel(LinearGaussianChannel):
            def __init__(self, spike_at):
                super().__init__([[1.0]], [[1.0]])
                self.spike_at = spike_at
                self.calls = 0

            def sample(self, x, rng):
                y = super().sample(x, rng)
                if self.calls == self.spike_at:
                    y = y + 100.0
                self.calls += 1
                return y

        def run_with(spike_at):
            model = SystemModel([[2.0]], [[1.0]])
            dec = decompose(model)
            ctx = RunContext(
                model=model, decomp=dec, channel=SpikedChannel(spike_at),
                prior=GaussianPrior([0.0], [[1.0]]), filter_kind="kalman",
                gain=design_gain(dec, method="deadbeat", target_pole=0.5),
                controller_mode="update", horizon=8, divergence_guard=1e12,
            )
            return run_closed_loop(ctx, 99, 0)

        clean = run_with(spike_at=10**9)
        spiked = run_with(spike_at=5)
        assert abs(spiked.u[5] - clean.u[5]) > 1.0


class TestEnsemble:
    def test_matches_deterministic_riccati_trace(self):
        ens = run_ensemble(kalman_ctx(horizon=60), 500, master_seed=11)
        p = 1.0
        for t in range(60):
            p_post = p / (p + 1.0)
            se = p_post * np.sqrt(2.0 / 500) * 3  # 3 sigma for a chi-square mean
            assert abs(ens.mean_err_sq[t] - p_post) < max(3 * se, 0.15 * p_post)
            p = 4.0 * p_post

    def test_single_run_equals_ensemble_of_one(self):
        ens = run_ensemble(kalman_ctx(horizon=30), 1, master_seed=3)
        rec = run_closed_loop(kalman_ctx(horizon=30), 3, 0)
        assert np.allclose(ens.mean_err_sq, rec.err_norm_sq)
        assert np.allclose(ens.mean_state_sq, rec.state_norm_sq)

    def test_two_master_seeds_agree_statistically(self):
        e1 = run_ensemble(kalman_ctx(horizon=80), 150, master_seed=1)
        e2 = run_ensemble(kalman_ctx(horizon=80), 150, master_seed=2)
        tails1 = [np.mean(r.err_norm_sq[-20:]) for r in e1.runs]
        tails2 = [np.mean(r.err_norm_sq[-20:]) for r in e2.runs]
        se = np.sqrt(np.var(tails1) / 150 + np.var(tails2) / 150)
        assert abs(np.mean(tails1) - np.mean(tails2)) < 3 * se

    def test_deterministic_given_master_seed(self):
        e1 = run_ensemble(kalman_ctx(horizon=30), 20, master_seed=42)
        e2 = run_ensemble(kalman_ctx(horizon=30), 20, master_seed=42)
        assert np.array_equal(e1.mean_err_sq, e2.mean_err_sq)
        assert e1.mean_ledger.di_cum == e2.mean_ledger.di_cum

    def test_worker_pool_matches_serial(self):
        e1 = run_ensemble(kalman_ctx(horizon=30), 16, master_seed=9, workers=1)
        e2 = run_ensemble(kalman_ctx(horizon=30), 16, master_seed=9, workers=2)
        assert np.array_equal(e1.mean_err_sq, e2.mean_err_sq)
        assert e1.mean_ledger.di_cum == e2.mean_ledger.di_cum

    def test_kalman_ensemble_starts_no_pool(self, monkeypatch):
        """Kalman ensembles run as one in-process block at any worker count."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a Kalman ensemble started a process pool")

        monkeypatch.setattr(loop_mod, "ProcessPoolExecutor", no_pool)
        ens = run_ensemble(kalman_ctx(horizon=10), 5, master_seed=9, workers=2)
        assert len(ens.runs) == 5

    def test_grid_worker_pool_matches_serial(self, monkeypatch):
        """Grid runs go through the process pool at workers > 1 and give the
        serial records, ledgers and summary."""
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(loop_mod, "ProcessPoolExecutor", CountingPool)
        cfg = load_bundled("sign-threshold-easy")
        ctx = replace(build_context(cfg), horizon=30)
        serial = run_ensemble(ctx, 3, master_seed=4, workers=1)
        pooled = run_ensemble(ctx, 3, master_seed=4, workers=2)
        assert pools == [2]
        assert [r.run_index for r in pooled.runs] == [0, 1, 2]
        for a, b in zip(serial.runs, pooled.runs, strict=True):
            for f in fields(a):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if f.name == "ledger":
                    for col in ("h_pred", "h_post", "cmi", "di_cum"):
                        assert getattr(x, col) == getattr(y, col), col
                    assert x.terminal_h_pred == y.terminal_h_pred
                elif isinstance(x, np.ndarray):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
                else:
                    assert x == y, f.name
        summaries = [
            run_experiment(load_bundled("sign-threshold-easy"), write=False, seed=4,
                           runs=3, horizon=30, workers=w).summary
            for w in (1, 2)
        ]
        assert json.dumps(summaries[0], sort_keys=True) == json.dumps(summaries[1], sort_keys=True)
        assert pools == [2, 2]

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc" or not hasattr(ctypes.CDLL(None), "mallinfo2"),
        reason="reads glibc's malloc state",
    )
    def test_ensemble_keeps_freed_memory_on_the_heap(self):
        """After `run_ensemble`, an 8 MiB block freed at the top of the heap
        stays there (`_hold_heap`); under glibc's default thresholds it is
        mapped and unmapped, and smaller blocks freed at the top can hand
        their pages back on every step. Run in a fresh interpreter, where
        the defaults hold until the ensemble runs."""
        child = textwrap.dedent(f"""
            import ctypes, sys
            from dataclasses import replace
            sys.path.insert(0, {os.path.dirname(os.path.dirname(loop_mod.__file__))!r})
            from sensebound.config import build_context
            from sensebound.experiments import load_bundled
            from sensebound.loop import run_ensemble

            class MallInfo2(ctypes.Structure):
                _fields_ = [(name, ctypes.c_size_t) for name in (
                    "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                    "fsmblks", "uordblks", "fordblks", "keepcost")]

            libc = ctypes.CDLL(None)
            libc.malloc.restype, libc.free.argtypes = ctypes.c_void_p, [ctypes.c_void_p]
            libc.mallinfo2.restype = MallInfo2
            run_ensemble(replace(build_context(load_bundled("sign-threshold-easy")),
                                 horizon=2), 2)
            libc.free(libc.malloc(8 << 20))
            print(libc.mallinfo2().keepcost)
        """)
        out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                             check=True, timeout=120)
        assert int(out.stdout) >= 8 << 20


class TestClassification:
    def _stats(self, err, state, horizon=None, n_halted=0):
        from sensebound.loop import EnsembleStats

        err = np.asarray(err, dtype=float)
        return EnsembleStats(
            n_runs=10, horizon=horizon or len(err), master_seed=0,
            mean_state_sq=np.asarray(state, dtype=float), mean_err_sq=err,
            mean_cmi=np.zeros_like(err), mean_cmi_channel=None,
            alive=np.full(len(err), 10), n_halted=n_halted, n_degenerate=0,
            fraction_halted_by={}, mean_ledger=None, di_rate=None,
        )

    def test_bounded_floor_not_asymptotic(self):
        err = np.full(100, 0.75)
        ens = self._stats(err, np.full(100, 5.0))
        oc = classify_outcome(ens, OutcomeThresholds(bound_state=50, bound_error=7.5))
        assert oc.ms_bounded_error and not oc.asymptotic_error

    def test_decaying_is_asymptotic(self):
        err = np.geomspace(1.0, 1e-9, 100)
        ens = self._stats(err, err)
        oc = classify_outcome(ens, OutcomeThresholds(bound_state=10, bound_error=10))
        assert oc.asymptotic_error and oc.ms_bounded_error

    def test_halted_run_is_unbounded(self):
        err = np.full(100, 0.1)
        ens = self._stats(err, err, n_halted=1)
        oc = classify_outcome(ens, OutcomeThresholds(bound_state=10, bound_error=10))
        assert not oc.ms_bounded_error and not oc.ms_bounded_state

    def test_horizon_must_cover_tail_window(self):
        err = np.full(10, 0.1)
        ens = self._stats(err, err)
        with pytest.raises(ValueError):
            classify_outcome(
                ens, OutcomeThresholds(bound_state=1, bound_error=1, tail_window=25)
            )

    def test_asymptotic_implies_bounded(self):
        err = np.geomspace(1.0, 1e-9, 100)
        ens = self._stats(err, err, n_halted=1)  # halted: not bounded
        oc = classify_outcome(ens, OutcomeThresholds(bound_state=10, bound_error=10))
        assert not oc.asymptotic_error  # asymptotic requires bounded


class TestIssEnvelope:
    def test_regression_envelope_from_kalman(self, bundles):
        """Fit tail_state <= c1 tail_err + c2 on the Kalman baseline, then
        assert it on the tanh and sign channels."""
        kal = bundles("kalman-baseline", runs=150).summary
        w = kal["outcome"]["tail_window"]
        k_state = float(np.mean(kal["ensemble"]["mean_state_sq"][-w:]))
        k_err = float(np.mean(kal["ensemble"]["mean_err_sq"][-w:]))
        c1 = 2.0 * k_state / k_err
        c2 = 1e-3
        for name in ("entropy-balance", "sign-threshold-easy"):
            s = bundles(name).summary
            if not s["outcome"]["ms_bounded_error"]:
                continue
            wn = s["outcome"]["tail_window"]
            t_state = float(np.mean(s["ensemble"]["mean_state_sq"][-wn:]))
            t_err = float(np.mean(s["ensemble"]["mean_err_sq"][-wn:]))
            assert t_state <= c1 * t_err + c2


class TestReplay:
    def test_replay_reproduces_filter(self):
        ctx = kalman_ctx(horizon=25)
        rec = run_closed_loop(ctx, 55, 0)
        steps = replay_filter(
            ctx.decomp, ctx.channel, ctx.prior, "kalman", rec.u, rec.y
        )
        for i, step in enumerate(steps):
            assert step.h_post == pytest.approx(rec.ledger.h_post[i], abs=1e-12)

    def test_replay_matches_grid_ledger_exactly(self):
        """The loop and the replay drive predict/update separately; on a
        grid run they must agree on every ledger entropy bit for bit."""
        ctx = replace(build_context(load_bundled("sign-threshold-easy")), horizon=6)
        rec = run_closed_loop(ctx, 17, 3)
        assert ctx.filter_kind == "grid" and rec.steps == 6
        assert rec.y.shape == (6, ctx.channel.obs_dim)
        steps = replay_filter(
            ctx.decomp, ctx.channel, ctx.prior, "grid", rec.u, rec.y, grid_spec=ctx.grid_spec
        )
        assert [(s.h_pred, s.h_post) for s in steps] == list(
            zip(rec.ledger.h_pred, rec.ledger.h_post, strict=True)
        )
