"""The batched Kalman path against the scalar reference loop.

`run_ensemble` runs Kalman ensembles through `run_kalman_block`; every
record it emits must be the one `run_closed_loop` gives for that run
index: bit for bit in the scalar case, to rounding otherwise, and always
with the same bits at any block size or worker count.
"""

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from sensebound.channels import pulled_back_hessian
from sensebound.config import build_context, parse_config
from sensebound.experiments import load_bundled
from sensebound.infoflow import InfoLedger
from sensebound.loop import run_closed_loop, run_ensemble, run_kalman_block, tracked_block
from sensebound.report import run_experiment, to_jsonable

KALMAN_BUNDLED = ("kalman-baseline", "shrinking-noise", "stable-baseline")
ARRAY_FIELDS = ("t", "z_u", "u", "y", "state_norm_sq", "err_norm_sq", "cond")

# two unstable modes, one stable mode, two inputs, two observations
KALMAN_2D = """
experiment = "kalman-2d"

[system]
A = [[1.6, 0.4, 0.0], [0.0, 1.3, 0.2], [0.0, 0.0, 0.5]]
B = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]

[channel]
kind = "linear-gaussian"
C = [[1.0, 0.5], [0.0, 1.0]]
R = [[1.0, 0.2], [0.2, 0.5]]

[prior]
family = "gaussian"
mean = [0.1, -0.2]
cov = [[1.0, 0.3], [0.3, 2.0]]

[filter]
kind = "kalman"

[controller]
mode = "predict"

[run]
horizon = 40
runs = 9
seed = 5
"""


def bundled_ctx(name, **changes):
    return replace(build_context(load_bundled(name)), **changes)


def assert_ledgers_equal(a: InfoLedger, b: InfoLedger):
    assert a.rows == b.rows
    assert (a.h0, a.r_exp, a.expansion, a.terminal_h_pred, a.di_cum) == (
        b.h0, b.r_exp, b.expansion, b.terminal_h_pred, b.di_cum
    )


def assert_records_equal(a, b):
    """Every RunRecord field equal, arrays in dtype, shape and bits."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "ledger":
            assert_ledgers_equal(x, y)
        elif f.name == "audits":
            assert (x is None) == (y is None)
            if x is not None:
                assert x.to_json_dict() == y.to_json_dict()
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def record_bytes(records):
    return [
        ([getattr(r, f).tobytes() for f in ARRAY_FIELDS],
         [(row.h_pred, row.h_post, row.cmi, row.di_cum) for row in r.ledger.rows],
         r.ledger.terminal_h_pred, r.halted_t)
        for r in records
    ]


class TestBundledKalmanExperiments:
    @pytest.mark.parametrize("name", KALMAN_BUNDLED)
    def test_ensemble_records_equal_scalar_loop(self, name):
        ctx = bundled_ctx(name)
        ens = run_ensemble(ctx, 4, master_seed=77)
        assert len(ens.runs) == 4
        for rec in ens.runs:
            assert_records_equal(rec, run_closed_loop(ctx, 77, rec.run_index))

    def test_mixed_divergence_block(self):
        """Runs that cross the guard leave the block at the step the scalar
        loop halts them; the others run on untouched."""
        ctx = bundled_ctx("shrinking-noise", divergence_guard=30.0)
        block = run_kalman_block(ctx, 77, range(3, 11))
        halted = [r.halted for r in block]
        assert any(halted) and not all(halted)
        for rec in block:
            ref = run_closed_loop(ctx, 77, rec.run_index)
            assert (rec.halted_t, rec.steps) == (ref.halted_t, ref.steps)
            assert rec.ledger.terminal_h_pred == ref.ledger.terminal_h_pred
            assert_records_equal(rec, ref)

    def test_debug_beliefs(self, tmp_path):
        """The bundle's belief snapshots, written from the batched records,
        are the scalar loop's."""
        cfg = load_bundled("kalman-baseline")
        cfg.outputs["debug_beliefs"] = True
        run_experiment(cfg, out_dir=str(tmp_path / "b"), seed=4, runs=3, horizon=100)
        ctx = build_context(cfg)
        for i in range(3):
            ref = run_closed_loop(ctx, 4, i, collect_beliefs=True)
            assert len(ref.beliefs_json) == 100
            written = (tmp_path / "b" / "beliefs" / f"run_{i:05d}.json").read_text()
            assert written == json.dumps(to_jsonable(ref.beliefs_json), indent=1) + "\n"

    def test_audited_records_equal_scalar_loop(self):
        ctx = bundled_ctx("shrinking-noise", horizon=20)
        for rec in run_kalman_block(ctx, 3, range(2), collect_audits=True):
            ref = run_closed_loop(ctx, 3, rec.run_index, collect_audits=True)
            assert rec.audits is not None
            assert_records_equal(rec, ref)


class TestShrinkingNoiseAudit:
    def test_assumption1_uses_the_step_channel(self):
        """alpha_hat of the shrinking-noise schedule, hand-computed from the
        pulled-back Hessians with R_k, and not the R_0-only value."""
        cfg = load_bundled("shrinking-noise")
        cfg.run["audit"] = True
        bundle = run_experiment(cfg, write=False, runs=1, horizon=30)
        got = bundle.summary["audits"]["verdicts"]["assumption1"]["statistic"]

        ctx = build_context(cfg)
        trk = tracked_block(ctx.decomp)
        rec = run_closed_loop(ctx, int(cfg.run["seed"]), 0)

        def alpha_hat(channel_at, L=2):
            worst = max(
                np.linalg.eigvalsh(
                    sum(
                        pulled_back_hessian(
                            channel_at(k), trk, rec.y[k], k, t, rec.z_u[t], rec.u
                        )
                        for k in range(t - L + 1, t + 1)
                    )
                )[-1]
                for t in range(L - 1, rec.steps)
            )
            return -float(worst)

        assert got == pytest.approx(alpha_hat(ctx.channel_at), rel=1e-12)
        r0_only = alpha_hat(lambda k: ctx.channel)
        assert abs(got - r0_only) > 0.5


class TestTwoDimensionalKalman:
    @pytest.fixture(scope="class")
    def ctx(self):
        ctx = build_context(parse_config(KALMAN_2D))
        assert tracked_block(ctx.decomp).n_u == 2 and ctx.decomp.n == 3
        assert ctx.model.m == 2 and ctx.channel.obs_dim == 2
        return ctx

    def test_same_bits_at_any_block_size_and_worker_count(self, ctx):
        n = 9
        whole = record_bytes(run_kalman_block(ctx, 5, range(n)))
        for size in (1, 7):
            blocks = [range(a, min(a + size, n)) for a in range(0, n, size)]
            split = [r for b in blocks for r in run_kalman_block(ctx, 5, b)]
            assert record_bytes(split) == whole, size
        for workers in (1, 2):
            ens = run_ensemble(ctx, n, master_seed=5, workers=workers)
            assert record_bytes(ens.runs) == whole, workers

    def test_agrees_with_scalar_loop(self, ctx):
        for rec in run_kalman_block(ctx, 5, range(4)):
            ref = run_closed_loop(ctx, 5, rec.run_index)
            assert rec.steps == ref.steps == ctx.horizon
            for f in ARRAY_FIELDS:
                a, b = getattr(rec, f), getattr(ref, f)
                assert a.shape == b.shape, f
                # relative to the trace's scale: a coordinate that cancels
                # to near zero keeps only absolute accuracy
                np.testing.assert_allclose(
                    a, b, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(b))), err_msg=f
                )
            assert_ledgers_equal(rec.ledger, ref.ledger)


class TestLedgerHead:
    def test_head_is_the_ledger_at_k_rows(self):
        ctx = bundled_ctx("kalman-baseline", horizon=10)
        full = run_closed_loop(ctx, 1, 0).ledger
        for k in (0, 4, 10):
            head = full.head(k)
            assert head.rows == full.rows[:k]
            assert head.di_cum == (full.rows[k - 1].di_cum if k else 0.0)
        assert full.head(0).terminal_h_pred is None
        assert full.head(4).terminal_h_pred == full.rows[4].h_pred
        assert full.head(10).terminal_h_pred == full.terminal_h_pred
        with pytest.raises(ValueError):
            full.head(11)
