"""The batched Kalman path against the scalar reference loop.

`run_ensemble` runs Kalman ensembles through `run_block`; every record it
emits must be, bit for bit, the one `run_closed_loop` gives for that run
index, at any block size or worker count.
"""

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from sensebound import filters
from sensebound.channels import make_channel
from sensebound.config import build_context, parse_config
from sensebound.experiments import load_bundled
from sensebound.filters import Belief, GaussianBelief, make_initial_belief
from sensebound.infoflow import InfoLedger, ensemble_mean_ledger
from sensebound.loop import (
    RunContext,
    run_block,
    run_closed_loop,
    run_ensemble,
    tracked_block,
)
from sensebound.priors import GaussianPrior
from sensebound.report import run_experiment, to_jsonable
from sensebound.system import SystemModel, decompose, design_gain

KALMAN_BUNDLED = ("kalman-baseline", "shrinking-noise", "stable-baseline")
ARRAY_FIELDS = ("z_u", "u", "y", "state_norm_sq", "err_norm_sq", "cond")

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


LEDGER_COLUMNS = ("h_pred", "h_post", "cmi", "di_cum")


def assert_ledgers_equal(a: InfoLedger, b: InfoLedger):
    """Every column equal, value for value and type for type."""
    for col in LEDGER_COLUMNS:
        x, y = getattr(a, col), getattr(b, col)
        assert x == y, col
        assert [type(v) for v in x] == [type(v) for v in y], col
    assert (a.r_exp, a.expansion, a.terminal_h_pred) == (
        b.r_exp, b.expansion, b.terminal_h_pred
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
                assert to_jsonable(x) == to_jsonable(y)
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def record_bytes(records):
    return [
        ([getattr(r, f).tobytes() for f in ARRAY_FIELDS],
         [getattr(r.ledger, col) for col in LEDGER_COLUMNS],
         r.ledger.terminal_h_pred, r.steps, r.outcome)
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
        block = run_block(ctx, 77, range(3, 11))
        halted = [r.outcome == "halted" for r in block]
        assert any(halted) and not all(halted)
        for rec in block:
            ref = run_closed_loop(ctx, 77, rec.run_index)
            assert (rec.outcome, rec.steps) == (ref.outcome, ref.steps)
            assert rec.ledger.terminal_h_pred == ref.ledger.terminal_h_pred
            assert_records_equal(rec, ref)

    def test_guard_crossed_after_the_last_step(self):
        """A run whose state crosses the guard only after its final step has
        recorded every step: it completed, in the scalar loop and at any
        block size, and its ledger enters the DI rate."""
        ctx = bundled_ctx("kalman-baseline", controller_mode="none", horizon=20)
        seed, n = 20250802, 40
        longer = run_block(replace(ctx, horizon=21), seed, range(n))
        late = [r.run_index for r in longer if r.outcome == "halted" and r.steps == 20]
        assert late
        whole = run_block(ctx, seed, range(n))
        for i in late:
            single = run_block(ctx, seed, range(i, i + 1))[0]
            for rec in (whole[i], single, run_closed_loop(ctx, seed, i)):
                assert (rec.outcome, rec.steps) == ("completed", 20)
        ens = run_ensemble(ctx, n, master_seed=seed)
        assert ens.n_halted == sum(r.steps < 20 for r in ens.runs) > 0
        completed = [r for r in ens.runs if r.outcome == "completed"]
        assert set(late) <= {r.run_index for r in completed}
        assert ens.di_rate == ensemble_mean_ledger([r.ledger for r in completed]).di_rate()

    def test_debug_beliefs(self, tmp_path):
        """The bundle's belief snapshots, written from the batched records,
        are the scalar loop's."""
        cfg = load_bundled("kalman-baseline")
        cfg.outputs["debug_beliefs"] = True
        run_experiment(cfg, out_dir=str(tmp_path / "b"), seed=4, runs=3, horizon=100)
        ctx = build_context(cfg)
        for i in range(3):
            ref = run_closed_loop(dataclasses.replace(ctx, collect_beliefs=True), 4, i)
            assert len(ref.beliefs_json) == 100
            written = (tmp_path / "b" / "beliefs" / f"run_{i:05d}.json").read_text()
            assert written == json.dumps(to_jsonable(ref.beliefs_json), indent=1) + "\n"

    def test_audited_records_equal_scalar_loop(self):
        ctx = bundled_ctx("shrinking-noise", horizon=20)
        ctx = dataclasses.replace(ctx, collect_audits=True)
        for rec in run_block(ctx, 3, range(2)):
            ref = run_closed_loop(ctx, 3, rec.run_index)
            assert rec.audits is not None
            assert_records_equal(rec, ref)


class TestShrinkingNoiseAudit:
    def test_assumption1_uses_the_step_channel(self):
        """alpha_hat of the shrinking-noise schedule, hand-computed from the
        Hessians with R_k at the recorded states, pulled back to each
        window's last step, and not the R_0-only value."""
        cfg = load_bundled("shrinking-noise")
        cfg.run["audit"] = True
        bundle = run_experiment(cfg, write=False, runs=1, horizon=30)
        got = bundle.summary["audits"]["verdicts"]["assumption1"]["statistic"]

        ctx = build_context(cfg)
        trk = tracked_block(ctx.decomp)
        rec = run_closed_loop(ctx, int(cfg.run["seed"]), 0)

        A_inv = np.linalg.inv(trk.A_u)

        def pulled_back(channel, k, t):
            M = np.linalg.matrix_power(A_inv, t - k)
            return M.T @ channel.hessian(rec.y[k], rec.z_u[k]) @ M

        def alpha_hat(channel_at, L=2):
            worst = max(
                np.linalg.eigvalsh(
                    sum(pulled_back(channel_at(k), k, t) for k in range(t - L + 1, t + 1))
                )[-1]
                for t in range(L - 1, rec.steps)
            )
            return -float(worst)

        assert got == pytest.approx(alpha_hat(ctx.channel.at), rel=1e-12)
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
        whole = record_bytes(run_block(ctx, 5, range(n)))
        for size in (1, 7):
            blocks = [range(a, min(a + size, n)) for a in range(0, n, size)]
            split = [r for b in blocks for r in run_block(ctx, 5, b)]
            assert record_bytes(split) == whole, size
        for workers in (1, 2):
            ens = run_ensemble(ctx, n, master_seed=5, workers=workers)
            assert record_bytes(ens.runs) == whole, workers

    def test_agrees_with_scalar_loop(self, ctx):
        """Every record field, bit for bit: the block's row products and the
        scalar loop's matvecs call the same kernel."""
        for rec in run_block(ctx, 5, range(4)):
            ref = run_closed_loop(ctx, 5, rec.run_index)
            assert rec.steps == ref.steps == ctx.horizon
            assert_records_equal(rec, ref)


class TestLedgerHead:
    def test_head_is_the_ledger_at_k_rows(self):
        ctx = bundled_ctx("kalman-baseline", horizon=10)
        full = run_closed_loop(ctx, 1, 0).ledger
        # each head is closed with the predicted entropy that followed it
        heads = full.columns([0, 4, 10], [None, full.h_pred[4], full.terminal_h_pred])
        for k, head in zip((0, 4, 10), heads):
            for col in LEDGER_COLUMNS:
                assert getattr(head, col) == getattr(full, col)[:k], col
            assert len(head) == k
        assert heads[0].terminal_h_pred is None
        assert heads[1].terminal_h_pred == full.h_pred[4]
        assert heads[2].terminal_h_pred == full.terminal_h_pred

    def test_runs_that_end_together_share_one_ledger(self):
        """Heads of equal length and terminal value are one object, so their
        CSV cells are formatted once; any other pair is two objects."""
        ctx = bundled_ctx("kalman-baseline", horizon=10)
        full = run_closed_loop(ctx, 1, 0).ledger
        h4, h10 = full.h_pred[4], full.terminal_h_pred
        heads = full.columns([4, 10, 4, 10, 4, 10], [h4, h10, h4, h10, h4, h4])
        assert heads[0] is heads[2] is heads[4]
        assert heads[1] is heads[3]
        assert len({id(h) for h in heads}) == 3
        assert heads[5] is not heads[1] and heads[5].terminal_h_pred == h4
        cells = heads[0].csv_cells()
        assert heads[2].csv_cells() is cells and len(cells) == 4


def plant_2d_ctx(horizon):
    """The coupled 2x2 plant of the 2-D grid cross-check, seen through
    C = I, R = 0.25 I."""
    model = SystemModel([[1.5, 0.3], [0.0, 1.3]], np.eye(2))
    dec = decompose(model)
    return RunContext(
        model=model, decomp=dec,
        channel=make_channel("linear-gaussian", C=np.eye(2), R=0.25 * np.eye(2)),
        prior=GaussianPrior([0.0, 0.0], np.eye(2)), filter_kind="kalman",
        gain=design_gain(dec, method="lqr"), horizon=horizon,
    )


def replay_kalman(ctx, us, ys, fresh):
    """(update steps, predicted entropies) of the Kalman filter replayed on
    recorded inputs and observations. With `fresh`, every update and
    predict starts from a belief built anew, so no lineage memo applies."""
    trk = tracked_block(ctx.decomp)
    belief = make_initial_belief(ctx.prior, "kalman")
    steps, h_next = [], []
    for t, (u, y) in enumerate(zip(us, ys, strict=True)):
        if fresh:
            belief = GaussianBelief(belief.mean_vec, belief.cov_mat, t=belief.t, kind=belief.kind)
        step = filters.update(belief, ctx.channel.at(t), y)
        post = step.belief_post
        if fresh:
            post = GaussianBelief(post.mean_vec, post.cov_mat, t=post.t, kind=post.kind)
        belief = filters.predict(post, trk, u)
        steps.append(step)
        h_next.append(belief.entropy_bits())
    return steps, h_next


def first_shared_covariance(steps):
    """The first step whose posterior covariance is its predecessor's
    object, or None."""
    return next((t for t in range(1, len(steps))
                 if steps[t].belief_post.cov_mat is steps[t - 1].belief_post.cov_mat), None)


class TestCovarianceMemo:
    """A lineage computes a Kalman step's covariance side once per distinct
    input; the steps it recalls must be, bit for bit, the ones a belief
    with no memo computes."""

    CASES = {
        "kalman-baseline": (lambda: bundled_ctx("kalman-baseline"), 28),
        "shrinking-noise": (lambda: bundled_ctx("shrinking-noise"), None),
        "stable-baseline": (lambda: bundled_ctx("stable-baseline"), None),
        "plant-2d": (lambda: plant_2d_ctx(60), None),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_recalled_steps_equal_memo_free_steps(self, name):
        make_ctx, shared_from = self.CASES[name]
        ctx = make_ctx()
        rec = run_closed_loop(ctx, 3, 0)
        assert rec.steps == ctx.horizon
        memo, h_memo = replay_kalman(ctx, rec.u, rec.y, fresh=False)
        free, h_free = replay_kalman(ctx, rec.u, rec.y, fresh=True)
        for a, b in zip(memo, free, strict=True):
            assert (a.h_pred, a.h_post, a.cond_number) == (b.h_pred, b.h_post, b.cond_number)
            for x, y in ((a.belief_post.mean_vec, b.belief_post.mean_vec),
                         (a.belief_post.cov_mat, b.belief_post.cov_mat)):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert h_memo == h_free
        # which path ran: from the fixed point on, an update recalls its
        # predecessor's covariance; no memo-free step does
        assert first_shared_covariance(memo) == shared_from
        if shared_from is not None:
            assert all(memo[t].belief_post.cov_mat is memo[shared_from].belief_post.cov_mat
                       for t in range(shared_from, len(memo)))
        assert first_shared_covariance(free) is None

    def test_memo_is_bounded_and_holds_no_mean(self, monkeypatch):
        last = {}
        predict = filters.predict

        def keep_last(*args):
            last["belief"] = predict(*args)
            return last["belief"]

        monkeypatch.setattr(filters, "predict", keep_last)
        rec = run_closed_loop(bundled_ctx("kalman-baseline", horizon=2000), 3, 0)
        assert rec.steps == 2000
        belief = last["belief"]
        memo = belief._memo
        assert len(memo) == 2  # one entry per transition: predict and update

        def leaves(obj):
            if isinstance(obj, (tuple, list)):
                return [x for item in obj for x in leaves(item)]
            if isinstance(obj, dict):
                return leaves(list(obj.values()))
            return [obj]

        held = leaves(list(memo.values()))
        assert not any(isinstance(x, Belief) for x in held)
        arrays = [x for x in held if isinstance(x, np.ndarray)]
        assert arrays and all(x.ndim == 2 for x in arrays)  # gains and covariances only
        assert not any(np.shares_memory(x, belief.mean_vec) for x in arrays)

    def test_a_new_lineage_starts_cold(self, monkeypatch):
        calls = []
        entropy = filters.gaussian_entropy_nats
        monkeypatch.setattr(filters, "gaussian_entropy_nats",
                            lambda P: calls.append(1) or entropy(P))
        ctx = bundled_ctx("kalman-baseline", horizon=60)
        first = run_closed_loop(ctx, 3, 0)
        n_first = len(calls)
        # each of the 28 distinct predicted and posterior covariances once
        assert n_first == 2 * 28
        second = run_closed_loop(ctx, 3, 1)
        assert len(calls) == 2 * n_first
        assert first.ledger.h_post == second.ledger.h_post
        fresh = make_initial_belief(ctx.prior, "kalman")
        assert fresh._memo == {}

    def test_block_evaluates_each_distinct_covariance_once(self, monkeypatch):
        calls = []
        entropy = filters.gaussian_entropy_nats
        monkeypatch.setattr(filters, "gaussian_entropy_nats",
                            lambda P: calls.append(1) or entropy(P))
        records = run_block(bundled_ctx("kalman-baseline"), 4242, range(60))
        assert sum(r.steps for r in records) == 60 * 200
        assert len(calls) == 2 * 28

    @pytest.mark.parametrize("change", ["C", "R", "A", "P"])
    def test_every_input_is_part_of_the_key(self, change):
        """After a step has filled the memo, a step that differs from it in
        one covariance-side input only computes afresh."""
        ctx = bundled_ctx("kalman-baseline")
        trk = tracked_block(ctx.decomp)
        belief = make_initial_belief(ctx.prior, "kalman")
        post = filters.update(belief, ctx.channel, [0.3]).belief_post
        filters.predict(post, trk, [0.0])  # fills both transitions
        ch, dec, source = ctx.channel, trk, belief
        if change in ("C", "R"):
            ch = make_channel("linear-gaussian", **{"C": ch.C, "R": ch.R, change: [[1.5]]})
        elif change == "A":
            dec = dataclasses.replace(trk, A_u=np.array([[3.0]]))
        else:  # the same lineage, another covariance
            source = filters.predict(post, trk, [0.0])
        fresh = GaussianBelief(source.mean_vec, source.cov_mat, t=source.t, kind=source.kind)
        a, b = filters.update(source, ch, [0.3]), filters.update(fresh, ch, [0.3])
        assert (a.h_pred, a.h_post, a.cond_number) == (b.h_pred, b.h_post, b.cond_number)
        assert a.belief_post.cov_mat.tobytes() == b.belief_post.cov_mat.tobytes()
        assert a.belief_post.mean_vec.tobytes() == b.belief_post.mean_vec.tobytes()
        p, q = filters.predict(a.belief_post, dec, [0.0]), filters.predict(b.belief_post, dec, [0.0])
        assert p.entropy_bits() == q.entropy_bits()
        assert p.cov_mat.tobytes() == q.cov_mat.tobytes()
