"""Closed-loop execution: plant, channel, filter, certainty-equivalence
controller, over a horizon and across Monte Carlo ensembles.

Two controller timings are supported and never mixed within a run:

- "predict": u_t = K * mean of the belief given y^{t-1}. The control is
  computed before the current observation is even sampled, which makes
  u_t a deterministic function of y^{t-1} by construction.
- "update":  u_t = K * mean of the belief given y^t (the certainty
  equivalence used on the sufficiency side).

Runs are independent units: each owns its plant state, filter and random
stream (split off the master seed by run index), so ensembles parallelise
trivially and reductions use exact summation to stay order-independent.

`run_closed_loop` is the scalar reference for every filter. Kalman
ensembles run in blocks instead (`run_kalman_block`): the Riccati
recursion does not depend on the data, so a block computes it once and
carries every run's state and filter mean as one row of an array.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# filters.update and filters.predict are called through the module, so a
# wrapper patched onto it (the span tracer in perfbench/) sees every call
from . import filters
from .audits import CurvatureAudit, audit_run
from .errors import DegenerateLikelihood
from .filters import DEFAULT_GRID_SPEC, GaussianBelief, GridSpec, make_initial_belief
from .infoflow import InfoLedger, ensemble_mean_ledger
from .system import FeedbackGain, ModeDecomposition, SystemModel

DIVERGENCE_GUARD = 1e12


def tracked_block(decomp: ModeDecomposition) -> ModeDecomposition:
    """The mode block the filter estimates.

    Normally the unstable block. For allow-stable baselines (n_u = 0) the
    whole transformed state is tracked instead, with r_exp = 0, so the
    ledger identities stay well-defined.
    """
    if decomp.n_u > 0:
        return decomp
    from dataclasses import replace

    m = decomp.B_s.shape[1]
    return replace(
        decomp,
        A_u=decomp.A_s,
        B_u=decomp.B_s,
        A_s=np.zeros((0, 0)),
        B_s=np.zeros((0, m)),
        n_u=decomp.n,
    )


@dataclass(frozen=True)
class RunContext:
    """Everything a single run needs, prebuilt once per experiment."""

    model: SystemModel
    decomp: ModeDecomposition
    channel: object
    prior: object
    filter_kind: str
    gain: Optional[FeedbackGain]
    controller_mode: str = "predict"  # "none" | "predict" | "update"
    horizon: int = 100
    grid_spec: GridSpec = DEFAULT_GRID_SPEC
    n_particles: int = 2**14
    noise_gamma: Optional[float] = None  # extension: R_t = R * gamma^t
    divergence_guard: float = DIVERGENCE_GUARD

    def channel_at(self, t: int):
        if self.noise_gamma is None:
            return self.channel
        return self.channel.with_noise_scale(self.noise_gamma**t)


@dataclass
class RunRecord:
    """Per-step history of one closed-loop run plus its ledger and flags."""

    master_seed: int
    run_index: int
    t: np.ndarray
    z_u: np.ndarray  # (steps, n_u) true unstable modes
    u: np.ndarray  # (steps, m)
    y: np.ndarray  # (steps, p) observations
    state_norm_sq: np.ndarray
    err_norm_sq: np.ndarray
    cond: np.ndarray
    ledger: InfoLedger
    cmi_channel_trace: Optional[np.ndarray] = None
    halted: bool = False
    halted_t: Optional[int] = None
    degenerate: bool = False
    degenerate_t: Optional[int] = None
    audits: Optional[CurvatureAudit] = None
    beliefs_json: Optional[list] = None

    @property
    def steps(self) -> int:
        return len(self.t)

    @property
    def completed(self) -> bool:
        return not self.halted and not self.degenerate


def run_closed_loop(
    ctx: RunContext,
    master_seed: int = 0,
    run_index: int = 0,
    collect_audits: bool = False,
    audit_window: int = 2,
    kappa_cap: float = 1e6,
    collect_beliefs: bool = False,
) -> RunRecord:
    """Execute one run of the loop: act, sense, update, advance."""
    rng = np.random.default_rng([int(master_seed), int(run_index)])
    decomp = ctx.decomp
    trk = tracked_block(decomp)
    n, n_u = decomp.n, trk.n_u
    m = ctx.model.m

    z_u = np.asarray(ctx.prior.sample(rng), dtype=float).reshape(-1)
    z_s = rng.standard_normal(n - n_u) if n > n_u else np.zeros(0)

    belief = make_initial_belief(
        ctx.prior, ctx.filter_kind, grid_spec=ctx.grid_spec,
        n_particles=ctx.n_particles, rng=rng,
    )
    ledger = InfoLedger(
        r_exp=decomp.r_exp, h0=belief.entropy_bits(), expansion=_expansion(decomp, trk)
    )

    K = ctx.gain.K if ctx.gain is not None else None
    rows_t, zs, us, ys, sn, en, cond = ([] for _ in range(7))
    cmi_channel = []
    halted = degenerate = False
    halted_t = degenerate_t = None
    beliefs_json = [] if collect_beliefs else None
    x = decomp.from_modes(np.concatenate([z_u, z_s]))
    x_sq = float(x @ x)

    for t in range(ctx.horizon):
        ch_t = ctx.channel_at(t)
        if ctx.controller_mode == "predict" and K is not None:
            u_t = K @ belief.mean()
        else:
            u_t = np.zeros(m)

        y_t = ch_t.sample(z_u, rng)
        try:
            step = filters.update(belief, ch_t, y_t, rng=rng)
        except DegenerateLikelihood:
            degenerate, degenerate_t = True, t
            break
        ledger.record(step)

        if ctx.controller_mode == "update" and K is not None:
            u_t = K @ step.belief_post.mean()

        e_t = step.belief_post.mean() - z_u
        rows_t.append(t)
        zs.append(z_u.copy())
        us.append(u_t.copy())
        ys.append(y_t)
        sn.append(x_sq)
        en.append(float(e_t @ e_t))
        cond.append(step.cond_number)
        cmi_channel.append(step.cmi_channel)
        if collect_beliefs:
            beliefs_json.append(step.belief_post.to_json_dict())

        z_u = trk.A_u @ z_u + trk.B_u @ u_t
        if n > n_u:
            z_s = trk.A_s @ z_s + trk.B_s @ u_t
        belief = filters.predict(step.belief_post, trk, u_t, ctx.grid_spec)
        ledger.terminal_h_pred = belief.entropy_bits()

        x = decomp.from_modes(np.concatenate([z_u, z_s]))
        x_sq = float(x @ x)
        if x_sq > ctx.divergence_guard:
            halted, halted_t = True, t + 1
            break

    record = RunRecord(
        master_seed=int(master_seed),
        run_index=int(run_index),
        t=np.array(rows_t, dtype=int),
        z_u=np.array(zs) if zs else np.zeros((0, n_u)),
        u=np.array(us) if us else np.zeros((0, m)),
        y=np.array(ys, dtype=float) if ys else np.zeros((0, ctx.channel.obs_dim)),
        state_norm_sq=np.array(sn),
        err_norm_sq=np.array(en),
        cond=np.array(cond),
        ledger=ledger,
        cmi_channel_trace=(
            np.array(cmi_channel, dtype=float)
            if cmi_channel and cmi_channel[0] is not None
            else None
        ),
        halted=halted,
        halted_t=halted_t,
        degenerate=degenerate,
        degenerate_t=degenerate_t,
        beliefs_json=beliefs_json,
    )
    if collect_audits:
        record.audits = _audit(ctx, record, audit_window, kappa_cap)
    return record


def _expansion(decomp: ModeDecomposition, trk: ModeDecomposition) -> float:
    """Entropy production of the tracked block, log2|det A_block|."""
    if decomp.n_u > 0:
        return decomp.r_exp
    return float(np.log2(abs(np.linalg.det(trk.A_u))))


def _audit(
    ctx: RunContext, record: RunRecord, audit_window: int, kappa_cap: float
) -> Optional[CurvatureAudit]:
    """The curvature audits of a finished run (None for a run with no
    step); each Hessian term is evaluated with the channel of its own step."""
    if record.steps == 0:
        return None
    return audit_run(
        ctx.channel,
        tracked_block(ctx.decomp),
        ctx.prior,
        record.z_u,
        record.y,
        record.u,
        record.cond,
        L=min(audit_window, record.steps),
        kappa_cap=kappa_cap,
        channel_at=ctx.channel_at,
    )


def _rows_times(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X.

    The sum runs column by column in a fixed order, so a row's bits depend
    on that row alone; a BLAS matmul picks its kernel, and with it the
    summation order, by the shape of the whole block. Like a BLAS matvec it
    starts from +0, so with one column it gives the scalar loop's bits,
    signed zeros included.
    """
    out = np.zeros((X.shape[0], M.shape[0]))
    for j in range(M.shape[1]):
        out += X[:, j : j + 1] * M[:, j]
    return out


def _rows_sq(X: np.ndarray) -> np.ndarray:
    """x @ x for every row x of X, row-independent like `_rows_times`."""
    out = X[:, 0] * X[:, 0]
    for j in range(1, X.shape[1]):
        out = out + X[:, j] * X[:, j]
    return out


def run_kalman_block(
    ctx: RunContext,
    master_seed: int,
    runs: range,
    collect_audits: bool = False,
    audit_window: int = 2,
    kappa_cap: float = 1e6,
    collect_beliefs: bool = False,
) -> list:
    """The Kalman runs with the given indices, as one batch.

    Gives the records `run_closed_loop` gives for each index: bit for bit
    when n = m = p = 1, else to rounding (the scalar loop's BLAS matvecs
    sum in another order), and always the same bits at any block size.

    The covariances, gains and entropies do not depend on the data, so one
    zero-mean Gaussian belief is driven through `filters.update` and
    `filters.predict` for the whole block; its ledger rows are shared and
    each run keeps the head it lived through. Every run's modes and filter
    mean are one row of an array, and its random variates are drawn up
    front from its own stream in the order the scalar loop draws them.
    Observations are C z + L w from the channel's matrices, the law of
    `LinearGaussianChannel.sample`. Runs that cross the divergence guard
    leave the arrays.
    """
    decomp = ctx.decomp
    trk = tracked_block(decomp)
    n, n_u, m = decomp.n, trk.n_u, ctx.model.m
    p, T, N = ctx.channel.obs_dim, ctx.horizon, len(runs)

    Z, Zs, W = np.empty((N, n_u)), np.empty((N, n - n_u)), np.empty((N, T, p))
    for r, i in enumerate(runs):
        rng = np.random.default_rng([int(master_seed), int(i)])
        Z[r] = np.asarray(ctx.prior.sample(rng), dtype=float).reshape(-1)
        if n > n_u:
            Zs[r] = rng.standard_normal(n - n_u)
        W[r] = rng.standard_normal((T, p))

    start = make_initial_belief(ctx.prior, ctx.filter_kind)
    M = np.tile(start.mean_vec, (N, 1))
    belief = GaussianBelief(np.zeros(n_u), start.cov_mat, kind="predicted")
    ledger = InfoLedger(
        r_exp=decomp.r_exp, h0=belief.entropy_bits(), expansion=_expansion(decomp, trk)
    )
    K = ctx.gain.K if ctx.gain is not None else None
    y0, u0 = np.zeros(p), np.zeros(m)

    z_h, u_h, y_h = np.empty((N, T, n_u)), np.empty((N, T, m)), np.empty((N, T, p))
    sn_h, en_h = np.empty((N, T)), np.empty((N, T))
    mean_h = np.empty((N, T, n_u)) if collect_beliefs else None
    cond, posts = [], []
    halted_t = np.zeros(N, dtype=int)  # 0: still running
    alive = np.arange(N)

    def state_sq(Z, Zs):
        return _rows_sq(_rows_times(np.concatenate([Z, Zs], axis=1), decomp.T_inv))

    x_sq = state_sq(Z, Zs)

    for t in range(T):
        if alive.size == 0:
            break
        ch_t = ctx.channel_at(t)
        if ctx.controller_mode == "predict" and K is not None:
            U = _rows_times(M, K)
        else:
            U = np.zeros((alive.size, m))
        step = filters.update(belief, ch_t, y0)
        ledger.record(step)
        Y = _rows_times(Z, ch_t.C) + _rows_times(W[alive, t], ch_t.noise_factor)
        M = M + _rows_times(Y - _rows_times(M, ch_t.C), belief.kalman_gain(ch_t))
        if ctx.controller_mode == "update" and K is not None:
            U = _rows_times(M, K)

        z_h[alive, t], u_h[alive, t], y_h[alive, t] = Z, U, Y
        sn_h[alive, t], en_h[alive, t] = x_sq, _rows_sq(M - Z)
        cond.append(step.cond_number)
        if collect_beliefs:
            mean_h[alive, t] = M
            posts.append(step.belief_post.to_json_dict())

        Z = _rows_times(Z, trk.A_u) + _rows_times(U, trk.B_u)
        Zs = _rows_times(Zs, trk.A_s) + _rows_times(U, trk.B_s)
        belief = filters.predict(step.belief_post, trk, u0, ctx.grid_spec)
        M = _rows_times(M, trk.A_u) + _rows_times(U, trk.B_u)
        ledger.terminal_h_pred = belief.entropy_bits()

        x_sq = state_sq(Z, Zs)
        out = x_sq > ctx.divergence_guard
        if out.any():
            halted_t[alive[out]] = t + 1
            keep = ~out
            alive, Z, Zs, M, x_sq = alive[keep], Z[keep], Zs[keep], M[keep], x_sq[keep]

    cond = np.array(cond)
    records = []
    for r, i in enumerate(runs):
        s = int(halted_t[r]) or T
        record = RunRecord(
            master_seed=int(master_seed),
            run_index=int(i),
            t=np.arange(s),
            z_u=z_h[r, :s],
            u=u_h[r, :s],
            y=y_h[r, :s],
            state_norm_sq=sn_h[r, :s],
            err_norm_sq=en_h[r, :s],
            cond=cond[:s],
            ledger=ledger.head(s),
            halted=bool(halted_t[r]),
            halted_t=int(halted_t[r]) or None,
            beliefs_json=(
                [{**posts[t], "mean": mean_h[r, t].tolist()} for t in range(s)]
                if collect_beliefs
                else None
            ),
        )
        if collect_audits:
            record.audits = _audit(ctx, record, audit_window, kappa_cap)
        records.append(record)
    return records


@dataclass
class EnsembleStats:
    """Per-step ensemble means plus the averaged information ledger."""

    n_runs: int
    horizon: int
    master_seed: int
    mean_state_sq: np.ndarray
    mean_err_sq: np.ndarray
    mean_cmi: np.ndarray
    mean_cmi_channel: Optional[np.ndarray]
    alive: np.ndarray
    n_halted: int
    n_degenerate: int
    fraction_halted_by: dict
    mean_ledger: Optional[InfoLedger]
    di_rate: Optional[float]
    runs: list = field(default_factory=list)


def _run_chunk(args):
    ctx, master_seed, runs, opts = args
    if ctx.filter_kind == "kalman":
        return run_kalman_block(ctx, master_seed, runs, **opts)
    return [run_closed_loop(ctx, master_seed, i, **opts) for i in runs]


def run_ensemble(
    ctx: RunContext,
    n_runs: int,
    master_seed: int = 0,
    workers: int = 1,
    collect_audits: bool = False,
    audit_window: int = 2,
    kappa_cap: float = 1e6,
    collect_beliefs: bool = False,
) -> EnsembleStats:
    """Run n_runs independent loops and reduce per-step statistics.

    Kalman ensembles run as one block of consecutive runs per worker
    (`run_kalman_block`); other filters run one `run_closed_loop` per run.
    Statistics at each t average over the runs still alive at t; exact
    summation makes the reduction independent of completion order, so the
    same master seed gives identical results at any worker count.
    """
    if n_runs < 1:
        raise ValueError("need n_runs >= 1")
    opts = dict(
        collect_audits=collect_audits,
        audit_window=audit_window,
        kappa_cap=kappa_cap,
        collect_beliefs=collect_beliefs,
    )
    if ctx.filter_kind == "kalman":
        k = min(max(workers, 1), n_runs)
        edges = [n_runs * j // k for j in range(k + 1)]
        chunks = [range(a, b) for a, b in zip(edges, edges[1:])]
    else:
        chunks = [range(i, i + 1) for i in range(n_runs)]
    tasks = [(ctx, master_seed, c, opts) for c in chunks]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_run_chunk, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
            records = [r for chunk in done for r in chunk]
    else:
        records = [r for task in tasks for r in _run_chunk(task)]

    horizon = ctx.horizon
    mean_state, mean_err, mean_cmi, alive = [], [], [], []
    has_channel_cmi = any(r.cmi_channel_trace is not None for r in records)
    mean_cmi_ch = [] if has_channel_cmi else None
    for t in range(horizon):
        at_t = [r for r in records if r.steps > t]
        if not at_t:
            break
        alive.append(len(at_t))
        mean_state.append(math.fsum(r.state_norm_sq[t] for r in at_t) / len(at_t))
        mean_err.append(math.fsum(r.err_norm_sq[t] for r in at_t) / len(at_t))
        mean_cmi.append(math.fsum(r.ledger.rows[t].cmi for r in at_t) / len(at_t))
        if mean_cmi_ch is not None:
            vals = [_channel_cmi_at(r, t) for r in at_t]
            vals = [v for v in vals if v is not None]
            mean_cmi_ch.append(math.fsum(vals) / len(vals) if vals else float("nan"))

    completed = [r.ledger for r in records if r.steps >= horizon]
    mean_ledger = ensemble_mean_ledger(completed, horizon) if completed else None
    di_rate = mean_ledger.di_rate() if mean_ledger is not None else None

    n_halted = sum(1 for r in records if r.halted)
    frac_halted_by = {
        tcut: sum(1 for r in records if r.halted and r.halted_t <= tcut) / n_runs
        for tcut in (horizon // 2, horizon)
    }
    return EnsembleStats(
        n_runs=n_runs,
        horizon=horizon,
        master_seed=int(master_seed),
        mean_state_sq=np.array(mean_state),
        mean_err_sq=np.array(mean_err),
        mean_cmi=np.array(mean_cmi),
        mean_cmi_channel=np.array(mean_cmi_ch) if mean_cmi_ch is not None else None,
        alive=np.array(alive, dtype=int),
        n_halted=n_halted,
        n_degenerate=sum(1 for r in records if r.degenerate),
        fraction_halted_by=frac_halted_by,
        mean_ledger=mean_ledger,
        di_rate=di_rate,
        runs=records,
    )


def _channel_cmi_at(record: RunRecord, t: int):
    tr = record.cmi_channel_trace
    return None if tr is None or t >= len(tr) else float(tr[t])


@dataclass(frozen=True)
class OutcomeThresholds:
    bound_state: float
    bound_error: float
    zero_threshold: float = 1e-3
    tail_window: int = 25


@dataclass(frozen=True)
class OutcomeClassification:
    """Definition-style verdicts from ensemble tail statistics."""

    ms_bounded_state: bool
    ms_bounded_error: bool
    asymptotic_state: bool
    asymptotic_error: bool
    tail_window: int
    thresholds: OutcomeThresholds

    def to_json_dict(self) -> dict:
        return {
            "ms_bounded_state": self.ms_bounded_state,
            "ms_bounded_error": self.ms_bounded_error,
            "asymptotic_state": self.asymptotic_state,
            "asymptotic_error": self.asymptotic_error,
            "tail_window": self.tail_window,
            "bound_state": self.thresholds.bound_state,
            "bound_error": self.thresholds.bound_error,
            "zero_threshold": self.thresholds.zero_threshold,
        }


def _bounded(trace: np.ndarray, window: int, threshold: float, any_halted: bool) -> bool:
    if any_halted or len(trace) < window:
        return False
    tail = trace[-window:]
    return bool(np.all(np.isfinite(tail)) and np.max(tail) <= threshold)


def _asymptotic(trace: np.ndarray, window: int, zero_threshold: float) -> bool:
    if len(trace) < 4:
        return False
    tail_mean = float(np.mean(trace[-window:]))
    q = len(trace) // 4
    second_quarter = float(np.mean(trace[q : 2 * q]))
    last_quarter = float(np.mean(trace[-q:]))
    return tail_mean <= zero_threshold and last_quarter < 0.5 * second_quarter


def classify_outcome(ens: EnsembleStats, thresholds: OutcomeThresholds) -> OutcomeClassification:
    """Map ensemble tails onto the boundedness / attractivity definitions.

    Asymptotic convergence additionally needs a decreasing trend and
    implies boundedness by construction.
    """
    w = thresholds.tail_window
    if ens.horizon < 2 * w:
        raise ValueError(f"horizon {ens.horizon} shorter than 2x tail window {w}")
    any_halted = ens.n_halted > 0 or ens.n_degenerate > 0
    b_state = _bounded(ens.mean_state_sq, w, thresholds.bound_state, any_halted)
    b_err = _bounded(ens.mean_err_sq, w, thresholds.bound_error, any_halted)
    a_state = b_state and _asymptotic(ens.mean_state_sq, w, thresholds.zero_threshold)
    a_err = b_err and _asymptotic(ens.mean_err_sq, w, thresholds.zero_threshold)
    return OutcomeClassification(
        ms_bounded_state=b_state,
        ms_bounded_error=b_err,
        asymptotic_state=a_state,
        asymptotic_error=a_err,
        tail_window=w,
        thresholds=thresholds,
    )


def kalman_error_floor(a: float, r: float) -> float:
    """Scalar steady-state posterior variance r (1 - a^-2) of the exact filter."""
    return r * (1.0 - 1.0 / (a * a))


def replay_filter(decomp, channel, prior, filter_kind, us, ys,
                  grid_spec: GridSpec = DEFAULT_GRID_SPEC,
                  n_particles: int = 2**14, rng=None):
    """Run a filter offline against a recorded (u, y) sequence.

    Bayes updates only depend on the realized inputs and observations, so
    different representations can be cross-validated on one trajectory.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    belief = make_initial_belief(
        prior, filter_kind, grid_spec=grid_spec, n_particles=n_particles, rng=rng
    )
    steps = []
    for u_t, y_t in zip(us, ys):
        steps.append(filters.update(belief, channel, y_t, rng=rng))
        belief = filters.predict(steps[-1].belief_post, decomp, u_t, grid_spec)
    return steps
