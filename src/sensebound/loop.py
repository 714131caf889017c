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

`run_closed_loop` is the scalar reference for every filter. Kalman and
1-D grid ensembles run as blocks instead (`run_block`): every run's
state and belief are one row of a block belief and of the arrays around
it, advanced for all runs at once by row operations that give each run
the scalar loop's bits. A Kalman block's covariance, gain and entropies
do not depend on the data, so they are computed once per step for all
runs, and not at all on a step whose covariance-side inputs repeat the
last step's bit for bit (the belief lineage's memo, `GaussianBelief`).
"""

import ctypes
import platform
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Optional

import numpy as np

# filters.update and filters.predict are called through the module, so a
# wrapper patched onto it (the span tracer in perfbench/) sees every call
from . import filters
from .audits import DEFAULT_AUDIT_WINDOW, DEFAULT_KAPPA_CAP, CurvatureAudit, audit_run
from .errors import DegenerateLikelihood
from .channels import rows_matvec
from .filters import DEFAULT_GRID_SPEC, DEFAULT_PARTICLES, GridSpec, make_initial_belief
from .infoflow import InfoLedger, ensemble_mean_ledger, exact_step_means
from .system import FeedbackGain, ModeDecomposition, SystemModel

DIVERGENCE_GUARD = 1e12
DEFAULT_HORIZON = 100


def tracked_block(decomp: ModeDecomposition) -> ModeDecomposition:
    """The mode block the filter estimates.

    Normally the unstable block. For allow-stable baselines (n_u = 0) the
    whole transformed state is tracked instead, with r_exp = 0, so the
    ledger identities stay well-defined.
    """
    if decomp.n_u > 0:
        return decomp
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
    """Everything a single run needs, prebuilt once per experiment,
    including what each run records besides its trajectory."""

    model: SystemModel
    decomp: ModeDecomposition
    channel: object
    prior: object
    filter_kind: str
    gain: Optional[FeedbackGain]
    controller_mode: str = "predict"  # "none" | "predict" | "update"
    horizon: int = DEFAULT_HORIZON
    grid_spec: GridSpec = DEFAULT_GRID_SPEC
    n_particles: int = DEFAULT_PARTICLES
    divergence_guard: float = DIVERGENCE_GUARD
    collect_audits: bool = False  # curvature audits of each finished run
    audit_window: int = DEFAULT_AUDIT_WINDOW
    kappa_cap: float = DEFAULT_KAPPA_CAP
    collect_beliefs: bool = False  # each step's posterior, as JSON


@dataclass
class RunRecord:
    """Per-step history of one closed-loop run, its ledger and its outcome:
    "completed" when it records all `horizon` steps, else "halted" (its state
    crossed the divergence guard, which is checked only between two recorded
    steps) or "degenerate" (its likelihood vanished at the step after).
    A run read back from a bundle (`report.read_back_summary`) holds only what
    its CSV and outcomes.csv give: z_u, u, y and cond are None."""

    master_seed: int
    run_index: int
    z_u: np.ndarray  # (steps, n_u) true unstable modes
    u: np.ndarray  # (steps, m)
    y: np.ndarray  # (steps, p) observations
    state_norm_sq: np.ndarray
    err_norm_sq: np.ndarray
    cond: np.ndarray
    ledger: InfoLedger
    cmi_channel_trace: Optional[np.ndarray] = None
    outcome: str = "completed"  # "completed" | "halted" | "degenerate"
    audits: Optional[CurvatureAudit] = None
    beliefs_json: Optional[list] = None

    @property
    def steps(self) -> int:
        return len(self.err_norm_sq)


def run_closed_loop(ctx: RunContext, master_seed: int = 0, run_index: int = 0) -> RunRecord:
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
    ledger = InfoLedger(r_exp=decomp.r_exp, expansion=tracked_expansion(decomp))

    K = ctx.gain.K if ctx.gain is not None else None
    zs, us, ys, sn, en, cond = ([] for _ in range(6))
    cmi_channel = []
    outcome = "completed"
    beliefs_json = [] if ctx.collect_beliefs else None
    x = decomp.from_modes(np.concatenate([z_u, z_s]))
    x_sq = float(x @ x)

    for t in range(ctx.horizon):
        ch_t = ctx.channel.at(t)
        if ctx.controller_mode == "predict" and K is not None:
            u_t = K @ belief.mean()
        else:
            u_t = np.zeros(m)

        y_t = ch_t.sample(z_u, rng)
        try:
            step = filters.update(belief, ch_t, y_t, rng=rng)
        except DegenerateLikelihood:
            outcome = "degenerate"
            break
        ledger.record(step)

        if ctx.controller_mode == "update" and K is not None:
            u_t = K @ step.belief_post.mean()

        e_t = step.belief_post.mean() - z_u
        zs.append(z_u.copy())
        us.append(u_t.copy())
        ys.append(y_t)
        sn.append(x_sq)
        en.append(float(e_t @ e_t))
        cond.append(step.cond_number)
        cmi_channel.append(step.cmi_channel)
        if ctx.collect_beliefs:
            beliefs_json.append(step.belief_post.to_json_dict())

        z_u = trk.A_u @ z_u + trk.B_u @ u_t
        if n > n_u:
            z_s = trk.A_s @ z_s + trk.B_s @ u_t
        belief = filters.predict(step.belief_post, trk, u_t)
        ledger.terminal_h_pred = belief.entropy_bits()

        if t + 1 == ctx.horizon:  # the guard reads x only between two steps
            break
        x = decomp.from_modes(np.concatenate([z_u, z_s]))
        x_sq = float(x @ x)
        if x_sq > ctx.divergence_guard:
            outcome = "halted"
            break

    record = RunRecord(
        master_seed=int(master_seed),
        run_index=int(run_index),
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
        outcome=outcome,
        beliefs_json=beliefs_json,
    )
    if ctx.collect_audits:
        record.audits = _audit(ctx, record)
    return record


def tracked_expansion(decomp: ModeDecomposition) -> float:
    """Entropy production of the tracked block, log2|det A_block|."""
    if decomp.n_u > 0:
        return decomp.r_exp
    return float(np.log2(abs(np.linalg.det(tracked_block(decomp).A_u))))


def _audit(ctx: RunContext, record: RunRecord) -> Optional[CurvatureAudit]:
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
        record.cond,
        L=min(ctx.audit_window, record.steps),
        kappa_cap=ctx.kappa_cap,
    )


def _rows_dot(X: np.ndarray) -> np.ndarray:
    """x @ x for every row x of X, each row by the kernel of `x @ x`."""
    return np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]


def run_block(ctx: RunContext, master_seed: int, runs: range) -> list:
    """The Kalman or 1-D grid runs with the given indices, as one batch.

    Gives, bit for bit, the record `run_closed_loop` gives for each index,
    at any block size. The block's belief holds every run's belief as a
    row (`Belief.tiled`): a `GaussianBelief` with one mean row per run and
    the covariance they share, or a `GridBelief` with one axis and density
    row per run. `filters.update` and
    `filters.predict` advance it once per step for the whole block, and
    each row operation and small product (`rows_matvec`, `_rows_dot`) is
    the one the scalar loop makes for that run. Each run's variates come
    from its own stream in the scalar loop's order, drawn up front: prior,
    stable modes, then each step's unit normals for `ChannelModel.observe`.
    Halted and degenerate runs leave the arrays at the step where the
    scalar loop ends them. A ledger step whose entropies are one value
    for the whole block is recorded once, and the runs that end together
    share one ledger (`InfoLedger.columns`).
    """
    decomp = ctx.decomp
    trk = tracked_block(decomp)
    n, n_u, m = decomp.n, trk.n_u, ctx.model.m
    p, T, N = ctx.channel.obs_dim, ctx.horizon, len(runs)

    Z, Zs = np.empty((N, n_u)), np.empty((N, n - n_u))
    W = np.empty((N, T, ctx.channel.noise_dim))
    for r, i in enumerate(runs):
        rng = np.random.default_rng([int(master_seed), int(i)])
        Z[r] = np.asarray(ctx.prior.sample(rng), dtype=float).reshape(-1)
        Zs[r] = rng.standard_normal(n - n_u)
        W[r] = rng.standard_normal(W.shape[1:])

    start = make_initial_belief(ctx.prior, ctx.filter_kind, grid_spec=ctx.grid_spec)
    ledger = InfoLedger(r_exp=decomp.r_exp, expansion=tracked_expansion(decomp))
    belief = start.tiled(N)
    K = ctx.gain.K if ctx.gain is not None else None

    z_h, u_h, y_h = np.empty((N, T, n_u)), np.empty((N, T, m)), np.empty((N, T, p))
    sn_h, en_h, cond_h, cmi_h = (np.empty((N, T)) for _ in range(4))
    beliefs = [[] for _ in runs] if ctx.collect_beliefs else None
    steps = np.full(N, T)
    outcome = np.full(N, "completed", dtype=object)
    terminal = np.empty(N)
    has_cmi = False
    alive = np.arange(N)

    def state_sq(Z, Zs):
        return _rows_dot(rows_matvec(decomp.T_inv, np.concatenate([Z, Zs], axis=1)))

    x_sq = state_sq(Z, Zs)

    for t in range(T):
        if alive.size == 0:
            break
        ch_t = ctx.channel.at(t)
        if ctx.controller_mode == "predict" and K is not None:
            U = rows_matvec(K, belief.mean())
        else:
            U = np.zeros((alive.size, m))
        Y = ch_t.observe(Z, W[alive, t])
        step = filters.update(belief, ch_t, Y)
        post, h_pred, h_post = step.belief_post, step.h_pred, step.h_post
        cond, cmi = step.cond_number, step.cmi_channel
        bad = post.degenerate
        if bad is not None and bad.any():
            steps[alive[bad]], outcome[alive[bad]] = t, "degenerate"
            keep = ~bad
            alive, Z, Zs, U, Y, x_sq = alive[keep], Z[keep], Zs[keep], U[keep], Y[keep], x_sq[keep]
            post, h_pred, h_post, cond = post.take(keep), h_pred[keep], h_post[keep], cond[keep]
            cmi = cmi[keep] if cmi is not None else None
        if np.ndim(h_pred):  # one value per run: pad to the whole block
            hp, hq = np.full(N, np.nan), np.full(N, np.nan)
            hp[alive], hq[alive] = h_pred, h_post
            step = replace(step, h_pred=hp, h_post=hq)
        ledger.record(step)
        if alive.size == 0:
            break

        if ctx.controller_mode == "update" and K is not None:
            U = rows_matvec(K, post.mean())
        z_h[alive, t], u_h[alive, t], y_h[alive, t] = Z, U, Y
        sn_h[alive, t], en_h[alive, t], cond_h[alive, t] = x_sq, _rows_dot(post.mean() - Z), cond
        if cmi is not None:
            cmi_h[alive, t], has_cmi = cmi, True
        if beliefs is not None:
            for i, snapshot in zip(alive, post.to_json_dict()):
                beliefs[i].append(snapshot)

        Z = rows_matvec(trk.A_u, Z) + rows_matvec(trk.B_u, U)
        if n > n_u:
            Zs = rows_matvec(trk.A_s, Zs) + rows_matvec(trk.B_s, U)
        belief = filters.predict(post, trk, U)
        terminal[alive] = belief.entropy_bits()

        if t + 1 == T:  # the guard reads x only between two steps
            break
        x_sq = state_sq(Z, Zs)
        out = x_sq > ctx.divergence_guard
        if out.any():
            steps[alive[out]], outcome[alive[out]] = t + 1, "halted"
            keep = ~out
            alive, Z, Zs, x_sq, belief = alive[keep], Z[keep], Zs[keep], x_sq[keep], belief.take(keep)

    ledgers = ledger.columns(steps, [float(h) if s else None for h, s in zip(terminal, steps)])
    records = []
    for r, i in enumerate(runs):
        s = int(steps[r])
        record = RunRecord(
            master_seed=int(master_seed),
            run_index=int(i),
            z_u=z_h[r, :s],
            u=u_h[r, :s],
            y=y_h[r, :s],
            state_norm_sq=sn_h[r, :s],
            err_norm_sq=en_h[r, :s],
            cond=cond_h[r, :s],
            ledger=ledgers[r],
            cmi_channel_trace=cmi_h[r, :s] if has_cmi and s else None,
            outcome=outcome[r],
            beliefs_json=beliefs[r] if beliefs is not None else None,
        )
        if ctx.collect_audits:
            record.audits = _audit(ctx, record)
        records.append(record)
    return records


# mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_HOLD_BYTES = 32 << 20


@cache
def _hold_heap() -> None:
    """Keep freed temporaries on glibc's heap, in every process alike.

    A grid block step allocates and frees a dozen (runs, nodes) arrays, 74
    KB each at 24 runs of 385 nodes. Under glibc's default 128 KiB trim
    threshold, whether those frees hand the heap top back to the kernel
    depends on where long-lived allocations happened to land: some
    processes then re-fault about 1 MB of fresh pages every step (16k minor
    faults per 1440 run steps, a quarter slower) and others none. The
    thresholds are fixed where glibc's own adaptive rule puts them after a
    32 MiB array is freed. Elsewhere than glibc this does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(_M_MMAP_THRESHOLD, _HEAP_HOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_HOLD_BYTES)


# concurrent.futures.ProcessPoolExecutor, bound by the first pooled `_map`:
# importing it loads multiprocessing, which no in-process ensemble needs
ProcessPoolExecutor = None


def _map(fn, items, workers: int, chunksize: int = 1) -> list:
    """[fn(x) for x in items], over `workers` processes when above one."""
    global ProcessPoolExecutor
    _hold_heap()
    if workers == 1:
        return [fn(x) for x in items]
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=_hold_heap) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


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


def run_ensemble(
    ctx: RunContext, n_runs: int, master_seed: int = 0, workers: int = 1
) -> EnsembleStats:
    """Run n_runs independent loops and reduce per-step statistics.

    Kalman and 1-D grid ensembles run as blocks (`run_block`): a Kalman
    ensemble as one in-process block whatever `workers` is, because its
    Riccati steps are shared by every run (and, once the covariance
    reaches a fixed point, recalled rather than recomputed), so a worker
    would repeat them while saving only the per-run mean updates; a 1-D
    grid ensemble as one block per worker, on contiguous run ranges.
    Particle and 2-D grid runs are one `run_closed_loop` each, spread over
    `workers` processes. Statistics at each t average over the runs still
    alive at t, the mean ledger and DI rate over the completed runs (each
    run's `outcome`). Exact summation makes the reduction order-free, so
    the same master seed gives identical results at any worker count.
    """
    if n_runs < 1:
        raise ValueError("need n_runs >= 1")
    workers = max(1, min(workers, n_runs))
    if ctx.filter_kind == "kalman" or (
        ctx.filter_kind == "grid" and tracked_block(ctx.decomp).n_u == 1
    ):
        n_blocks = 1 if ctx.filter_kind == "kalman" else workers
        edges = [n_runs * w // n_blocks for w in range(n_blocks + 1)]
        blocks = [range(a, b) for a, b in zip(edges, edges[1:])]
        parts = _map(partial(run_block, ctx, master_seed), blocks, n_blocks)
        records = [r for part in parts for r in part]
    else:
        one_run = partial(run_closed_loop, ctx, master_seed)
        records = _map(one_run, range(n_runs), workers, max(1, n_runs // (4 * workers)))
    return reduce_ensemble(records, ctx.horizon, master_seed)


def reduce_ensemble(records: list, horizon: int, master_seed: int) -> EnsembleStats:
    """The statistics of finished runs, in run order (see `run_ensemble`).
    Each record's norm traces, ledger, `cmi_channel_trace` and `outcome` are
    all it reads, so the runs read back from a bundle reduce alike."""
    n_runs = len(records)
    steps = np.array([r.steps for r in records])
    mean_state = exact_step_means([r.state_norm_sq for r in records])
    mean_err = exact_step_means([r.err_norm_sq for r in records])
    mean_cmi = exact_step_means([r.ledger.cmi for r in records])
    alive = (np.arange(len(mean_state))[:, None] < steps).sum(axis=1)
    channel = [r.cmi_channel_trace for r in records if r.cmi_channel_trace is not None]
    mean_cmi_ch = None
    if channel:
        mean_cmi_ch = exact_step_means(channel)
        mean_cmi_ch += [float("nan")] * (len(alive) - len(mean_cmi_ch))

    completed = [r.ledger for r in records if r.outcome == "completed"]
    mean_ledger = ensemble_mean_ledger(completed) if completed else None
    di_rate = mean_ledger.di_rate() if mean_ledger is not None else None

    halted = [r.steps for r in records if r.outcome == "halted"]
    frac_halted_by = {
        tcut: sum(s <= tcut for s in halted) / n_runs for tcut in (horizon // 2, horizon)
    }
    return EnsembleStats(
        n_runs=n_runs,
        horizon=horizon,
        master_seed=int(master_seed),
        mean_state_sq=np.array(mean_state),
        mean_err_sq=np.array(mean_err),
        mean_cmi=np.array(mean_cmi),
        mean_cmi_channel=np.array(mean_cmi_ch) if mean_cmi_ch is not None else None,
        alive=alive,
        n_halted=len(halted),
        n_degenerate=sum(r.outcome == "degenerate" for r in records),
        fraction_halted_by=frac_halted_by,
        mean_ledger=mean_ledger,
        di_rate=di_rate,
        runs=records,
    )


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
    bound_state: float
    bound_error: float
    zero_threshold: float


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
        bound_state=thresholds.bound_state,
        bound_error=thresholds.bound_error,
        zero_threshold=thresholds.zero_threshold,
    )


def kalman_error_floor(a: float, r: float) -> float:
    """Scalar steady-state posterior variance r (1 - a^-2) of the exact filter."""
    return r * (1.0 - 1.0 / (a * a))


def replay_filter(decomp, channel, prior, filter_kind, us, ys,
                  grid_spec: GridSpec = DEFAULT_GRID_SPEC,
                  n_particles: int = DEFAULT_PARTICLES, rng=None):
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
        belief = filters.predict(steps[-1].belief_post, decomp, u_t)
    return steps
