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
from .filters import DEFAULT_GRID_SPEC, GridSpec, make_initial_belief
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
    expansion = (
        decomp.r_exp
        if decomp.n_u > 0
        else float(np.log2(abs(np.linalg.det(trk.A_u))))
    )
    ledger = InfoLedger(r_exp=decomp.r_exp, h0=belief.entropy_bits(), expansion=expansion)

    K = ctx.gain.K if ctx.gain is not None else None
    rows_t, zs, us, ys, sn, en, cond = ([] for _ in range(7))
    cmi_channel = []
    halted = degenerate = False
    halted_t = degenerate_t = None
    beliefs_json = [] if collect_beliefs else None

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
        x_t = decomp.from_modes(np.concatenate([z_u, z_s]))
        rows_t.append(t)
        zs.append(z_u.copy())
        us.append(u_t.copy())
        ys.append(y_t)
        sn.append(float(x_t @ x_t))
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

        x_next = decomp.from_modes(np.concatenate([z_u, z_s]))
        if float(x_next @ x_next) > ctx.divergence_guard:
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
    if collect_audits and record.steps > 0:
        record.audits = audit_run(
            ctx.channel_at(0) if ctx.noise_gamma is None else ctx.channel,
            trk,
            ctx.prior,
            record.z_u,
            record.y,
            record.u,
            record.cond,
            L=min(audit_window, record.steps),
            kappa_cap=kappa_cap,
        )
    return record


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


def _run_one(args):
    ctx, master_seed, idx, collect_audits, audit_window, kappa_cap, collect_beliefs = args
    return run_closed_loop(
        ctx, master_seed, idx,
        collect_audits=collect_audits,
        audit_window=audit_window,
        kappa_cap=kappa_cap,
        collect_beliefs=collect_beliefs,
    )


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

    Statistics at each t average over the runs still alive at t; exact
    summation makes the reduction independent of completion order, so the
    same master seed gives identical results at any worker count.
    """
    if n_runs < 1:
        raise ValueError("need n_runs >= 1")
    tasks = [
        (ctx, master_seed, i, collect_audits, audit_window, kappa_cap, collect_beliefs)
        for i in range(n_runs)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, tasks, chunksize=max(1, n_runs // (4 * workers))))
    else:
        records = [_run_one(t) for t in tasks]

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
