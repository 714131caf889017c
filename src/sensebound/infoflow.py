"""Directed-information accounting and the entropy identities around it.

The ledger accumulates realized per-step entropy drops from the filter
(h_pred - h_post, in bits). Averaged over an ensemble this is the
conditional mutual information the observation stream extracts per step,
and summed causally it is the cumulative directed information. The
rate-balance identity ties its time average to the expansion rate plus
the initial-minus-terminal entropy difference.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .entropy import gaussian_entropy_nats, nats_to_bits
from .errors import OutOfOrderStep

GAP_CAP_BITS_PER_DIM = 1.0  # empirical regression cap for log-concave test sets


@dataclass(frozen=True)
class LedgerRow:
    t: int
    h_pred: float
    h_post: float
    cmi: float
    di_cum: float


class InfoLedger:
    """Per-run trace of entropies and cumulative directed information (bits).

    r_exp is the expansion rate of the unstable eigenvalue set (the
    necessity threshold). expansion is the per-step entropy production of
    the block the filter actually tracks, log2|det A_block|; the two
    coincide whenever the tracked block is the unstable one, and differ
    only on allow-stable baselines where the tracked block contracts.
    """

    def __init__(self, r_exp: float, h0: float, expansion: Optional[float] = None):
        self.r_exp = float(r_exp)
        self.expansion = float(r_exp if expansion is None else expansion)
        self.h0 = float(h0)
        self.rows: list[LedgerRow] = []
        self.terminal_h_pred: Optional[float] = None
        self._di_sum = 0.0
        self._di_comp = 0.0  # Kahan compensation, fixed summation order

    def __len__(self) -> int:
        return len(self.rows)

    def _add_cmi(self, value: float) -> float:
        y = value - self._di_comp
        t = self._di_sum + y
        self._di_comp = (t - self._di_sum) - y
        self._di_sum = t
        return self._di_sum

    def record(self, step) -> "InfoLedger":
        if step.t != len(self.rows):
            raise OutOfOrderStep(
                f"step has t={step.t} but ledger holds {len(self.rows)} rows"
            )
        cmi = step.h_pred - step.h_post
        di = self._add_cmi(cmi)
        self.rows.append(
            LedgerRow(t=step.t, h_pred=step.h_pred, h_post=step.h_post, cmi=cmi, di_cum=di)
        )
        return self

    def head(self, k: int) -> "InfoLedger":
        """The ledger as it stood after its first k rows, closed with the
        predicted entropy that followed them.

        Runs of one Kalman ensemble share a data-independent entropy trace
        and differ only in where they stop, so each takes a head of one
        ledger. The head is closed: it keeps di_cum but not the running
        sum's compensation term, so it is not meant to record further steps.
        """
        if not 0 <= k <= len(self.rows):
            raise ValueError(f"k={k} outside 0..{len(self.rows)}")
        head = InfoLedger(self.r_exp, self.h0, self.expansion)
        head.rows = self.rows[:k]
        if k:
            head._di_sum = self.rows[k - 1].di_cum
            head.terminal_h_pred = (
                self.rows[k].h_pred if k < len(self.rows) else self.terminal_h_pred
            )
        return head

    @property
    def di_cum(self) -> float:
        return self._di_sum

    def di_rate(self, T: Optional[int] = None) -> float:
        T = len(self.rows) - 1 if T is None else T
        return self.rows[T].di_cum / (T + 1)


def record_step(ledger: InfoLedger, step) -> InfoLedger:
    """Append one filter step to the ledger (in place) and return it."""
    return ledger.record(step)


def rate_balance_check(ledger: InfoLedger, T: Optional[int] = None) -> float:
    """Residual of di_cum/(T+1) = expansion + (h0 - h_{T+1})/(T+1), bits/step.

    h_{T+1} is the predicted entropy one step past T: taken from the next
    ledger row when present, else from the terminal predict recorded at
    the end of the run.
    """
    T = len(ledger.rows) - 1 if T is None else T
    if T < 0 or T >= len(ledger.rows):
        raise ValueError(f"T={T} outside recorded range 0..{len(ledger.rows) - 1}")
    if T + 1 < len(ledger.rows):
        h_next = ledger.rows[T + 1].h_pred
    elif ledger.terminal_h_pred is not None:
        h_next = ledger.terminal_h_pred
    else:
        raise ValueError(
            "rate balance at the last step needs the terminal predicted entropy"
        )
    lhs = ledger.rows[T].di_cum / (T + 1)
    return lhs - ledger.expansion - (ledger.h0 - h_next) / (T + 1)


@dataclass(frozen=True)
class NecessityVerdict:
    """Outcome of the bounded-error => di-rate >= r_exp check."""

    applicable: bool
    bounded: bool
    di_rate: Optional[float]
    r_exp: float
    tol: float
    passed: Optional[bool]
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "bounded": self.bounded,
            "di_rate_bits_per_step": self.di_rate,
            "r_exp_bits_per_step": self.r_exp,
            "tolerance_bits": self.tol,
            "passed": self.passed,
            "detail": self.detail,
        }


def necessity_audit(
    ledger: InfoLedger,
    error_trace,
    threshold: float,
    tol: float = 0.05,
    tail_window: Optional[int] = None,
) -> NecessityVerdict:
    """Check that a bounded-error run carries at least r_exp bits/step.

    When the tail of the mean-square error trace stays below threshold the
    measured directed-information rate must be at least r_exp - tol; a
    violation is the counterexample that fails the acceptance suite. When
    the boundedness premise fails the check is vacuous.
    """
    err = np.asarray(error_trace, dtype=float)
    if tail_window is None:
        tail_window = max(1, len(err) // 4)
    tail = err[-tail_window:]
    bounded = bool(np.all(np.isfinite(tail)) and np.max(tail) <= threshold)
    if not bounded:
        return NecessityVerdict(
            applicable=False,
            bounded=False,
            di_rate=None,
            r_exp=ledger.r_exp,
            tol=tol,
            passed=None,
            detail=(
                f"tail max E||e||^2 = {np.max(tail):.6g} exceeds threshold "
                f"{threshold:.6g}; boundedness premise fails, check vacuous"
            ),
        )
    T = min(len(ledger.rows), len(err)) - 1
    rate = ledger.di_rate(T)
    passed = bool(rate >= ledger.r_exp - tol)
    detail = (
        f"di rate {rate:.6f} bits/step vs r_exp {ledger.r_exp:.6f} - tol {tol}"
        + ("" if passed else " -- VIOLATION: bounded error with deficient information rate")
    )
    return NecessityVerdict(
        applicable=True,
        bounded=True,
        di_rate=float(rate),
        r_exp=ledger.r_exp,
        tol=tol,
        passed=passed,
        detail=detail,
    )


@dataclass(frozen=True)
class SandwichReport:
    """Entropy gap between a belief and the Gaussian with its covariance.

    Gaussians maximise entropy at fixed covariance, so the per-dimension
    gap is nonnegative up to estimator error; for log-concave laws it is
    additionally bounded above by a universal constant, tracked here as
    the empirical cap.
    """

    h_actual: float  # bits/dim
    h_gauss_same_cov: float  # bits/dim
    gap: float  # bits/dim
    logconcave_hint: Optional[bool] = None
    gap_cap: float = GAP_CAP_BITS_PER_DIM

    @property
    def ok_lower(self) -> bool:
        return self.gap >= -1e-6

    @property
    def within_cap(self) -> bool:
        return self.gap <= self.gap_cap

    def to_json_dict(self) -> dict:
        return {
            "h_actual_bits_per_dim": self.h_actual,
            "h_gauss_same_cov_bits_per_dim": self.h_gauss_same_cov,
            "gap_bits_per_dim": self.gap,
            "logconcave_hint": self.logconcave_hint,
            "gap_cap": self.gap_cap,
            "ok_lower": self.ok_lower,
            "within_cap": self.within_cap,
        }


def sandwich_check(belief, logconcave_hint: Optional[bool] = None) -> SandwichReport:
    """Compare a belief's entropy against the max-entropy Gaussian bound."""
    n = belief.dim
    h_actual = belief.entropy_bits() / n
    h_gauss = nats_to_bits(gaussian_entropy_nats(belief.cov())) / n
    return SandwichReport(
        h_actual=float(h_actual),
        h_gauss_same_cov=float(h_gauss),
        gap=float(h_gauss - h_actual),
        logconcave_hint=logconcave_hint,
    )


def ensemble_mean_ledger(ledgers: list, horizon: Optional[int] = None) -> InfoLedger:
    """Average per-step ledger traces across runs of equal length.

    fsum keeps the reduction exact, hence independent of run order. Only
    runs that reached the target horizon participate.
    """
    full = [lg for lg in ledgers if horizon is None or len(lg) >= horizon]
    if not full:
        raise ValueError("no run reached the requested horizon")
    T = min(len(lg) for lg in full)
    n = len(full)
    mean = InfoLedger(
        r_exp=full[0].r_exp,
        h0=math.fsum(lg.h0 for lg in full) / n,
        expansion=full[0].expansion,
    )

    @dataclass
    class _Row:
        t: int
        h_pred: float
        h_post: float

    for t in range(T):
        h_pred = math.fsum(lg.rows[t].h_pred for lg in full) / n
        h_post = math.fsum(lg.rows[t].h_post for lg in full) / n
        mean.record(_Row(t=t, h_pred=h_pred, h_post=h_post))
    terms = [lg.terminal_h_pred for lg in full if lg.terminal_h_pred is not None]
    if len(terms) == len(full):
        mean.terminal_h_pred = math.fsum(terms) / n
    return mean
