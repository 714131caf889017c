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

from .errors import OutOfOrderStep

NECESSITY_TOL_BITS = 0.05  # slack of the necessity check's di rate >= r_exp, bits/step


class InfoLedger:
    """Per-run trace of entropies and cumulative directed information (bits).

    The trace is four columns indexed by step: h_pred, h_post, their drop
    cmi and its causal running sum di_cum.

    r_exp is the expansion rate of the unstable eigenvalue set (the
    necessity threshold). expansion is the per-step entropy production of
    the block the filter actually tracks, log2|det A_block|; the two
    coincide whenever the tracked block is the unstable one, and differ
    only on allow-stable baselines where the tracked block contracts.
    """

    def __init__(self, r_exp: float, expansion: Optional[float] = None):
        self.r_exp = float(r_exp)
        self.expansion = float(r_exp if expansion is None else expansion)
        self.h_pred: list = []
        self.h_post: list = []
        self.cmi: list = []
        self.di_cum: list = []
        self.terminal_h_pred: Optional[float] = None
        self._di_comp = 0.0  # Kahan compensation, fixed summation order
        self._csv: Optional[list] = None

    def __len__(self) -> int:
        return len(self.di_cum)

    def _append(self, h_pred, h_post) -> None:
        cmi = h_pred - h_post
        total = self.di_cum[-1] if self.di_cum else 0.0
        y = cmi - self._di_comp
        t = total + y
        self._di_comp = (t - total) - y
        self.h_pred.append(h_pred)
        self.h_post.append(h_post)
        self.cmi.append(cmi)
        self.di_cum.append(t)
        self._csv = None

    def record(self, step) -> "InfoLedger":
        if step.t != len(self):
            raise OutOfOrderStep(
                f"step has t={step.t} but ledger holds {len(self)} steps"
            )
        self._append(step.h_pred, step.h_post)
        return self

    def closed(self, h_pred, h_post, cmi, di_cum, terminal) -> "InfoLedger":
        """A ledger with these columns and terminal h_pred, and this one's rates."""
        run = InfoLedger(self.r_exp, self.expansion)
        run.h_pred, run.h_post, run.cmi, run.di_cum = h_pred, h_post, cmi, di_cum
        run.terminal_h_pred = terminal
        return run

    def columns(self, steps, terminal) -> list:
        """The per-run ledgers of a block ledger: run r keeps its first
        steps[r] steps, closed with terminal[r].

        Where each step holds one value per run (a 1-D grid block), the
        columns are split by run. Where each step holds one value for the
        whole block (a Kalman block's: its covariances do not depend on
        the data), every run's ledger is a head of the block's, and the
        runs that end at the same step with the same terminal value share
        one ledger object, so its `csv_cells` are formatted once for all
        of them. A run's ledger is closed: it drops the running sum's
        compensation term, so it is not meant to record further steps.
        """
        cols = (self.h_pred, self.h_post, self.cmi, self.di_cum)
        if cols[0] and np.ndim(cols[0][0]):
            split = [np.array(col).T.tolist() for col in cols]
            return [self.closed(*(col[r][:k] for col in split), term)
                    for r, (k, term) in enumerate(zip(steps, terminal))]
        heads = {}
        for k, term in zip(steps, terminal):
            if (k, term) not in heads:
                heads[k, term] = self.closed(*(col[:k] for col in cols), term)
        return [heads[k, term] for k, term in zip(steps, terminal)]

    def csv_cells(self) -> list:
        """h_pred,h_post,cmi,di_cum of each step as run-CSV cells, each
        repr(float(x)), formatted once per ledger."""
        if self._csv is None:
            self._csv = [
                f"{float(a)!r},{float(b)!r},{float(c)!r},{float(d)!r}"
                for a, b, c, d in zip(self.h_pred, self.h_post, self.cmi, self.di_cum)
            ]
        return self._csv

    def di_rate(self, T: Optional[int] = None) -> float:
        T = len(self) - 1 if T is None else T
        return self.di_cum[T] / (T + 1)


def rate_balance_check(ledger: InfoLedger, T: Optional[int] = None) -> float:
    """Residual of di_cum/(T+1) = expansion + (h_0 - h_{T+1})/(T+1), bits/step.

    h_0 is h_pred[0]. h_{T+1} is the predicted entropy one step past T:
    taken from the next ledger step when present, else from the terminal
    predict recorded at the end of the run.
    """
    n = len(ledger)
    T = n - 1 if T is None else T
    if T < 0 or T >= n:
        raise ValueError(f"T={T} outside recorded range 0..{n - 1}")
    if T + 1 < n:
        h_next = ledger.h_pred[T + 1]
    elif ledger.terminal_h_pred is not None:
        h_next = ledger.terminal_h_pred
    else:
        raise ValueError(
            "rate balance at the last step needs the terminal predicted entropy"
        )
    lhs = ledger.di_cum[T] / (T + 1)
    return lhs - ledger.expansion - (ledger.h_pred[0] - h_next) / (T + 1)


@dataclass(frozen=True)
class NecessityVerdict:
    """Outcome of the bounded-error => di-rate >= r_exp check."""

    applicable: bool
    bounded: bool
    di_rate_bits_per_step: Optional[float]
    r_exp_bits_per_step: float
    tolerance_bits: float
    passed: Optional[bool]
    detail: str


def necessity_audit(ledger: InfoLedger, error_trace, outcome) -> NecessityVerdict:
    """Check that a bounded-error run carries at least r_exp bits/step.

    The boundedness premise is the outcome's (`classify_outcome`)
    `ms_bounded_error`: the tail of the mean-square error trace stays
    below its threshold and no run halted or degenerated. Under it the
    measured directed-information rate must be at least
    r_exp - NECESSITY_TOL_BITS; a violation is the counterexample that
    fails the acceptance suite. When the premise fails the check is vacuous.
    """
    err = np.asarray(error_trace, dtype=float)
    if not outcome.ms_bounded_error:
        tail = err[-outcome.tail_window:]
        threshold = outcome.bound_error
        if np.all(np.isfinite(tail)) and np.max(tail) <= threshold:
            reason = (f"tail max E||e||^2 = {np.max(tail):.6g} is within threshold "
                      f"{threshold:.6g}, but a run halted or degenerated")
        else:
            reason = (f"tail max E||e||^2 = {np.max(tail):.6g} exceeds threshold "
                      f"{threshold:.6g}")
        return NecessityVerdict(
            applicable=False,
            bounded=False,
            di_rate_bits_per_step=None,
            r_exp_bits_per_step=ledger.r_exp,
            tolerance_bits=NECESSITY_TOL_BITS,
            passed=None,
            detail=f"{reason}; boundedness premise fails, check vacuous",
        )
    T = min(len(ledger), len(err)) - 1
    rate = ledger.di_rate(T)
    passed = bool(rate >= ledger.r_exp - NECESSITY_TOL_BITS)
    detail = (
        f"di rate {rate:.6f} bits/step vs r_exp {ledger.r_exp:.6f} - tol {NECESSITY_TOL_BITS}"
        + ("" if passed else " -- VIOLATION: bounded error with deficient information rate")
    )
    return NecessityVerdict(
        applicable=True,
        bounded=True,
        di_rate_bits_per_step=float(rate),
        r_exp_bits_per_step=ledger.r_exp,
        tolerance_bits=NECESSITY_TOL_BITS,
        passed=passed,
        detail=detail,
    )


def exact_step_means(traces) -> list:
    """The mean at each step over the traces that reach it.

    Traces may be ragged (a halted run is short): the mean at step t
    averages the traces longer than t. math.fsum rounds the exact sum once,
    so the means do not depend on the order of the traces. Sorted longest
    first, the traces that reach step t are a prefix of one stacked (T, N)
    array.
    """
    traces = sorted(traces, key=len, reverse=True)
    if not traces:
        return []
    stack = np.empty((len(traces[0]), len(traces)))
    for j, tr in enumerate(traces):
        stack[: len(tr), j] = tr
    means, n = [], len(traces)
    for t in range(len(stack)):
        while len(traces[n - 1]) <= t:
            n -= 1
        row = stack[t, :n].tolist()
        try:
            means.append(math.fsum(row) / n)
        except (OverflowError, ValueError):
            means.append(_scaled_mean(row))
    return means


def _scaled_mean(row) -> float:
    """The mean of a row whose fsum overflows, summed scaled by 2^-k < 1/len(row)
    (exact but for subnormals) and scaled back; nan if it holds inf and -inf."""
    scale = 2.0 ** len(row).bit_length()
    try:
        return math.fsum([x / scale for x in row]) / len(row) * scale
    except ValueError:  # -inf + inf
        return math.nan


def ensemble_mean_ledger(ledgers: list) -> InfoLedger:
    """Average the per-step ledger traces of runs of equal length, the
    completed runs of an ensemble.

    fsum keeps the reduction exact, hence independent of run order
    (`exact_step_means`).
    """
    if not ledgers:
        raise ValueError("no ledger to average")
    n = len(ledgers)
    mean = InfoLedger(r_exp=ledgers[0].r_exp, expansion=ledgers[0].expansion)
    h_pred = exact_step_means([lg.h_pred for lg in ledgers])
    h_post = exact_step_means([lg.h_post for lg in ledgers])
    for hp, hq in zip(h_pred, h_post):
        mean._append(hp, hq)
    terms = [lg.terminal_h_pred for lg in ledgers if lg.terminal_h_pred is not None]
    if len(terms) == n:
        mean.terminal_h_pred = math.fsum(terms) / n
    return mean
