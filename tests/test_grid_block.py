"""The batched 1-D grid path against the scalar reference loop.

`run_ensemble` runs 1-D grid ensembles through `run_block`; every record
it emits must be, bit for bit, the one `run_closed_loop` gives for that
run index, at any block size and worker count. The one 1-D re-grid,
`filters._rows_cubic_spline`, must give scipy's `CubicSpline` bits.
"""

import ctypes
import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgtsv

from sensebound import filters
from sensebound.audits import audit_run
from sensebound.channels import SignQuantizerChannel, TanhGaussianChannel
from sensebound.config import build_context, parse_config
from sensebound.experiments import bundled_text, load_bundled
from sensebound.filters import GridBelief, GridSpec, ParticleBelief
from sensebound.loop import run_block, run_closed_loop, run_ensemble, tracked_block
from sensebound.report import to_jsonable

from test_kalman_block import LEDGER_COLUMNS, assert_records_equal

GRID_BUNDLED = (
    "sign-threshold-easy", "entropy-balance", "sign-threshold-hard", "modulo-counterexample",
)

# A 3-level quantizer on a grid two posterior stds either side: the state
# often leaves the grid across a threshold, so the likelihood vanishes on
# every node. Some runs go degenerate early, some late, and the rest finish.
DEGENERATE_MIX = """
experiment = "degenerate-mix"

[system]
A = [[1.5]]
B = [[1.0]]

[channel]
kind = "sign-quantizer"
levels = 3

[prior]
family = "gaussian"
mean = [0.4]
cov = [[0.01]]

[filter]
kind = "grid"
half_width_stds = 2.0

[controller]
mode = "update"

[run]
horizon = 40
runs = 9
seed = 3
"""

# One unstable and one stable mode driven by two inputs: the block carries
# the stable modes and the 2x2 change of coordinates as rows too.
STABLE_MODE = """
experiment = "stable-mode"

[system]
A = [[1.4, 0.3], [0.0, 0.6]]
B = [[1.0, 0.5], [0.2, 1.0]]

[channel]
kind = "tanh-gaussian"
R = [[0.04]]

[prior]
family = "gaussian"
cov = [[0.25]]

[filter]
kind = "grid"

[controller]
mode = "predict"

[run]
horizon = 30
runs = 9
seed = 8
"""

# entropy-balance with shrinking noise: step t observes with R * 0.9**t
SCHEDULED = bundled_text("entropy-balance").replace(
    "[channel]", "[channel]\ngamma = 0.9"
)


class HandSteppedTanh(TanhGaussianChannel):
    """The scheduled tanh channel with each step's channel built here from
    R * 0.9**t, not by `ChannelModel.at`."""

    def at(self, t):
        return TanhGaussianChannel(self.scale, self.R * 0.9**t)


def bundled_ctx(name, **changes):
    return replace(build_context(load_bundled(name)), **changes)


def cases():
    """(label, context, master seed, run count) of each differential case."""
    return [
        ("sign-threshold-easy", bundled_ctx("sign-threshold-easy"), 77, 9),
        ("entropy-balance", bundled_ctx("entropy-balance"), 5, 9),
        ("sign-threshold-hard", bundled_ctx("sign-threshold-hard"), 77, 9),
        ("modulo-audited", bundled_ctx("modulo-counterexample", collect_audits=True), 1, 3),
        ("degenerate-mix", build_context(parse_config(DEGENERATE_MIX)), 3, 9),
        ("stable-mode", build_context(parse_config(STABLE_MODE)), 8, 9),
        ("debug-beliefs", bundled_ctx("sign-threshold-easy", horizon=12, collect_beliefs=True),
         2, 4),
        # three nodes: the re-grid takes scipy's small-grid branches
        ("three-nodes", bundled_ctx("sign-threshold-easy",
                                    grid_spec=GridSpec(half_width_stds=0.06)), 1, 4),
        ("scheduled-audited", replace(build_context(parse_config(SCHEDULED)), horizon=30,
                                      collect_audits=True), 4, 4),
    ]


@pytest.fixture(scope="module", params=cases(), ids=lambda c: c[0])
def case(request):
    label, ctx, seed, n = request.param
    return label, ctx, seed, n, [run_closed_loop(ctx, seed, i) for i in range(n)]


class TestBlockAgainstScalarLoop:
    @pytest.mark.parametrize("size", [1, 7, None])
    def test_every_block_size(self, case, size):
        _, ctx, seed, n, refs = case
        size = size or n
        blocks = [range(a, min(a + size, n)) for a in range(0, n, size)]
        records = [r for b in blocks for r in run_block(ctx, seed, b)]
        assert [r.run_index for r in records] == list(range(n))
        for rec, ref in zip(records, refs, strict=True):
            assert_records_equal(rec, ref)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_worker_count(self, case, workers):
        _, ctx, seed, n, refs = case
        ens = run_ensemble(ctx, n, master_seed=seed, workers=workers)
        for rec, ref in zip(ens.runs, refs, strict=True):
            assert_records_equal(rec, ref)

    def test_cases_cover_what_they_claim(self, case):
        label, ctx, _, _, refs = case
        if label == "sign-threshold-hard":
            assert all(r.outcome == "halted" for r in refs)
        if label == "modulo-audited":
            assert all(r.audits is not None for r in refs)
        if label == "degenerate-mix":
            late = [r.steps for r in refs if r.outcome == "degenerate" and r.steps > 0]
            assert late and any(r.outcome == "completed" for r in refs)
        if label == "debug-beliefs":
            assert all(len(r.beliefs_json) == r.steps for r in refs)
        if label == "stable-mode":
            assert ctx.decomp.n == 2 and ctx.decomp.n_u == 1 and ctx.model.m == 2
            assert all(r.outcome == "completed" for r in refs)
        if label == "three-nodes":
            assert ctx.grid_spec.nodes_per_axis() == 3
            assert any(r.outcome == "degenerate" for r in refs)
            assert any(r.outcome == "halted" for r in refs)
        if label == "scheduled-audited":
            ch = ctx.channel
            assert ch.gamma == 0.9 and all(r.outcome == "completed" for r in refs)
            for r in refs:
                want = audit_run(HandSteppedTanh(ch.scale, ch.R), tracked_block(ctx.decomp),
                                 ctx.prior, r.z_u, r.y, r.cond, L=ctx.audit_window,
                                 kappa_cap=ctx.kappa_cap)
                assert to_jsonable(r.audits) == to_jsonable(want)


def harvest_regrids(monkeypatch):
    """(x, y, q) of every 1-D re-grid the scalar loop makes on a few runs of
    each bundled grid experiment, recorded where GridBelief calls the row
    spline."""
    seen = []
    spline = filters._rows_cubic_spline

    def recording(x, y, q):
        seen.append((np.array(x), np.array(y), np.array(q)))
        return spline(x, y, q)

    monkeypatch.setattr(filters, "_rows_cubic_spline", recording)
    for name in GRID_BUNDLED:
        ctx = bundled_ctx(name)
        for i in range(3 if name != "modulo-counterexample" else 1):
            run_closed_loop(ctx, 11, i)
    monkeypatch.undo()
    return seen


def test_row_spline_bits_equal_scipy(monkeypatch):
    regrids = harvest_regrids(monkeypatch)
    assert len(regrids) >= 500
    assert sum(bool(np.any(y == 0.0)) for _, y, _ in regrids) >= 100
    for a in range(0, len(regrids), 24):
        x, y, q = (np.array(v) for v in zip(*regrids[a : a + 24]))
        got = filters._rows_cubic_spline(x, y, q)
        for xr, yr, qr, g in zip(x, y, q, got):
            inside = (qr >= xr[0]) & (qr <= xr[-1])
            want = np.clip(np.where(inside, CubicSpline(xr, yr)(qr), 0.0), 0.0, None)
            assert np.clip(np.where(inside, g, 0.0), 0.0, None).tobytes() == want.tobytes()


def test_row_spline_small_grids_use_scipy():
    x = np.array([[0.0, 1.0, 2.0], [1.0, 1.5, 3.0]])
    y = np.array([[1.0, 0.0, 2.0], [0.5, 0.25, 0.0]])
    q = np.array([[0.5, 1.5, 2.0], [1.0, 2.0, 2.5]])
    got = filters._rows_cubic_spline(x, y, q)
    for r in range(2):
        assert got[r].tobytes() == CubicSpline(x[r], y[r])(q[r]).tobytes()


def joined_blocks(rng, blocks, n, diag_scale):
    """One tridiagonal system of `blocks` systems of n rows joined by zero
    off-diagonals, as the row spline solves them; a small `diag_scale`
    makes the sub-diagonal outweigh the diagonal, so dgtsv swaps rows."""
    m = blocks * n
    lower, upper = rng.normal(size=m - 1), rng.normal(size=m - 1)
    lower[n - 1 :: n] = upper[n - 1 :: n] = 0.0
    return lower, diag_scale * rng.normal(size=m), upper, rng.normal(size=m)


@pytest.mark.parametrize("source", ["numpy", "fallback"])
def test_row_solve_bits_equal_scipy(monkeypatch, source):
    """The re-grid's dgtsv, from numpy's LAPACK or, where that symbol
    cannot be found, from scipy, solves joined block systems to scipy's
    bits and calls a singular one singular."""
    if source == "fallback":
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())  # no symbol to find
    filters._gtsv.cache_clear()
    try:
        solve = filters._gtsv()
        rng = np.random.default_rng(23)
        systems = [joined_blocks(rng, 24, 385, 4.0), joined_blocks(rng, 7, 40, 0.1)]
        lower, diag = systems[1][:2]
        assert np.sum(np.abs(lower) > np.abs(diag[:-1])) > 100  # rows that pivot
        for blocks, n in ((1, 4), (3, 5), (50, 97)):
            systems += [joined_blocks(rng, blocks, n, s) for s in (0.5, 4.0)]
        for system in systems:
            _, _, _, want, info = dgtsv(*(a.copy() for a in system[:3]),
                                        system[3].reshape(-1, 1).copy())
            assert info == 0
            got = solve(*(a.copy() for a in system))
            assert got.tobytes() == want.ravel().tobytes()

        lower, diag, upper, b = joined_blocks(rng, 5, 30, 4.0)
        diag[60] = lower[60] = 0.0  # block 2 has a zero first column
        assert dgtsv(lower.copy(), diag.copy(), upper.copy(), b.reshape(-1, 1).copy())[4] > 0
        with pytest.raises(np.linalg.LinAlgError):
            solve(lower, diag, upper, b)
    finally:
        filters._gtsv.cache_clear()


def axis0_pmf_bits(belief, ch) -> float:
    """The discrete predictive entropy as computed before the 1-column path."""
    pts, w = belief._weighted_points()
    _, inverse = np.unique(ch.observe(pts, None), axis=0, return_inverse=True)
    pmf = np.bincount(inverse.reshape(-1), weights=w)
    pmf = pmf[pmf > 0]
    return float(-np.sum(pmf * np.log2(pmf)))


@pytest.mark.parametrize("levels", [2, 4])
def test_one_column_pmf_equals_axis0_path(levels):
    ch = SignQuantizerChannel(levels=levels)
    rng = np.random.default_rng(levels)
    axes, raw, grids, parts = [], [], [], []
    for _ in range(20):
        mu, sd = rng.normal(0.0, 1.5), rng.uniform(0.2, 2.0)
        axis = np.linspace(mu - 8 * sd, mu + 8 * sd, 385)
        dens = np.exp(-0.5 * ((axis - mu) / sd) ** 2) * (rng.random(385) < 0.9)
        axes.append(axis)
        raw.append(dens)
        grids.append(GridBelief((axis,), dens))
        parts.append(ParticleBelief(rng.normal(mu, sd, 2000), rng.random(2000)))
    for b in grids + parts:
        got = filters._discrete_predictive_entropy_bits(b, ch)
        assert got == axis0_pmf_bits(b, ch)
    # a block of the same raw grids gives each grid's value
    rows = GridBelief((np.array(axes),), np.array(raw))
    block = filters._discrete_predictive_entropy_bits(rows, ch)
    assert block.tolist() == [axis0_pmf_bits(g, ch) for g in grids]


def test_record_fields_are_the_scalar_types():
    ctx = bundled_ctx("sign-threshold-easy", horizon=5)
    rec, ref = run_block(ctx, 1, range(1))[0], run_closed_loop(ctx, 1, 0)
    for f in dataclasses.fields(rec):
        assert type(getattr(rec, f.name)) is type(getattr(ref, f.name)), f.name
    for col in LEDGER_COLUMNS:
        got, want = getattr(rec.ledger, col), getattr(ref.ledger, col)
        assert len(got) == len(want) == 5, col
        assert [type(v) for v in got] == [type(v) for v in want], col


def test_unique_rows_is_numpy_unique_over_rows():
    rng = np.random.default_rng(4)
    for cols in (1, 2, 3):
        a = rng.integers(-2, 3, size=(5, 40, cols)).astype(float)
        values, inverse = filters._unique_rows(a)
        want_v, want_i = np.unique(a.reshape(-1, cols), axis=0, return_inverse=True)
        assert np.array_equal(values, want_v)
        assert np.array_equal(inverse, want_i.reshape(5, 40))
