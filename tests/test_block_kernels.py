"""Array kernels that replace per-row or per-call numpy work keep its bits.

- `grid_entropy_nats` with one cell volume per row gives each row the
  value a per-row `-np.sum(pos * np.log(pos)) * v` gives, whatever the
  row's zero pattern; with a scalar volume it is one value, as before.
- The quantizer's pmf bins give the pmf that `np.unique` over the
  observations gave, so the predictive entropy keeps its bits.
- `_systematic_indices` gives `searchsorted`'s indices.
- The linear channel's log-density, now the shared Gaussian-noise one,
  agrees with its old `X @ C.T` formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensebound import filters
from sensebound.channels import LinearGaussianChannel, SignQuantizerChannel
from sensebound.entropy import grid_entropy_nats
from sensebound.filters import GridBelief, ParticleBelief
from sensebound.system import SystemModel, decompose

from test_grid_block import axis0_pmf_bits

NODES = 385

# how many of a row's NODES entries are positive
PATTERNS = ("one", "few", "mid", "many", "all", "holes", "none")


def ragged_row(pattern: str, rng) -> np.ndarray:
    d = np.exp(rng.normal(0.0, 3.0, NODES))
    if pattern == "all":
        return d
    if pattern == "holes":  # interior zeros between positive runs
        return d * (rng.random(NODES) < 0.7)
    count = {"one": 1, "few": rng.integers(2, 8), "mid": rng.integers(8, 129),
             "many": rng.integers(129, NODES), "none": 0}[pattern]
    start = rng.integers(0, NODES - count + 1)
    out = np.zeros(NODES)
    out[start:start + count] = d[start:start + count]
    return out


def per_row_nats(d: np.ndarray, v: float) -> float:
    pos = d[d > 0]
    return -np.sum(pos * np.log(pos)) * v


@given(st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=30),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_row_entropy_is_each_rows_own_sum(patterns, seed):
    rng = np.random.default_rng(seed)
    density = np.array([ragged_row(p, rng) for p in patterns])
    volume = rng.uniform(1e-3, 1.0, len(patterns))
    got = grid_entropy_nats(density, volume)
    want = np.array([per_row_nats(d, v) for d, v in zip(density, volume)])
    assert got.tobytes() == want.tobytes()


@given(st.sampled_from(PATTERNS), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_scalar_volume_is_one_grid(pattern, seed):
    """A scalar volume keeps the single value of the 1-D and 2-D GridBelief."""
    rng = np.random.default_rng(seed)
    grid = np.array([ragged_row(pattern, rng) for _ in range(4)])[:, :64].reshape(16, 16)
    for d in (grid, grid[0]):
        got = grid_entropy_nats(d, 0.25)
        assert type(got) is float
        assert got == float(per_row_nats(d.ravel(), 0.25))


def grid_block(raw) -> GridBelief:
    """One block GridBelief of the raw (axis, density) pairs, normalised by
    the block's own constructor."""
    axes, dens = zip(*raw)
    return GridBelief((np.array(axes),), np.array(dens))


def test_grid_rows_entropy_matches_each_grid():
    rng = np.random.default_rng(5)
    raw = [(np.linspace(-1, 1, NODES) * s, ragged_row(p, rng))
           for p, s in zip(PATTERNS[:-1] * 3, rng.uniform(0.5, 4.0, 18))]
    grids = [GridBelief((x,), d) for x, d in raw]
    assert grid_block(raw).entropy_bits().tolist() == [g.entropy_bits() for g in grids]


def random_grid(rng) -> tuple:
    """(axis, raw density) of a clipped Gaussian on a random grid."""
    mu, sd = rng.normal(0.0, 3.0), rng.uniform(0.2, 3.0)
    axis = np.linspace(mu - 8 * sd, mu + 8 * sd, NODES)
    return axis, np.exp(-0.5 * ((axis - mu) / sd) ** 2) * (rng.random(NODES) < 0.9)


def test_block_rows_are_the_single_grids():
    """A block GridBelief built from raw rows gives each row the single
    GridBelief's density, entropy, moments, condition number and JSON, and
    `take` and `tiled` copy rows without touching their bits."""
    rng = np.random.default_rng(9)
    raw = [random_grid(rng) for _ in range(7)]
    block = grid_block(raw)
    singles = [GridBelief((x,), d) for x, d in raw]
    h, mu, cov, cond = block.entropy_bits(), block.mean(), block.cov(), block.cond_number()
    assert block.batch == (7,) and mu.shape == (7, 1) and cov.shape == (7, 1, 1)
    for r, g in enumerate(singles):
        assert block.density[r].tobytes() == g.density.tobytes()
        assert h[r] == g.entropy_bits()
        assert mu[r].tobytes() == g.mean().tobytes()
        assert cov[r].tobytes() == g.cov().tobytes()
        assert cond[r] == g.cond_number()
    assert block.to_json_dict() == [g.to_json_dict() for g in singles]

    keep = np.array([True, False, True, True, False, False, True])
    kept = block.take(keep)
    assert kept.density.tobytes() == block.density[keep].tobytes()
    assert kept.axes[0].tobytes() == block.axes[0][keep].tobytes()
    assert kept.entropy_bits().tolist() == h[keep].tolist()
    tiled = singles[2].tiled(3)
    for r in range(3):
        assert tiled.density[r].tobytes() == singles[2].density.tobytes()
        assert tiled.axes[0][r].tobytes() == singles[2].axes[0].tobytes()
    assert tiled.entropy_bits().tolist() == [singles[2].entropy_bits()] * 3


def test_two_dimensional_block_rows_are_the_single_grids():
    """The batch axis carries 2-D grids too: each row of a block and of its
    posterior under a linear channel has the single 2-D grid's bits. Only
    the 2-D re-grid is single-grid, and a block says so."""
    rng = np.random.default_rng(10)
    raw = [((np.linspace(-3, 3, 33) * s, np.linspace(-2, 2.5, 41) * s), rng.random((33, 41)))
           for s in (1.0, 1.5, 0.7)]
    singles = [GridBelief(axes, d) for axes, d in raw]
    block = GridBelief(tuple(np.array(a) for a in zip(*(axes for axes, _ in raw))),
                       np.array([d for _, d in raw]))
    ch = LinearGaussianChannel(np.eye(2), np.eye(2))
    Y = rng.normal(0.0, 1.0, (3, 2))
    step = filters.update(block, ch, Y)
    assert block.to_json_dict() == [g.to_json_dict() for g in singles]
    for r, g in enumerate(singles):
        assert block.density[r].tobytes() == g.density.tobytes()
        assert block.mean()[r].tobytes() == g.mean().tobytes()
        assert block.cov()[r].tobytes() == g.cov().tobytes()
        one = filters.update(g, ch, Y[r])
        assert step.belief_post.density[r].tobytes() == one.belief_post.density.tobytes()
        assert (step.h_pred[r], step.h_post[r]) == (one.h_pred, one.h_post)
        assert step.cond_number[r] == one.cond_number
    with pytest.raises(NotImplementedError, match="2-D"):
        filters.predict(step.belief_post, decompose(SystemModel(np.eye(2) * 1.5, np.eye(2))),
                        np.zeros((3, 2)))


@given(st.sampled_from([2, 3, 4, 9]), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pmf_bins_give_the_unique_pmf(levels, seed):
    ch = SignQuantizerChannel(levels=levels)
    rng = np.random.default_rng(seed)
    raw = [random_grid(rng) for _ in range(6)]
    grids = [GridBelief((x,), d) for x, d in raw]
    for g in grids:
        assert filters._discrete_predictive_entropy_bits(g, ch) == axis0_pmf_bits(g, ch)
    block = filters._discrete_predictive_entropy_bits(grid_block(raw), ch)
    assert block.tolist() == [axis0_pmf_bits(g, ch) for g in grids]
    parts = ParticleBelief(rng.normal(0.0, levels / 2, 500), rng.random(500))
    assert filters._discrete_predictive_entropy_bits(parts, ch) == axis0_pmf_bits(parts, ch)


@given(st.sampled_from([2, 3, 4, 9]), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_two_dimensional_bins_follow_the_row_order(levels, seed):
    """Mixed-radix bins ascend as `np.unique(axis=0)` sorts observation rows."""
    ch = SignQuantizerChannel(levels=levels, dim=2)
    rng = np.random.default_rng(seed)
    spread = rng.uniform(0.3, levels)
    parts = ParticleBelief(rng.normal(0.0, spread, (800, 2)) * [1.0, rng.uniform(0.1, 2.0)],
                           rng.random(800) * (rng.random(800) < 0.8))
    got = filters._discrete_predictive_entropy_bits(parts, ch)
    assert type(got) is float
    assert got == axis0_pmf_bits(parts, ch)
    axis = np.linspace(-levels, levels, 33)
    grid = GridBelief((axis, axis * 0.5), rng.random((33, 33)))
    assert filters._discrete_predictive_entropy_bits(grid, ch) == axis0_pmf_bits(grid, ch)


def searchsorted_indices(weights, offset):
    n = weights.shape[0]
    return np.searchsorted(np.cumsum(weights), (np.arange(n) + offset) / n).clip(0, n - 1)


WEIGHTS = ("uniform", "random", "spiky", "sparse")


def weight_vector(kind: str, n: int, rng) -> np.ndarray:
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    w = {"random": rng.random(n), "spiky": np.exp(rng.normal(0.0, 8.0, n)),
         "sparse": rng.random(n) * (rng.random(n) < 0.05)}[kind]
    w[rng.integers(n)] += 1.0
    return w / w.sum()


@given(st.sampled_from(WEIGHTS), st.sampled_from([1, 2, 5, 7, 100, 1000, 2**14]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_systematic_indices_equal_searchsorted(kind, n, seed):
    rng = np.random.default_rng(seed)
    w = weight_vector(kind, n, rng)
    for offset in (0.0, 0.5, float(np.nextafter(1.0, 0.0)), float(rng.random())):
        got = filters._systematic_indices(w, offset)
        assert np.array_equal(got, searchsorted_indices(w, offset)), offset


def old_linear_log_density(ch, y, X):
    y = np.asarray(y, dtype=float).reshape(-1)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    E = y[None, :] - X @ ch.C.T
    return ch._log_norm - 0.5 * np.einsum("ij,jk,ik->i", E, ch._R_inv, E)


@pytest.mark.parametrize("C, R", [
    ([[1.5]], [[1.0]]),
    ([[0.7, -1.3]], [[2.0]]),
    ([[1.0, 0.5], [-0.2, 2.0]], [[1.0, 0.3], [0.3, 2.0]]),
])
def test_linear_log_density_agrees_with_the_old_formula(C, R):
    """Grid nodes and particle states; R keeps the log-density away from
    zero, so the comparison is relative to values of size one or more."""
    ch = LinearGaussianChannel(C, R)
    rng = np.random.default_rng(11)
    n = ch.state_dim
    axes = tuple(np.linspace(-4.0, 4.0, 65) for _ in range(n))
    grid_nodes = GridBelief(axes, np.ones((65,) * n)).nodes()
    particles = ParticleBelief(rng.normal(0.0, 2.0, (4096, n))).states
    for X in (grid_nodes, particles):
        y = rng.normal(0.0, 1.0, ch.obs_dim)
        got, want = ch.log_density_batch(y, X), old_linear_log_density(ch, y, X)
        assert np.all(want < 0)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
