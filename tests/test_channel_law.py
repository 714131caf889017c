"""Each channel kind writes its law once, as `observe(X, W)`.

`sample(x, rng)` is `observe(x, rng.standard_normal(noise_dim))`. It must
give the bits of the closed-form draws each kind made before, leave the
generator at the same stream position, and agree row by row with
`observe` on a block of states fed the same unit normals, which is how
`loop.run_block` observes its runs.
"""

import numpy as np
import pytest

from sensebound.channels import make_channel
from sensebound.errors import DimensionMismatch

# (kind, dimension): constructor parameters
KINDS = {
    ("linear-gaussian", 1): dict(C=[[1.3]], R=[[0.5]]),
    ("linear-gaussian", 2): dict(C=[[1.0, 0.5], [-0.3, 2.0]], R=[[1.0, 0.2], [0.2, 0.5]]),
    ("tanh-gaussian", 1): dict(scale=1.7, R=[[0.04]]),
    ("tanh-gaussian", 2): dict(scale=0.8, R=[[0.3, 0.1], [0.1, 0.2]]),
    ("cubic-gaussian", 1): dict(R=[[0.2]]),
    ("cubic-gaussian", 2): dict(R=[[0.2, -0.05], [-0.05, 0.1]]),
    ("sign-quantizer", 1): dict(levels=2),
    ("sign-quantizer", 2): dict(levels=4, dim=2),
    ("modulo-gaussian", 1): dict(period=1.0, r=0.09),
    ("modulo-gaussian", 2): dict(period=0.7, r=0.04, dim=2),
}
NOISE_DIM = {"linear-gaussian": "p", "tanh-gaussian": "p", "cubic-gaussian": "p",
             "sign-quantizer": 0, "modulo-gaussian": "p"}


def closed_form(ch, x, rng):
    """The draw each kind made before its law became `observe`."""
    if ch.kind == "linear-gaussian":
        return ch.C @ x + ch._chol @ rng.standard_normal(ch.obs_dim)
    if ch.kind == "tanh-gaussian":
        noise = ch._chol @ rng.standard_normal(ch.obs_dim)
        return np.tanh(ch.scale * x) + noise
    if ch.kind == "cubic-gaussian":
        noise = ch._chol @ rng.standard_normal(ch.obs_dim)
        return x**3 + noise
    if ch.kind == "sign-quantizer":
        return ch._quantize(x)
    return np.mod(x + np.sqrt(ch.r) * rng.standard_normal(ch.dim), ch.period)


@pytest.fixture(params=sorted(KINDS), ids=lambda k: f"{k[0]}-{k[1]}d")
def channel(request):
    return make_channel(request.param[0], **KINDS[request.param])


def test_noise_dim(channel):
    want = NOISE_DIM[channel.kind]
    assert channel.noise_dim == (channel.obs_dim if want == "p" else want)


def test_sample_is_the_closed_form_draw(channel):
    """Same bits and same stream position as before, over 50 seeds."""
    for seed in range(50):
        x = np.random.default_rng(1000 + seed).normal(0.0, 2.0, channel.state_dim)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = channel.sample(x, got_rng), closed_form(channel, x, want_rng)
        assert got.dtype == want.dtype and got.shape == want.shape == (channel.obs_dim,)
        assert got.tobytes() == want.tobytes(), seed
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, seed
    if channel.noise_dim == 0:  # nothing drawn
        assert got_rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_observe_rows_are_samples(channel):
    """Row r of observe(X, W) is sample(X[r], .) fed the normals W[r]: one
    (rows, noise_dim) draw is the rows' draws in sequence."""
    for seed in range(10):
        X = np.random.default_rng(2000 + seed).normal(0.0, 2.0, (7, channel.state_dim))
        rng = np.random.default_rng(seed)
        samples = [channel.sample(x, rng) for x in X]
        W = np.random.default_rng(seed).standard_normal((7, channel.noise_dim))
        rows = channel.observe(X, W)
        assert rows.shape == (7, channel.obs_dim)
        for r in range(7):
            assert rows[r].tobytes() == samples[r].tobytes(), (seed, r)


def test_sample_checks_the_state_length(channel):
    with pytest.raises(DimensionMismatch):
        channel.sample(np.zeros(channel.state_dim + 1), np.random.default_rng(0))
