import types

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import digamma

import sensebound.entropy as entropy_mod
import sensebound.filters as filters_mod
from sensebound.channels import make_channel
from sensebound.entropy import _kth_gap_1d, knn_entropy_nats, nats_to_bits
from sensebound.errors import (
    DegenerateLikelihood,
    GridOverflow,
    IncompatibleChannel,
    SingularCovariance,
)
from sensebound.filters import (
    GaussianBelief,
    GridBelief,
    GridSpec,
    ParticleBelief,
    make_initial_belief,
    moments,
    predict,
    update,
)
from sensebound.loop import RunContext, run_closed_loop
from sensebound.priors import GaussianPrior
from sensebound.report import run_csv_text
from sensebound.system import SystemModel, decompose, design_gain

H_STD_NORMAL_BITS = 0.5 * np.log2(2.0 * np.pi * np.e)  # 2.047095585180641


def centered_grid(lo, hi, cells, density_fn=None):
    """Cell-centred grid on [lo, hi]."""
    step = (hi - lo) / cells
    ax = lo + step * (np.arange(cells) + 0.5)
    dens = np.ones(cells) if density_fn is None else density_fn(ax)
    return GridBelief((ax,), dens)


class TestEntropies:
    def test_gaussian_unit(self):
        b = GaussianBelief([0.0], [[1.0]])
        assert b.entropy_bits() == pytest.approx(2.0471, abs=1e-4)
        assert b.entropy_bits() == pytest.approx(H_STD_NORMAL_BITS, abs=1e-12)

    def test_gaussian_var4_adds_one_bit(self):
        b = GaussianBelief([0.0], [[4.0]])
        assert b.entropy_bits() == pytest.approx(H_STD_NORMAL_BITS + 1.0, abs=1e-12)

    def test_uniform_grid_zero_bits(self):
        b = centered_grid(0.0, 1.0, 100)
        assert b.entropy_bits() == pytest.approx(0.0, abs=0.01)

    def test_singular_covariance(self):
        b = GaussianBelief([0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(SingularCovariance):
            b.entropy_bits()

    def test_entropy_submodule_not_shadowed(self):
        import sensebound
        import sensebound.entropy as m

        assert isinstance(m, types.ModuleType)
        assert sensebound.entropy is m

    def test_knn_estimator_on_gaussian(self):
        rng = np.random.default_rng(4)
        h = nats_to_bits(knn_entropy_nats(rng.standard_normal(10**5), k=4))
        assert h == pytest.approx(H_STD_NORMAL_BITS, abs=0.02)


class TestMoments:
    def test_two_point_particles(self):
        b = ParticleBelief(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        mu, cov, cond = moments(b)
        assert mu == pytest.approx([0.0])
        assert cov == pytest.approx(np.array([[1.0]]))
        assert cond == pytest.approx(1.0)

    def test_gaussian_exact(self):
        mu0 = np.array([1.0, -2.0])
        cov0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        mu, cov, cond = moments(GaussianBelief(mu0, cov0))
        assert mu == pytest.approx(mu0)
        assert cov == pytest.approx(cov0)
        vals = np.linalg.eigvalsh(cov0)
        assert cond == pytest.approx(vals[1] / vals[0], rel=1e-6)

    def test_grid_discretized_normal(self):
        step = 0.01
        ax = np.arange(-8.0, 8.0 + step / 2, step)
        dens = np.exp(-0.5 * ax**2) / np.sqrt(2 * np.pi)
        b = GridBelief((ax,), dens)
        mu, cov, _ = moments(b)
        assert mu == pytest.approx([0.0], abs=1e-9)
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_singular_cond_is_inf(self):
        b = ParticleBelief(np.zeros((10, 2)))  # zero spread
        assert b.cond_number() == pytest.approx(1.0)  # regularizer makes it 1
        g = GaussianBelief([0.0, 0.0], np.diag([1.0, 0.0]))
        assert g.cond_number() > 1e10


class TestPredict:
    def test_gaussian_shift_is_r_exp(self, scalar_double):
        b = GaussianBelief([0.0], [[1.7]], t=0, kind="posterior")
        p = predict(b, scalar_double, [0.0])
        assert p.mean_vec == pytest.approx([0.0])
        assert p.cov_mat == pytest.approx(np.array([[4 * 1.7]]))
        assert p.entropy_bits() - b.entropy_bits() == pytest.approx(1.0, abs=1e-12)
        assert p.t == 1 and p.kind == "predicted"

    def test_grid_shift_close_to_r_exp(self, scalar_double, unit_prior):
        b = make_initial_belief(unit_prior, "grid")
        p = predict(b, scalar_double, [0.0])
        dh = p.entropy_bits() - b.entropy_bits()
        assert dh == pytest.approx(1.0, abs=0.02)

    def test_translation_invariance(self, scalar_double):
        b = GaussianBelief([0.7], [[1.0]], kind="posterior")
        p = predict(b, scalar_double, [-2 * 0.7])
        assert p.mean_vec == pytest.approx([0.0], abs=1e-12)
        b2 = GridBelief((np.linspace(-5, 5, 401) + 0.7,), np.exp(-0.5 * np.linspace(-5, 5, 401) ** 2))
        p2 = predict(b2, scalar_double, [-2 * 0.7])
        assert p2.mean()[0] == pytest.approx(0.0, abs=1e-6)
        p3 = predict(b2, scalar_double, [0.0])
        assert p2.entropy_bits() == pytest.approx(p3.entropy_bits(), abs=1e-9)

    def test_particles_affine(self, scalar_double):
        states = np.array([[1.0], [2.0]])
        b = ParticleBelief(states, kind="posterior")
        p = predict(b, scalar_double, [0.5])
        assert p.states == pytest.approx(2 * states + 0.5)

    def test_grid_overflow(self, scalar_double, unit_prior):
        spec = GridSpec(half_width_stds=8.0, cells_per_std=24, max_cells=100)
        b = make_initial_belief(unit_prior, "grid")
        with pytest.raises(GridOverflow):
            predict(b, scalar_double, [0.0], grid_spec=spec)

    def test_2d_grid_shift(self):
        d = decompose(SystemModel(np.diag([2.0, 1.5]), np.eye(2)))
        prior = GaussianPrior([0.0, 0.0], np.diag([1.0, 0.5]))
        spec = GridSpec(half_width_stds=6.0, cells_per_std=12)
        b = make_initial_belief(prior, "grid", grid_spec=spec)
        p = predict(b, d, [0.0, 0.0], grid_spec=spec)
        dh = p.entropy_bits() - b.entropy_bits()
        assert dh == pytest.approx(np.log2(3.0), abs=0.02)


class TestUpdate:
    def test_kalman_scalar_riccati(self, unit_gaussian_channel):
        b = GaussianBelief([0.0], [[3.0]], kind="predicted")
        step = update(b, unit_gaussian_channel, [1.0])
        # oracle: p r / (p + r) and gain p / (p + r)
        assert step.belief_post.cov_mat[0, 0] == pytest.approx(0.75, abs=1e-12)
        assert step.belief_post.mean_vec[0] == pytest.approx(0.75 * 1.0, abs=1e-12)
        assert step.cmi_realized == pytest.approx(0.5 * np.log2(3.0 / 0.75), abs=1e-12)

    def test_kalman_rejects_nonlinear_channel(self):
        b = GaussianBelief([0.0], [[1.0]], kind="predicted")
        with pytest.raises(IncompatibleChannel):
            update(b, make_channel("tanh-gaussian", scale=1.0, R=[[1.0]]), [0.0])

    def test_grid_matches_kalman(self, scalar_double, unit_gaussian_channel, unit_prior):
        gb = make_initial_belief(unit_prior, "grid")
        kb = make_initial_belief(unit_prior, "kalman")
        rng = np.random.default_rng(8)
        z = np.array([0.3])
        for _ in range(10):
            y = unit_gaussian_channel.sample(z, rng)
            gs = update(gb, unit_gaussian_channel, y)
            ks = update(kb, unit_gaussian_channel, y)
            g_mu, g_cov, _ = moments(gs.belief_post)
            k_mu, k_cov, _ = moments(ks.belief_post)
            assert abs(g_mu[0] - k_mu[0]) <= 1e-3 * max(1.0, abs(k_mu[0]))
            assert g_cov[0, 0] == pytest.approx(k_cov[0, 0], rel=1e-3)
            u = [-2.0 * float(k_mu[0])]
            gb = predict(gs.belief_post, scalar_double, u)
            kb = predict(ks.belief_post, scalar_double, u)
            z = 2 * z + u

    def test_sign_halfspace(self, unit_prior):
        gb = make_initial_belief(unit_prior, "grid")
        step = update(gb, make_channel("sign-quantizer"), [1.0])
        post = step.belief_post
        mass_pos = post.masses()[post.nodes().ravel() > 0].sum()
        assert mass_pos == pytest.approx(1.0, abs=1e-12)
        assert step.cmi_channel == pytest.approx(1.0, abs=0.01)

    def test_degenerate_likelihood(self, unit_prior):
        gb = make_initial_belief(unit_prior, "grid")
        cut = update(gb, make_channel("sign-quantizer"), [1.0]).belief_post
        with pytest.raises(DegenerateLikelihood):
            update(cut, make_channel("sign-quantizer"), [-1.0])

    def test_posterior_entropy_can_rise_per_realization(self):
        # bimodal evidence can spread a tight prior: only the expectation
        # of the entropy drop is sign-constrained
        prior = GaussianPrior([0.25], [[0.04]])
        gb = make_initial_belief(prior, "grid")
        ch = make_channel("modulo-gaussian", period=1.0, r=0.01)
        step = update(gb, ch, [0.75])
        assert np.isfinite(step.cmi_realized)


class TestParticles:
    def test_reweight_matches_kalman(self, unit_prior, unit_gaussian_channel):
        pb = make_initial_belief(
            unit_prior, "particle", n_particles=2**14, rng=np.random.default_rng(7)
        )
        step = update(pb, unit_gaussian_channel, [0.5], rng=np.random.default_rng(9))
        mu, cov, _ = moments(step.belief_post)
        se = np.sqrt(0.5 / step.belief_post.ess())
        assert abs(mu[0] - 0.25) < 3 * se
        assert cov[0, 0] == pytest.approx(0.5, rel=0.05)

    def test_ess_trigger_resamples(self, unit_prior):
        pb = make_initial_belief(
            unit_prior, "particle", n_particles=1000, rng=np.random.default_rng(3)
        )
        sharp = make_channel("linear-gaussian", C=[[1.0]], R=[[1e-4]])
        step = update(pb, sharp, [0.0], rng=np.random.default_rng(4))
        assert step.resampled
        assert np.allclose(step.belief_post.weights, 1.0 / 1000)

    def test_resampling_preserves_moments(self):
        rng = np.random.default_rng(12)
        states = rng.standard_normal((10**4, 1)) * 2.0 + 1.0
        w = rng.random(10**4)
        b = ParticleBelief(states, w)
        mu0, cov0, _ = moments(b)
        resampled = ParticleBelief(b.equal_weight_states())
        mu1, cov1, _ = moments(resampled)
        assert mu1[0] == pytest.approx(mu0[0], abs=3 * 2.0 / np.sqrt(10**4))
        assert cov1[0, 0] == pytest.approx(cov0[0, 0], rel=0.05)

    def test_update_without_rng_fails_only_on_resample(self, unit_prior, unit_gaussian_channel):
        pb = make_initial_belief(
            unit_prior, "particle", n_particles=512, rng=np.random.default_rng(1)
        )
        update(pb, unit_gaussian_channel, [0.1])  # mild evidence: no resample

    def test_weights_validated(self):
        with pytest.raises(DegenerateLikelihood):
            ParticleBelief(np.zeros((4, 1)), np.zeros(4))


class TestSerialization:
    def test_json_round_shapes(self, unit_prior):
        g = GaussianBelief([0.0], [[1.0]], t=3, kind="posterior")
        d = g.to_json_dict()
        assert d["representation"] == "gaussian" and d["t"] == 3
        grid = make_initial_belief(unit_prior, "grid")
        dg = grid.to_json_dict()
        assert dg["representation"] == "grid"
        assert dg["axes"][0]["num"] == len(grid.axes[0])
        pb = make_initial_belief(unit_prior, "particle", n_particles=64,
                                 rng=np.random.default_rng(0))
        dp = pb.to_json_dict()
        assert dp["representation"] == "particles" and len(dp["states"]) == 64


def _tree_kth_gap(x, k):
    """KD-tree reference for the sorted-gap k-th neighbour distance."""
    pts = np.asarray(x, dtype=float)[:, None]
    return cKDTree(pts).query(pts, k=k + 1, p=np.inf)[0][:, k]


def _particle_ctx(horizon=8, n_particles=2048):
    model = SystemModel([[2.0]], [[1.0]])
    dec = decompose(model)
    return RunContext(
        model=model,
        decomp=dec,
        channel=make_channel("tanh-gaussian", scale=1.0, R=[[0.01]]),
        prior=GaussianPrior([0.0], [[0.04]]),
        filter_kind="particle",
        gain=design_gain(dec, method="lqr"),
        controller_mode="update",
        horizon=horizon,
        n_particles=n_particles,
    )


class TestKnnFastPath:
    @pytest.mark.parametrize("k", [1, 4, 7])
    @pytest.mark.parametrize("kind", ["gaussian", "repeated", "integer", "minimal"])
    def test_kth_gap_equals_tree(self, k, kind):
        rng = np.random.default_rng(11 + k)
        x = {
            "gaussian": lambda: rng.standard_normal(3000),
            "repeated": lambda: np.repeat(rng.standard_normal(200), 9),
            "integer": lambda: rng.integers(-5, 6, 2000).astype(float),
            "minimal": lambda: rng.standard_normal(k + 1),
        }[kind]()
        assert np.array_equal(_kth_gap_1d(x, k), _tree_kth_gap(x, k))

    def test_estimator_matches_tree_path(self, monkeypatch):
        sample = np.random.default_rng(5).standard_normal(4000) * 0.3 + 1.0
        fast = knn_entropy_nats(sample)
        monkeypatch.setattr(entropy_mod, "_kth_gap_1d", _tree_kth_gap)
        assert knn_entropy_nats(sample) == fast

    def test_2d_sample_takes_tree_path(self, monkeypatch):
        def not_for_2d(x, k):
            raise AssertionError("the sorted-gap path is 1-D only")

        monkeypatch.setattr(entropy_mod, "_kth_gap_1d", not_for_2d)
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        sample = np.random.default_rng(6).multivariate_normal([0.0, 0.0], cov, 20000)
        h = knn_entropy_nats(sample)
        assert h == pytest.approx(entropy_mod.gaussian_entropy_nats(cov), abs=0.05)

    def test_particle_run_identical_to_tree_path(self, monkeypatch):
        ctx = _particle_ctx()
        fast = run_closed_loop(ctx, master_seed=3, run_index=1)
        monkeypatch.setattr(entropy_mod, "_kth_gap_1d", _tree_kth_gap)
        ref = run_closed_loop(ctx, master_seed=3, run_index=1)
        assert fast.steps == ref.steps == ctx.horizon
        assert run_csv_text(fast, 0) == run_csv_text(ref, 0)
        assert fast.ledger.rows == ref.ledger.rows
        assert fast.ledger.terminal_h_pred == ref.ledger.terminal_h_pred

    def test_entropy_evaluated_once_per_belief(self, monkeypatch):
        calls = []

        def counting(samples, k=4):
            calls.append(len(samples))
            return knn_entropy_nats(samples, k=k)

        monkeypatch.setattr(filters_mod, "knn_entropy_nats", counting)
        ctx = _particle_ctx(horizon=6, n_particles=512)
        rec = run_closed_loop(ctx, master_seed=1, run_index=0)
        assert rec.steps == 6
        assert len(calls) == 2 * ctx.horizon + 1

    def test_jitter_drawn_once_per_shape(self):
        """The cached jitter is the fixed-seed draw every call used to make,
        shared read-only, and the estimate is unchanged by the cache."""
        sample = np.random.default_rng(8).standard_normal(3001)
        x = sample[:, None]
        fresh = np.random.default_rng(0x5EED).standard_normal(x.shape)
        scale = np.maximum(np.std(x, axis=0), 1e-4 * (1.0 + np.abs(x).max(axis=0)))
        eps = _kth_gap_1d((x + 1e-10 * scale * fresh)[:, 0], 4)
        n = x.shape[0]
        want = float(digamma(n) - digamma(4) + np.log(2.0) + np.mean(np.log(eps)))
        assert knn_entropy_nats(sample) == want
        jitter = entropy_mod._unit_jitter(x.shape)
        assert np.array_equal(jitter, fresh) and not jitter.flags.writeable
        hits = entropy_mod._unit_jitter.cache_info().hits
        assert knn_entropy_nats(sample * 2.0) != want
        assert entropy_mod._unit_jitter.cache_info().hits == hits + 1
