import dataclasses
import functools
import types

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.spatial import cKDTree
from scipy.special import digamma

import sensebound.entropy as entropy_mod
import sensebound.filters as filters_mod
from sensebound.channels import make_channel
from sensebound.entropy import _kth_gap_1d, digamma_int, knn_entropy_nats, nats_to_bits
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
from sensebound.loop import RunContext, replay_filter, run_closed_loop
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
        b = dataclasses.replace(make_initial_belief(unit_prior, "grid"), spec=spec)
        with pytest.raises(GridOverflow):
            predict(b, scalar_double, [0.0])

    def test_2d_grid_shift(self):
        d = decompose(SystemModel(np.diag([2.0, 1.5]), np.eye(2)))
        prior = GaussianPrior([0.0, 0.0], np.diag([1.0, 0.5]))
        spec = GridSpec(half_width_stds=6.0, cells_per_std=12)
        b = make_initial_belief(prior, "grid", grid_spec=spec)
        p = predict(b, d, [0.0, 0.0])
        dh = p.entropy_bits() - b.entropy_bits()
        assert dh == pytest.approx(np.log2(3.0), abs=0.02)

    SHEAR = types.SimpleNamespace(A_u=np.array([[1.5, 0.3], [0.0, 1.3]]), B_u=np.eye(2))

    @staticmethod
    def sheared_gaussian(n):
        x, y = np.linspace(-4.0, 4.5, n), np.linspace(-3.5, 3.0, n)
        X, Y = np.meshgrid(x, y, indexing="ij")
        return GridBelief((x, y), np.exp(-0.5 * (X**2 + (Y - 0.4 * X) ** 2 / 0.5)))

    @pytest.mark.parametrize("cells_per_std", [4, 12])
    def test_2d_regrid_is_the_tensor_spline(self, cells_per_std):
        """The 2-D predict is the not-a-knot tensor-product cubic spline of
        the old grid (FITPACK's interpolating RectBivariateSpline) at each
        new node's pre-image, 0 outside the old box, up to the constant
        that normalises the new grid.

        Measured with numpy 2.4 and scipy 1.17, the largest gap is 7.4e-16
        of the peak at 65 nodes per axis and 9.9e-16 at 193; the tolerance
        is 1e-13. scipy's iterative RegularGridInterpolator cubic misses by
        8.1e-6 and 8.4e-6.
        """
        spec = GridSpec(cells_per_std=cells_per_std)
        b = dataclasses.replace(self.sheared_gaussian(spec.nodes_per_axis()), spec=spec)
        shift = np.array([0.2, -0.1])
        p = predict(b, self.SHEAR, shift)
        pre = (filters_mod._grid_nodes(p.axes) - shift) @ np.linalg.inv(self.SHEAR.A_u).T
        x, y = b.axes
        inside = ((pre[:, 0] >= x[0]) & (pre[:, 0] <= x[-1])
                  & (pre[:, 1] >= y[0]) & (pre[:, 1] <= y[-1]))
        assert 0 < inside.sum() < len(pre)
        spline = RectBivariateSpline(x, y, b.density, kx=3, ky=3, s=0)
        want = np.clip(np.where(inside, spline.ev(pre[:, 0], pre[:, 1]), 0.0), 0.0, None)
        got = p.density.ravel() * (want.sum() / p.density.sum())  # both on one scale
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(b.density)

    def test_3_node_2d_grid_is_the_tensor_parabola(self):
        """Three nodes an axis take the small-grid slopes: each axis's
        spline is its parabola, so the re-grid is the tensor-product
        parabola, CubicSpline along x, then along y (measured gap 3.8e-16
        of the peak)."""
        spec = GridSpec(half_width_stds=1.0, cells_per_std=1)
        b = dataclasses.replace(self.sheared_gaussian(spec.nodes_per_axis()), spec=spec)
        p = predict(b, self.SHEAR, [0.0, 0.0])
        assert [len(a) for a in p.axes] == [3, 3]
        pre = filters_mod._grid_nodes(p.axes) @ np.linalg.inv(self.SHEAR.A_u).T
        (x, y), F = b.axes, b.density
        want = [CubicSpline(y, CubicSpline(x, F)(px))(py) for px, py in pre]
        assert np.all((pre >= [x[0], y[0]]) & (pre <= [x[-1], y[-1]]))
        got = p.density.ravel() * (np.sum(want) / p.density.sum())
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(F)


class TestUpdate:
    def test_kalman_scalar_riccati(self, unit_gaussian_channel):
        b = GaussianBelief([0.0], [[3.0]], kind="predicted")
        step = update(b, unit_gaussian_channel, [1.0])
        # oracle: p r / (p + r) and gain p / (p + r)
        assert step.belief_post.cov_mat[0, 0] == pytest.approx(0.75, abs=1e-12)
        assert step.belief_post.mean_vec[0] == pytest.approx(0.75 * 1.0, abs=1e-12)
        assert step.h_pred - step.h_post == pytest.approx(0.5 * np.log2(3.0 / 0.75), abs=1e-12)

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

    def test_2d_grid_matches_kalman(self):
        """A coupled 2x2 plant seen through C = I, R = 0.25 I: over 12
        recorded steps the 2-D grid posterior stays on the Kalman oracle.

        Measured with numpy 2.4 and scipy 1.17 at 12 cells per std, the
        largest gaps at master seed 0 were 5.1e-6 bits in h_post, 3.8e-6
        sigma in the mean and 4.5e-6 of the largest covariance entry; each
        tolerance is about 4x that. Seed 1 gives about the same; seed 2
        reaches 2.0e-5, because its second observation lies 2-3 predicted
        stds out, and there the posterior rests on the predicted tail,
        where the cubic's relative error on a 12-cell-per-std grid is
        largest. The re-grid itself is the exact tensor spline, so the gaps
        are the grid's own discretisation.
        """
        model = SystemModel([[1.5, 0.3], [0.0, 1.3]], np.eye(2))
        dec = decompose(model)
        ctx = RunContext(
            model=model, decomp=dec,
            channel=make_channel("linear-gaussian", C=np.eye(2), R=0.25 * np.eye(2)),
            prior=GaussianPrior([0.0, 0.0], np.eye(2)), filter_kind="kalman",
            gain=design_gain(dec, method="lqr"), horizon=12,
        )
        rec = run_closed_loop(ctx, master_seed=0, run_index=0)
        assert rec.steps == 12
        replay = functools.partial(replay_filter, dec, ctx.channel, ctx.prior, us=rec.u, ys=rec.y)
        grid = replay(filter_kind="grid", grid_spec=GridSpec(cells_per_std=12))
        oracle = replay(filter_kind="kalman")
        for g, k in zip(grid, oracle, strict=True):
            g_mu, g_cov, _ = moments(g.belief_post)
            k_mu, k_cov, _ = moments(k.belief_post)
            assert abs(g.h_post - k.h_post) <= 2e-5
            assert np.max(np.abs(g_mu - k_mu) / np.sqrt(np.diag(k_cov))) <= 1.5e-5
            assert np.max(np.abs(g_cov - k_cov)) <= 1.8e-5 * np.max(np.abs(k_cov))

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
        assert np.isfinite(step.h_pred - step.h_post)


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


GRID_JSON_KEYS = {"representation", "t", "kind", "axes", "density"}


class TestGridSpecOnTheBelief:
    """A grid belief carries its `GridSpec`: every belief made from it keeps
    the spec, and each predict re-grids by it."""

    SPEC = GridSpec(half_width_stds=5.0, cells_per_std=6, max_cells=10**4)

    def test_scalar_grid_keeps_its_spec(self, scalar_double, unit_prior):
        b = make_initial_belief(unit_prior, "grid", grid_spec=self.SPEC)
        assert b.spec == self.SPEC
        post = update(b, make_channel("sign-quantizer"), [1.0]).belief_post
        pred = predict(post, scalar_double, [-1.0])
        for belief in (post, pred):
            assert belief.spec == self.SPEC
            assert len(belief.axes[0]) == self.SPEC.nodes_per_axis()
        assert set(pred.to_json_dict()) == GRID_JSON_KEYS

    def test_2d_grid_keeps_its_spec(self):
        d = decompose(SystemModel(np.diag([2.0, 1.5]), np.eye(2)))
        prior = GaussianPrior([0.0, 0.0], np.diag([1.0, 0.5]))
        b = make_initial_belief(prior, "grid", grid_spec=self.SPEC)
        ch = make_channel("linear-gaussian", C=np.eye(2), R=np.eye(2))
        post = update(b, ch, [0.3, -0.2]).belief_post
        pred = predict(post, d, [0.0, 0.0])
        for belief in (b, post, pred):
            assert belief.spec == self.SPEC
            assert [len(a) for a in belief.axes] == [self.SPEC.nodes_per_axis()] * 2
        assert set(pred.to_json_dict()) == GRID_JSON_KEYS

    def test_grid_rows_keep_their_spec(self, scalar_double, unit_prior):
        b = make_initial_belief(unit_prior, "grid", grid_spec=self.SPEC)
        rows = b.tiled(3)
        post = update(rows, make_channel("sign-quantizer"), [[1.0], [-1.0], [1.0]]).belief_post
        pred = predict(post, scalar_double, [[-1.0], [1.0], [0.0]])
        kept = pred.take(np.array([True, False, True]))
        for belief in (rows, post, pred, kept):
            assert belief.spec == self.SPEC
            assert belief.axes[0].shape[1] == self.SPEC.nodes_per_axis()
        assert kept.batch == (2,)
        assert [set(d) for d in kept.to_json_dict()] == [GRID_JSON_KEYS] * 2

    def test_default_spec(self, unit_prior):
        b = make_initial_belief(unit_prior, "grid")
        assert b.spec == GridSpec()
        assert b.tiled(2).spec == GridSpec()


def _tree_kth_gap(x, k, order=None):
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


def _assert_same_run(rec, ref, horizon):
    """Two complete runs with the same CSV and the same ledger, bit for bit."""
    assert rec.steps == ref.steps == horizon
    assert run_csv_text(rec, 0) == run_csv_text(ref, 0)
    for col in ("h_pred", "h_post", "cmi", "di_cum"):
        assert getattr(rec.ledger, col) == getattr(ref.ledger, col), col
    assert rec.ledger.terminal_h_pred == ref.ledger.terminal_h_pred


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
        def not_for_2d(x, k, order=None):
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
        _assert_same_run(fast, ref, ctx.horizon)

    def test_entropy_evaluated_once_per_belief(self, monkeypatch):
        calls = []

        def counting(samples, k=4, **hint):
            calls.append(len(samples))
            return knn_entropy_nats(samples, k=k, **hint)

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

    @pytest.mark.parametrize("k", [0, -1, 2.5, True, "4", None])
    @pytest.mark.parametrize("d", [1, 2])
    def test_k_checked_up_front(self, k, d):
        """Only an integer k with 1 <= k < n is accepted, in any dimension."""
        sample = np.random.default_rng(9).standard_normal((50, d))
        with pytest.raises(ValueError, match="k="):
            knn_entropy_nats(sample, k=k)

    @pytest.mark.parametrize("d", [1, 2])
    def test_k_below_sample_count(self, d):
        sample = np.random.default_rng(10).standard_normal((5, d))
        with pytest.raises(ValueError, match="k=5"):
            knn_entropy_nats(sample, k=5)
        assert knn_entropy_nats(sample, k=np.int64(4)) == knn_entropy_nats(sample, k=4)


def _bits(h):
    return np.float64(h).tobytes()


class TestKnnOrderHint:
    """A permutation hint is used when it sorts the jittered sample and
    changes no bit of the estimate; any other hint falls back to argsort."""

    N = 4001

    def sample(self):
        return np.random.default_rng(12).standard_normal(self.N) * 0.7 - 0.2

    @pytest.mark.parametrize("kind", ["stale", "shuffled", "reversed", "short"])
    def test_unsorting_hint_falls_back(self, kind):
        x = self.sample()
        want, order = knn_entropy_nats(x, return_order=True)
        rng = np.random.default_rng(13)
        hint = {
            "stale": lambda: knn_entropy_nats(rng.standard_normal(self.N), return_order=True)[1],
            "shuffled": lambda: rng.permutation(self.N),
            "reversed": lambda: order[::-1],
            "short": lambda: order[:-1],
        }[kind]()
        h, used = knn_entropy_nats(x, order=hint, return_order=True)
        assert _bits(h) == _bits(want)
        assert used is not hint and np.array_equal(used, order)

    def test_sorting_hint_is_used(self):
        x = self.sample()
        want, order = knn_entropy_nats(x, return_order=True)
        h, used = knn_entropy_nats(x, order=order, return_order=True)
        assert _bits(h) == _bits(want) and used is order
        assert knn_entropy_nats(x, order=order) == want

    def test_pushed_sample_keeps_the_order(self):
        """An increasing affine map keeps the jittered sample's order here,
        so the hint is used, with the bits of a fresh sort."""
        x = self.sample()
        _, order = knn_entropy_nats(x, return_order=True)
        y = x * 2.0 + 0.25
        want = knn_entropy_nats(y)
        h, used = knn_entropy_nats(y, order=order, return_order=True)
        assert _bits(h) == _bits(want) and used is order

    def test_ties_in_another_order(self, monkeypatch):
        """Without the jitter, tied values stay tied; a hint that orders
        them otherwise than argsort is used and gives argsort's bits."""
        monkeypatch.setattr(entropy_mod, "_unit_jitter", lambda shape: np.zeros(shape))
        rng = np.random.default_rng(14)
        x = np.repeat(rng.standard_normal(self.N // 3), 3)[rng.permutation(self.N // 3 * 3)]
        want, order = knn_entropy_nats(x, return_order=True)
        hint = np.lexsort((rng.random(x.size), x))  # by value, ties at random
        assert not np.array_equal(hint, order)
        assert np.array_equal(x[hint], x[order])
        h, used = knn_entropy_nats(x, order=hint, return_order=True)
        assert _bits(h) == _bits(want) and used is hint
        assert _kth_gap_1d(x, 4, hint).tobytes() == _kth_gap_1d(x, 4).tobytes()

    def test_nan_sample_falls_back(self):
        x = self.sample()
        x[17] = np.nan
        want, order = knn_entropy_nats(x, return_order=True)
        assert np.isnan(want)
        for hint in (order, np.arange(self.N)):
            h, used = knn_entropy_nats(x, order=hint, return_order=True)
            assert _bits(h) == _bits(want)
            assert used is not hint and np.array_equal(used, order)

    def test_2d_sample_ignores_the_hint(self):
        x = np.random.default_rng(15).standard_normal((500, 2))
        h, used = knn_entropy_nats(x, order=np.arange(500), return_order=True)
        assert used is None and _bits(h) == _bits(knn_entropy_nats(x))

    @pytest.mark.parametrize("n_particles", [1024, 2**14])
    def test_run_identical_without_handover(self, monkeypatch, n_particles):
        ctx = _particle_ctx(horizon=10, n_particles=n_particles)
        hinted = run_closed_loop(ctx, master_seed=6, run_index=1)
        real = ParticleBelief._pushed

        def no_handover(self, A, shift):
            pushed = real(self, A, shift)
            pushed.__dict__.pop("_knn_order", None)
            return pushed

        monkeypatch.setattr(ParticleBelief, "_pushed", no_handover)
        ref = run_closed_loop(ctx, master_seed=6, run_index=1)
        _assert_same_run(hinted, ref, ctx.horizon)

    def test_one_sort_per_posterior_cloud(self, monkeypatch):
        """A run sorts the initial cloud and each posterior; a predicted
        belief reuses its posterior's order unless the push did not hand it
        on or the hint no longer sorts (a fallback, rare under a = 2)."""
        sorts = []
        real_argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            sorts.append(1)
            return real_argsort(*args, **kwargs)

        evals = []  # (hinted, argsorts in the call) per estimate
        real_knn = filters_mod.knn_entropy_nats

        def counting_knn(samples, k=4, order=None, return_order=False):
            before = len(sorts)
            out = real_knn(samples, k=k, order=order, return_order=return_order)
            evals.append((order is not None, len(sorts) - before))
            return out

        handed = []
        real_push = ParticleBelief._pushed

        def watched_push(self, A, shift):
            pushed = real_push(self, A, shift)
            handed.append(pushed.__dict__.get("_knn_order") is not None)
            return pushed

        monkeypatch.setattr(np, "argsort", counting_argsort)
        monkeypatch.setattr(filters_mod, "knn_entropy_nats", counting_knn)
        monkeypatch.setattr(ParticleBelief, "_pushed", watched_push)
        ctx = _particle_ctx(horizon=12, n_particles=1024)
        rec = run_closed_loop(ctx, master_seed=7, run_index=3)
        T = ctx.horizon
        assert rec.steps == T and len(evals) == 2 * T + 1 and len(handed) == T
        assert all(n == 1 for hinted, n in evals if not hinted)
        assert all(n in (0, 1) for hinted, n in evals if hinted)
        # the hinted estimates are exactly the predictions that got an order
        assert sum(hinted for hinted, _ in evals) == sum(handed)
        fallbacks = sum(n for hinted, n in evals if hinted)
        assert fallbacks <= 1 and sum(handed) >= T - 1
        assert len(sorts) == 1 + T + (T - sum(handed)) + fallbacks

    def test_one_equal_weight_resample_per_particle_count(self, monkeypatch):
        filters_mod._equal_weight_indices.cache_clear()
        calls = TestEqualWeightIndices.count_calls(monkeypatch)
        for n_particles, run_index in ((1024, 0), (512, 0), (1024, 1), (512, 1)):
            ctx = _particle_ctx(horizon=8, n_particles=n_particles)
            assert run_closed_loop(ctx, master_seed=9, run_index=run_index).steps == 8
        for n in (1024, 512):
            assert calls.count(np.full(n, 1.0 / n).tobytes()) == 1
        idx = filters_mod._equal_weight_indices(512)
        assert not idx.flags.writeable
        assert np.array_equal(idx, filters_mod._systematic_indices(np.full(512, 1 / 512), 0.5))


class TestDigammaInt:
    """The integer digamma behind the kNN estimate is scipy's, bit for bit."""

    @staticmethod
    def assert_bit_equal(ns):
        got = np.array([digamma_int(int(n)) for n in ns])
        want = digamma(np.asarray(ns, dtype=float))
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, [(int(ns[i]), got[i], want[i]) for i in bad[:5]]

    def test_harmonic_branch(self):
        self.assert_bit_equal(np.arange(1, 11))

    def test_series_branch_to_1e5(self):
        self.assert_bit_equal(np.arange(11, 10**5 + 1))

    def test_seeded_large_integers(self):
        ns = np.random.default_rng(20261019).integers(1, 2**40, 20000, endpoint=True)
        self.assert_bit_equal(ns)


class TestEqualWeightIndices:
    """`equal_weight_states` resamples once per weight vector on a lineage:
    its indices are memoised, and a push keeps the weights and hands them to
    the predicted belief."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        real = filters_mod._systematic_indices

        def counting(weights, offset):
            if offset == 0.5:
                calls.append(weights.tobytes())
            return real(weights, offset)

        monkeypatch.setattr(filters_mod, "_systematic_indices", counting)
        return calls

    @staticmethod
    def fresh_indices(b):
        return filters_mod._systematic_indices(b.weights, 0.5)

    def test_run_identical_without_handover(self, monkeypatch):
        ctx = _particle_ctx(horizon=10, n_particles=1024)
        cached = run_closed_loop(ctx, master_seed=5, run_index=2)
        real = ParticleBelief._pushed

        def no_handover(self, A, shift):
            pushed = real(self, A, shift)
            pushed.__dict__.pop("_ew_idx", None)
            return pushed

        monkeypatch.setattr(ParticleBelief, "_pushed", no_handover)
        ref = run_closed_loop(ctx, master_seed=5, run_index=2)
        _assert_same_run(cached, ref, ctx.horizon)

    def test_once_per_weight_vector(self, monkeypatch):
        """Dyadic weights that sum to exactly 1 keep their bits through
        renormalisation: pushes share their posterior's resample, and a new
        weight vector starts one new resample."""
        calls = self.count_calls(monkeypatch)
        rng = np.random.default_rng(21)
        d = rng.integers(-7, 8, 512)
        w = rng.permutation(8 + np.concatenate([d, -d])) / 2**13
        dec = _particle_ctx().decomp
        chain = []
        for weights in (w, w[::-1]):
            b = ParticleBelief(rng.standard_normal((1024, 1)), weights)
            assert np.array_equal(b.weights, weights)
            chain.append(b)
            for _ in range(3):
                chain[-1].entropy_bits()
                chain.append(predict(chain[-1], dec, [0.1]))
            chain[-1].entropy_bits()
        assert calls == [w.tobytes(), w[::-1].tobytes()]
        for b in chain:
            assert np.array_equal(b.equal_weight_states(), b.states[self.fresh_indices(b)])

    def test_moved_bits_recompute(self, monkeypatch):
        """Weights that renormalising would move: a push keeps them, bit for
        bit, and shares their resample; a belief built from them again has
        moved weights and resamples anew."""
        calls = self.count_calls(monkeypatch)
        dec = _particle_ctx().decomp
        for seed in range(100):
            rng = np.random.default_rng(seed)
            b = ParticleBelief(rng.standard_normal((1000, 1)), rng.random(1000))
            if not np.array_equal(b.weights / b.weights.sum(), b.weights):
                break
        else:
            pytest.fail("no seed whose weights move under renormalisation")
        b.entropy_bits()
        pushed = predict(b, dec, [0.0])
        assert pushed.weights is b.weights
        pushed.entropy_bits()
        rebuilt = ParticleBelief(pushed.states, pushed.weights)
        assert not np.array_equal(rebuilt.weights, b.weights)
        rebuilt.entropy_bits()
        assert len(calls) == 2 and calls[0] != calls[1]
        for c in (pushed, rebuilt):
            assert np.array_equal(c.equal_weight_states(), c.states[self.fresh_indices(c)])

    def test_run_resamples_once_per_handover_lineage(self, monkeypatch):
        """In a closed-loop run every push keeps its posterior's weights, so
        an entropy evaluation resamples only for a weighted posterior, besides
        the one equal-weight cache of the particle count. In run 1 of seed 5
        a posterior's weights move when renormalised."""
        filters_mod._equal_weight_indices.cache_clear()
        calls = self.count_calls(monkeypatch)
        kept, resampled = [], []
        pushed_from, conditioned = ParticleBelief._pushed, ParticleBelief._conditioned

        def watched_push(self, A, shift):
            pushed = pushed_from(self, A, shift)
            kept.append(np.array_equal(pushed.weights, self.weights))
            return pushed

        def watched_update(self, ch, y, rng):
            post, flag = conditioned(self, ch, y, rng)
            resampled.append(flag)
            return post, flag

        monkeypatch.setattr(ParticleBelief, "_pushed", watched_push)
        monkeypatch.setattr(ParticleBelief, "_conditioned", watched_update)
        ctx = _particle_ctx(horizon=10, n_particles=1024)
        rec = run_closed_loop(ctx, master_seed=5, run_index=1)
        assert rec.steps == ctx.horizon and len(kept) == len(resampled) == ctx.horizon
        assert all(kept) and 0 < sum(resampled) < ctx.horizon
        # the equal-weight cache of 1024 particles and each weighted posterior
        assert len(calls) == 1 + (ctx.horizon - sum(resampled))
        assert calls.count(np.full(1024, 1 / 1024).tobytes()) == 1


class TestGaussianPriorDraws:
    @pytest.mark.parametrize("mean, cov", [
        ([0.3], [[2.5]]),
        ([0.1, -1.0, 2.0], [[1.0, 0.3, 0.1], [0.3, 2.0, -0.4], [0.1, -0.4, 0.7]]),
    ], ids=["1-D", "3-D"])
    @pytest.mark.parametrize("size", [None, 2**14])
    def test_bit_equal_to_numpy(self, mean, cov, size):
        """The covariance is factored once, and the draws are still
        rng.multivariate_normal's, bit for bit."""
        prior = GaussianPrior(mean, cov)
        for seed in range(50):
            got = prior.sample(np.random.default_rng(seed), size=size)
            want = np.random.default_rng(seed).multivariate_normal(mean, cov, size=size)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed
