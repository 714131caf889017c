import numpy as np
import pytest

from conftest import fd_hessian_1d
from sensebound.audits import _window_verdict, audit_assumption1
from sensebound.channels import LinearGaussianChannel, make_channel
from sensebound.errors import UnsupportedDerivative

C2_CHANNELS = {
    "linear-gaussian": dict(C=[[1.0]], R=[[1.0]]),
    "tanh-gaussian": dict(scale=1.0, R=[[1.0]]),
    "cubic-gaussian": dict(R=[[1.0]]),
    "modulo-gaussian": dict(period=1.0, r=0.04),
}


def loglik(ch, y, x) -> float:
    """log p(y | x) in nats of one state x, through `log_density_batch`."""
    return float(ch.log_density_batch(y, np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0])


class TestSampling:
    def test_linear_gaussian_unbiased(self):
        ch = make_channel("linear-gaussian", C=[[1.0]], R=[[1.0]])
        rng = np.random.default_rng(0)
        n = 10**5
        draws = np.array([ch.sample([0.0], rng)[0] for _ in range(n)])
        assert abs(draws.mean()) < 4.0 / np.sqrt(n)
        assert draws.var() == pytest.approx(1.0, rel=0.05)

    def test_sign_deterministic(self):
        ch = make_channel("sign-quantizer")
        rng = np.random.default_rng(0)
        assert ch.sample([3.2], rng) == pytest.approx([1.0])
        assert ch.sample([-0.1], rng) == pytest.approx([-1.0])

    def test_modulo_concentrates(self):
        ch = make_channel("modulo-gaussian", period=1.0, r=1e-6)
        rng = np.random.default_rng(1)
        ys = np.array([ch.sample([2.3], rng)[0] for _ in range(200)])
        assert np.all(np.abs(ys - 0.3) < 0.01)

    def test_sample_deterministic_given_rng_state(self):
        ch = make_channel("tanh-gaussian", scale=1.0, R=[[1.0]])
        y1 = ch.sample([0.4], np.random.default_rng(5))
        y2 = ch.sample([0.4], np.random.default_rng(5))
        assert y1 == pytest.approx(y2)


class TestLogLikelihood:
    def test_linear_gaussian_hessian_constant(self):
        ch = make_channel("linear-gaussian", C=[[1.0]], R=[[1.0]])
        for y, x in [(0.0, 0.0), (1.3, -0.4), (-2.0, 3.0)]:
            assert ch.hessian([y], [x]) == pytest.approx(np.array([[-1.0]]), abs=1e-12)

    def test_tanh_hessian_at_origin(self):
        ch = make_channel("tanh-gaussian", scale=1.0, R=[[1.0]])
        H = ch.hessian([0.0], [0.0])
        fd = fd_hessian_1d(lambda x: loglik(ch, [0.0], x), 0.0)
        assert H[0, 0] == pytest.approx(-1.0, abs=1e-9)
        assert H[0, 0] == pytest.approx(fd, abs=1e-6)

    def test_sign_rejects_derivatives(self):
        ch = make_channel("sign-quantizer")
        with pytest.raises(UnsupportedDerivative):
            ch.hessian([1.0], [0.5])
        assert loglik(ch, [1.0], [0.5]) == 0.0

    def test_sign_pmf(self):
        ch = make_channel("sign-quantizer")
        assert loglik(ch, [-1.0], [0.5]) == -np.inf

    @pytest.mark.parametrize("kind", sorted(C2_CHANNELS))
    def test_derivative_consistency(self, kind):
        """The closed-form Hessian vs central differences of
        `log_density_batch` on 100 random (x, y) pairs."""
        ch = make_channel(kind, **C2_CHANNELS[kind])
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=1)
            y = ch.sample(x, rng)
            H = ch.hessian(y, x)
            h_fd = fd_hessian_1d(lambda xx: loglik(ch, y, xx), x[0], h=1e-4)
            assert abs(H[0, 0] - h_fd) / max(1.0, abs(H[0, 0])) < 1e-4

    @pytest.mark.parametrize("kind", sorted(C2_CHANNELS))
    def test_normalization(self, kind):
        """Numerically integrated density over y equals 1 for fixed x."""
        ch = make_channel(kind, **C2_CHANNELS[kind])
        for x in (-1.3, 0.0, 0.7):
            if kind == "modulo-gaussian":
                ys = np.linspace(0.0, ch.period, 4001)[:-1]
            else:
                center = {
                    "linear-gaussian": x,
                    "tanh-gaussian": np.tanh(x),
                    "cubic-gaussian": x**3,
                }[kind]
                ys = np.linspace(center - 8.0, center + 8.0, 4001)
            dens = np.array([np.exp(loglik(ch, [y], x)) for y in ys])
            mass = np.trapezoid(dens, ys) if kind != "modulo-gaussian" else dens.mean() * ch.period
            assert mass == pytest.approx(1.0, abs=1e-4)

    def test_log_concavity_classification(self):
        # linear: nonpositive curvature everywhere
        lg = make_channel("linear-gaussian", C=[[1.0]], R=[[1.0]])
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.uniform(-3.0, 3.0, size=1)
            y = rng.uniform(-4.0, 4.0, size=1)
            assert lg.hessian(y, x)[0, 0] <= 1e-12
        # tanh: nonpositive on the documented region |scale*x| <= 0.5,
        # residual within 0.4 of the mean response
        tg = make_channel("tanh-gaussian", scale=1.0, R=[[0.01]])
        for _ in range(200):
            x = rng.uniform(-0.5, 0.5, size=1)
            y = np.tanh(x) + rng.uniform(-0.4, 0.4, size=1)
            assert tg.hessian(y, x)[0, 0] <= 1e-12
        # modulo: a positive-curvature witness exists
        mg = make_channel("modulo-gaussian", period=1.0, r=0.04)
        found = False
        for x in np.linspace(0.0, 1.0, 21):
            for y in np.linspace(0.0, 1.0, 21):
                if mg.hessian([y], [x])[0, 0] > 0:
                    found = True
        assert found

    def test_hessian_symmetric(self):
        ch = make_channel("tanh-gaussian", scale=0.7, R=np.diag([1.0, 0.5]))
        H = ch.hessian([0.3, -0.2], [0.5, 0.1])
        assert np.abs(H - H.T).max() < 1e-10


class TestPulledBackHessian:
    """The assumption-1 window sum: each step's Hessian, taken at its
    recorded state, pulled back to the window's last step t by
    A_u^-(t-k)."""

    def test_one_step(self, scalar_double):
        v = _window_verdict(scalar_double, [np.array([[-1.0]]), np.zeros((1, 1))], L=2)
        assert v.witness_eigs == pytest.approx((-0.25,), abs=1e-12)

    def test_identity(self, scalar_double):
        v = _window_verdict(scalar_double, [np.array([[-1.0]])], L=1)
        assert v.witness_eigs == pytest.approx((-1.0,), abs=1e-12)

    def test_window_sum(self, scalar_double, unit_gaussian_channel):
        zs, ys = np.array([[0.5], [1.0]]), [np.array([0.0])] * 2
        v = audit_assumption1(unit_gaussian_channel, scalar_double, zs, ys, L=2)
        assert v.witness_t == 1
        assert v.witness_eigs == pytest.approx((-1.25,), abs=1e-12)

    def test_window_sum_matches_joint_fd(self, scalar_double):
        """Cross-check against a finite-difference Hessian of the joint
        log-likelihood of the window, as a function of z_t."""
        ch = make_channel("tanh-gaussian", scale=1.0, R=[[1.0]])
        rng = np.random.default_rng(2)
        us = [np.array([0.3]), np.array([-0.1])]
        z0 = np.array([0.4])
        zs = [z0]
        for u in us:
            zs.append(scalar_double.A_u @ zs[-1] + scalar_double.B_u @ u)
        ys = [ch.sample(z, rng) for z in zs]
        t = 2

        def joint(z_t):
            total = 0.0
            z = np.atleast_1d(z_t)
            hist = [None, None, z]
            for j in (1, 0):
                z = np.linalg.inv(scalar_double.A_u) @ (z - scalar_double.B_u @ us[j])
                hist[j] = z
            for k in range(3):
                total += loglik(ch, ys[k], hist[k])
            return total

        v = audit_assumption1(ch, scalar_double, np.array(zs), ys, L=3)
        fd = fd_hessian_1d(joint, float(zs[t][0]), h=1e-4)
        assert v.witness_t == t
        assert v.witness_eigs[0] == pytest.approx(fd, rel=1e-4)

    def test_non_smooth_rejected(self, scalar_double):
        ch = make_channel("sign-quantizer")
        with pytest.raises(UnsupportedDerivative):
            audit_assumption1(ch, scalar_double, np.array([[1.0]]), [np.array([1.0])], L=1)


class TestNoiseScale:
    def test_scaling(self):
        ch = make_channel("linear-gaussian", C=[[1.0]], R=[[2.0]])
        assert ch.with_noise_scale(0.5).R == pytest.approx(np.array([[1.0]]))
        tg = make_channel("tanh-gaussian", scale=1.0, R=[[1.0]])
        assert tg.with_noise_scale(0.25).R == pytest.approx(np.array([[0.25]]))

    def test_step_channel(self):
        """Without a schedule every step's channel is the channel itself;
        with one, step t's noise is R * gamma**t and the step's channel has
        no schedule of its own."""
        plain = make_channel("tanh-gaussian", scale=1.0, R=[[2.0]])
        assert plain.gamma is None and plain.at(0) is plain and plain.at(7) is plain
        ch = make_channel("tanh-gaussian", scale=1.0, R=[[2.0]], gamma=0.5)
        for t in range(4):
            assert ch.at(t).R.tobytes() == (ch.R * 0.5**t).tobytes()
            assert ch.at(t).gamma is None and ch.at(t).scale == ch.scale
        mg = make_channel("modulo-gaussian", period=1.0, r=0.04, gamma=0.9)
        assert mg.at(3).r == 0.04 * 0.9**3 and mg.at(3).gamma is None
        assert make_channel("cubic-gaussian", R=[[1.0]], gamma=1).at(5).R[0, 0] == 1.0

    def test_gamma_from_the_constructor_scales_as_before(self):
        """Step t's channel of `LinearGaussianChannel(..., gamma=0.5)` has the
        bits of the unscheduled channel scaled by 0.5**t: its R, and the
        observation and log-likelihood it gives."""
        ch = LinearGaussianChannel([[1.0]], [[1.3]], gamma=0.5)
        base = LinearGaussianChannel([[1.0]], [[1.3]])
        assert type(ch.gamma) is float and ch.gamma == 0.5
        X = np.linspace(-2.0, 2.0, 9)[:, None]
        W = np.linspace(-1.5, 1.5, 9)[:, None]
        for t in range(60):
            got, want = ch.at(t), base.with_noise_scale(0.5**t)
            assert got.R.tobytes() == want.R.tobytes()
            assert got.observe(X, W).tobytes() == want.observe(X, W).tobytes()
            assert (got.log_density_batch([0.3], X).tobytes()
                    == want.log_density_batch([0.3], X).tobytes())

    @pytest.mark.parametrize("kind", ["tanh-gaussian", "modulo-gaussian"])
    @pytest.mark.parametrize("gamma", [0, -0.5, 1.5, float("nan"), float("inf")])
    def test_gamma_outside_the_unit_interval_is_refused(self, kind, gamma):
        with pytest.raises(ValueError, match="gamma"):
            make_channel(kind, **C2_CHANNELS[kind], gamma=gamma)
