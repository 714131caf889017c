import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensebound.errors import (
    DimensionMismatch,
    IllConditionedTransform,
    NonConvergentEigensolve,
    NotStabilizable,
    UnstableSystemRequired,
)
from sensebound.system import (
    SystemModel,
    decompose,
    design_gain,
    expansion_rate,
    step_dynamics,
)


class TestSystemModel:
    def test_rejects_stable_without_flag(self):
        with pytest.raises(UnstableSystemRequired):
            SystemModel([[0.5]], [[1.0]])

    def test_allow_stable_flag(self):
        m = SystemModel([[0.5]], [[1.0]], allow_stable=True)
        assert m.n == 1 and m.m == 1

    def test_boundary_eigenvalue_counts_as_unstable(self):
        th = np.pi / 6
        rot = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        SystemModel(rot, np.eye(2))  # no flag needed

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            SystemModel([[2.0, 1.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            SystemModel([[2.0]], [[1.0], [0.0]])

    def test_matrices_frozen(self):
        m = SystemModel([[2.0]], [[1.0]])
        with pytest.raises(ValueError):
            m.A[0, 0] = 3.0


class TestDecompose:
    def test_diagonal(self):
        d = decompose(SystemModel(np.diag([2.0, 0.5]), np.eye(2)))
        assert d.n_u == 1
        assert d.A_u == pytest.approx(np.array([[2.0]]))
        assert d.r_exp == pytest.approx(1.0, abs=1e-12)

    def test_triangular_both_unstable(self):
        d = decompose(SystemModel([[2.0, 1.0], [0.0, 3.0]], np.eye(2)))
        assert d.n_u == 2
        assert d.r_exp == pytest.approx(np.log2(6.0), abs=1e-9)

    def test_rotation_boundary(self):
        th = np.pi / 6
        rot = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        d = decompose(SystemModel(rot, np.eye(2)))
        assert d.n_u == 2
        assert d.r_exp == pytest.approx(0.0, abs=1e-9)

    def test_block_diagonalization_with_coupling(self):
        A = np.array([[2.0, 1.0], [0.0, 0.5]])
        d = decompose(SystemModel(A, np.eye(2)))
        Az = d.T @ A @ d.T_inv
        assert abs(Az[0, 1]) < 1e-8 and abs(Az[1, 0]) < 1e-8

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            lam = np.diag([2.0, 1.4, 0.3])
            A = Q @ lam @ Q.T
            d = decompose(SystemModel(A, np.eye(3)))
            block = np.zeros((3, 3))
            block[: d.n_u, : d.n_u] = d.A_u
            block[d.n_u :, d.n_u :] = d.A_s
            assert np.abs(d.T_inv @ block @ d.T - A).max() < 1e-8

    def test_classification_exhaustive_and_det(self):
        A = np.array([[2.0, 0.3, 0.0], [0.0, 1.5, 0.2], [0.0, 0.0, 0.4]])
        d = decompose(SystemModel(A, np.eye(3)))
        unstable = [l for l in d.eigenvalues if abs(l) >= 1 - 1e-9]
        stable = [l for l in d.eigenvalues if abs(l) < 1 - 1e-9]
        assert len(unstable) == d.n_u and len(stable) == d.n - d.n_u
        det_u = abs(np.linalg.det(d.A_u))
        assert det_u == pytest.approx(np.prod([abs(l) for l in unstable]), rel=1e-9)

    def test_determinism_bitwise(self):
        A = np.array([[1.7, 0.4, -0.2], [0.1, 0.6, 0.5], [0.0, -0.3, 1.1]])
        d1 = decompose(SystemModel(A, np.eye(3)))
        d2 = decompose(SystemModel(A, np.eye(3)))
        assert d1.T.tobytes() == d2.T.tobytes()
        assert d1.A_u.tobytes() == d2.A_u.tobytes()

    @pytest.mark.parametrize("routine", ["schur", "solve_sylvester"])
    def test_factorization_failure_is_nonconvergent(self, monkeypatch, routine):
        """decompose imports scipy.linalg in its Schur branch only; a
        LinAlgError from either factorization still maps to
        NonConvergentEigensolve."""
        import scipy.linalg

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError(f"{routine} did not converge")

        monkeypatch.setattr(scipy.linalg, routine, fail)
        with pytest.raises(NonConvergentEigensolve, match=routine):
            decompose(SystemModel([[2.0, 1.0], [0.0, 0.5]], np.eye(2)))

    def test_ill_conditioned_transform(self):
        # eigenvalues straddle the unit circle with a nearly defective pair
        A = np.array([[1.0 + 1e-10, 1e6], [0.0, 0.5]])
        with pytest.raises(IllConditionedTransform):
            decompose(SystemModel(A, np.eye(2)), cond_cap=1e6)

    @given(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: abs(abs(v) - 1.0) > 0.05),
            min_size=2,
            max_size=4,
        ),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, eigs, seed):
        if not any(abs(v) >= 1.0 for v in eigs):
            eigs = eigs + [1.5]
        n = len(eigs)
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = Q @ np.diag(eigs) @ Q.T
        d = decompose(SystemModel(A, np.eye(n)))
        assert d.n_u == sum(abs(v) >= 1.0 for v in eigs)
        assert d.r_exp == pytest.approx(
            sum(np.log2(abs(v)) for v in eigs if abs(v) >= 1.0), abs=1e-8
        )
        block = np.zeros((n, n))
        block[: d.n_u, : d.n_u] = d.A_u
        block[d.n_u :, d.n_u :] = d.A_s
        assert np.abs(d.T_inv @ block @ d.T - A).max() < 1e-8


class TestExpansionRate:
    @pytest.mark.parametrize(
        "diag,expected",
        [([2.0, 0.5], 1.0), ([2.0, 3.0], np.log2(6.0)), ([1.5], np.log2(1.5))],
    )
    def test_examples(self, diag, expected):
        m = SystemModel(np.diag(diag), np.eye(len(diag)))
        assert expansion_rate(m) == pytest.approx(expected, abs=1e-12)


class TestStepDynamics:
    def test_scalar(self):
        m = SystemModel([[2.0]], [[1.0]])
        assert step_dynamics(m, [1.0], [0.0]) == pytest.approx([2.0])
        assert step_dynamics(m, [1.0], [-2.0]) == pytest.approx([0.0])

    def test_matrix(self):
        m = SystemModel([[2.0, 1.0], [0.0, 3.0]], np.eye(2))
        assert step_dynamics(m, [1.0, 1.0], [0.0, 0.0]) == pytest.approx([3.0, 3.0])

    def test_dimension_mismatch(self):
        m = SystemModel([[2.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            step_dynamics(m, [1.0, 2.0], [0.0])
        with pytest.raises(DimensionMismatch):
            step_dynamics(m, [1.0], [0.0, 0.0])


class TestDesignGain:
    def test_deadbeat_scalar(self, scalar_double):
        g = design_gain(scalar_double, method="deadbeat")
        assert g.K == pytest.approx(np.array([[-2.0]]))
        assert g.closed_loop_spectral_radius == pytest.approx(0.0, abs=1e-12)

    def test_target_pole(self, scalar_double):
        g = design_gain(scalar_double, method="deadbeat", target_pole=0.5)
        assert g.K == pytest.approx(np.array([[-1.5]]))

    def test_place_two_dim(self):
        d = decompose(SystemModel([[2.0, 1.0], [0.0, 3.0]], [[0.0], [1.0]]))
        ctrb = np.hstack([d.B_u, d.A_u @ d.B_u])
        assert np.linalg.matrix_rank(ctrb) == 2
        g = design_gain(d, method="place", poles=[0.1, 0.2])
        # oracle: direct eigenvalues of the closed loop
        eigs = np.linalg.eigvals(d.A_u + d.B_u @ g.K)
        assert sorted(np.abs(eigs)) == pytest.approx([0.1, 0.2], abs=1e-8)
        assert g.closed_loop_spectral_radius < 1.0

    def test_lqr_matches_scipy_dare(self, scalar_double):
        import scipy.linalg as sla

        g = design_gain(scalar_double, method="lqr")
        A, B = scalar_double.A_u, scalar_double.B_u
        P = sla.solve_discrete_are(A, B, np.eye(1), np.eye(1))
        K_ref = -np.linalg.solve(np.eye(1) + B.T @ P @ B, B.T @ P @ A)
        assert g.K == pytest.approx(K_ref, rel=1e-8)
        assert g.closed_loop_spectral_radius < 1.0

    def test_not_stabilizable(self):
        # second unstable mode is unreachable
        d = decompose(SystemModel(np.diag([2.0, 3.0]), [[1.0], [0.0]]))
        with pytest.raises(NotStabilizable):
            design_gain(d, method="lqr")

    def test_every_gain_is_checked(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.uniform(1.1, 3.0)
            d = decompose(SystemModel([[a]], [[1.0]]))
            g = design_gain(d, method="lqr")
            rho = np.max(np.abs(np.linalg.eigvals(d.A_u + d.B_u @ g.K)))
            assert rho < 1.0
