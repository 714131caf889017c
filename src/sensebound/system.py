"""Plant model, stable/unstable mode separation, and stabilizing gains.

The plant is x_{t+1} = A x_t + B u_t with no process noise. The mode
separation puts every eigenvalue of magnitude >= 1 (boundary included)
into the leading block of an ordered real Schur form and then removes the
off-diagonal coupling exactly with a Sylvester solve, so T A T^{-1} is
block-diagonal(A_u, A_s). This keeps det(A_u), and with it the expansion
rate, identical to the Jordan-based separation while staying numerically
well-posed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditionedTransform,
    NonConvergentEigensolve,
    NotStabilizable,
    RiccatiDivergence,
    UnstableSystemRequired,
)

# |lambda| within this distance of 1 counts as unstable.
BOUNDARY_TOL = 1e-9

COND_CAP = 1e8  # decompose refuses a mode transform T with a larger cond(T)
_LQR_MAX_ITER, _LQR_TOL = 10_000, 1e-12  # the regulator's Riccati step budget and tolerance


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SystemModel:
    """Plant matrices A (n x n) and B (n x m)."""

    A: np.ndarray
    B: np.ndarray
    allow_stable: bool = False

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatch(
                f"B must have {A.shape[0]} rows, got shape {B.shape}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise DimensionMismatch("A and B must be finite")
        mags = np.abs(np.linalg.eigvals(A))
        if not self.allow_stable and not np.any(mags >= 1.0 - BOUNDARY_TOL):
            raise UnstableSystemRequired(
                "all eigenvalues of A are strictly inside the unit circle; "
                "set allow_stable = true in [system] for baseline runs on stable plants"
            )
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ModeDecomposition:
    """Similarity transform separating expanding and contracting modes.

    z = T x with T A T^{-1} = blockdiag(A_u, A_s); the leading n_u
    coordinates of z are the unstable modes. r_exp is in bits/step.
    """

    T: np.ndarray
    T_inv: np.ndarray
    A_u: np.ndarray
    A_s: np.ndarray
    B_u: np.ndarray
    B_s: np.ndarray
    n_u: int
    eigenvalues: tuple
    r_exp: float

    @property
    def n(self) -> int:
        return self.T.shape[0]

    def from_modes(self, z: np.ndarray) -> np.ndarray:
        return self.T_inv @ np.asarray(z, dtype=float)


@dataclass(frozen=True)
class FeedbackGain:
    """Static gain K acting on the unstable modes: u = K z_u."""

    K: np.ndarray
    closed_loop_spectral_radius: float = field(default=None)

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        object.__setattr__(self, "K", _freeze(K))


def _sorted_eigs(A: np.ndarray) -> tuple:
    lam = np.linalg.eigvals(A)
    order = np.lexsort((lam.imag, lam.real, -np.abs(lam)))
    return tuple(complex(v) for v in lam[order])


def _is_unstable(lam: complex) -> bool:
    return abs(lam) >= 1.0 - BOUNDARY_TOL


def decompose(model: SystemModel) -> ModeDecomposition:
    """Separate the plant into unstable and stable mode blocks.

    Exactly diagonal A takes a permutation fast path; everything else goes
    through an ordered real Schur factorization (unstable block leading)
    followed by a Sylvester decoupling of the off-diagonal block. Raises
    IllConditionedTransform when cond(T) exceeds COND_CAP.
    """
    A, B = model.A, model.B
    n = model.n
    eigs = _sorted_eigs(A)
    r_exp = float(sum(np.log2(abs(lam)) for lam in eigs if _is_unstable(lam)))

    if np.count_nonzero(A - np.diag(np.diagonal(A))) == 0:
        # Diagonal plant: reorder coordinates so unstable entries lead.
        diag = np.diagonal(A)
        order = sorted(range(n), key=lambda i: (not _is_unstable(diag[i]), -abs(diag[i])))
        T = np.eye(n)[order, :]
        n_u = sum(_is_unstable(d) for d in diag)
        Az = T @ A @ T.T
        Bz = T @ B
        return _assemble(T, T.T, Az, Bz, n_u, eigs, r_exp)

    import scipy.linalg as sla  # here, not at the top: no diagonal plant needs it

    try:
        S, Z, n_u = sla.schur(
            A,
            output="real",
            sort=lambda re, im: np.hypot(re, im) >= 1.0 - BOUNDARY_TOL,
        )
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NonConvergentEigensolve(f"Schur factorization failed: {exc}") from exc
    n_u = int(n_u)

    T = Z.T.copy()
    if 0 < n_u < n:
        # Remove the Schur coupling block exactly: with S = [[Au, C], [0, As]],
        # U = [[I, -X], [0, I]] and Au X - X As = -C, U S U^{-1} is block diagonal.
        Au = S[:n_u, :n_u]
        As = S[n_u:, n_u:]
        C = S[:n_u, n_u:]
        try:
            X = sla.solve_sylvester(Au, -As, -C)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NonConvergentEigensolve(f"Sylvester decoupling failed: {exc}") from exc
        U = np.eye(n)
        U[:n_u, n_u:] = -X
        T = U @ Z.T

    cond = float(np.linalg.cond(T))
    if not np.isfinite(cond) or cond > COND_CAP:
        raise IllConditionedTransform(f"cond(T) = {cond:.3e} exceeds cap {COND_CAP:.3e}")
    T_inv = np.linalg.inv(T)
    Az = T @ A @ T_inv
    Bz = T @ B
    return _assemble(T, T_inv, Az, Bz, n_u, eigs, r_exp)


def _assemble(T, T_inv, Az, Bz, n_u, eigs, r_exp) -> ModeDecomposition:
    n = T.shape[0]
    A_u = Az[:n_u, :n_u]
    A_s = Az[n_u:, n_u:]
    B_u = Bz[:n_u, :]
    B_s = Bz[n_u:, :]
    if n_u > 0:
        det_u = abs(np.linalg.det(A_u))
        if abs(np.log2(det_u) - r_exp) > 1e-6:
            raise NonConvergentEigensolve(
                f"log2|det(A_u)| = {np.log2(det_u):.12f} disagrees with "
                f"eigenvalue sum {r_exp:.12f}"
            )
    return ModeDecomposition(
        T=_freeze(T),
        T_inv=_freeze(T_inv),
        A_u=_freeze(A_u),
        A_s=_freeze(A_s),
        B_u=_freeze(B_u),
        B_s=_freeze(B_s),
        n_u=int(n_u),
        eigenvalues=eigs,
        r_exp=r_exp,
    )


def expansion_rate(model: SystemModel) -> float:
    """Bits/step generated by the expanding modes: sum log2|lambda_i|, |lambda_i| >= 1."""
    return decompose(model).r_exp


def controllability_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def _lqr_gain(A, B, /, q=None, r=None):
    """Fixed-point Riccati iteration; identity weights by default."""
    Q = np.eye(A.shape[0]) if q is None else np.atleast_2d(np.asarray(q, dtype=float))
    R = np.eye(B.shape[1]) if r is None else np.atleast_2d(np.asarray(r, dtype=float))
    P = Q.copy()
    for _ in range(_LQR_MAX_ITER):
        BtP = B.T @ P
        gain = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ (A - B @ gain)
        P_next = 0.5 * (P_next + P_next.T)
        if np.max(np.abs(P_next - P)) <= _LQR_TOL * max(1.0, np.max(np.abs(P_next))):
            P = P_next
            break
        P = P_next
    else:
        raise RiccatiDivergence(
            f"regulator iteration did not converge in {_LQR_MAX_ITER} iterations"
        )
    BtP = B.T @ P
    return -np.linalg.solve(R + BtP @ B, BtP @ A)


def _deadbeat_gain(A, B, /, target_pole=0.0):
    """Scalar plants only: places the pole at target_pole."""
    if A.shape[0] != 1 or B.shape[1] != 1:
        raise NotStabilizable("deadbeat design is provided for scalar plants only")
    a = float(A[0, 0])
    b = float(B[0, 0])
    if b == 0.0:
        raise NotStabilizable("scalar control gain b is zero")
    return np.array([[(target_pole - a) / b]])


def _place_gain(A, B, /, poles):
    """An explicit pole list, via scipy."""
    import scipy.signal  # here, like every scipy import: only this design needs it

    return -scipy.signal.place_poles(A, B, np.asarray(poles, dtype=float)).gain_matrix


# The gain designs. A design's config keys are its parameters after (A, B).
GAIN_DESIGNS = {"lqr": _lqr_gain, "deadbeat": _deadbeat_gain, "place": _place_gain}


def design_gain(decomp: ModeDecomposition, method: str = "lqr", **params) -> FeedbackGain:
    """Design K with rho(A_u + B_u K) < 1 for the unstable pair, by the
    GAIN_DESIGNS entry `method` with keyword `params`."""
    A = np.asarray(decomp.A_u, dtype=float)
    B = np.asarray(decomp.B_u, dtype=float)
    n_u = decomp.n_u
    if n_u == 0:
        return FeedbackGain(K=np.zeros((decomp.B_s.shape[1], 0)), closed_loop_spectral_radius=0.0)
    ctrb = controllability_matrix(A, B)
    if np.linalg.matrix_rank(ctrb) < n_u:
        raise NotStabilizable(
            f"controllability matrix of the unstable pair has rank "
            f"{np.linalg.matrix_rank(ctrb)} < {n_u}"
        )
    if method not in GAIN_DESIGNS:
        raise ValueError(f"unknown gain design method {method!r}")
    K = GAIN_DESIGNS[method](A, B, **params)

    rho = float(np.max(np.abs(np.linalg.eigvals(A + B @ K))))
    if rho >= 1.0:
        raise NotStabilizable(f"designed gain leaves spectral radius {rho:.6f} >= 1")
    return FeedbackGain(K=K, closed_loop_spectral_radius=rho)
