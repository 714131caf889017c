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
import scipy.linalg as sla
import scipy.signal

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

DEFAULT_COND_CAP = 1e8


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
                "pass allow_stable=True for baseline runs on stable plants"
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

    def split(self, z: np.ndarray):
        """Split a transformed state into (unstable, stable) parts."""
        z = np.asarray(z, dtype=float)
        return z[: self.n_u], z[self.n_u :]

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


def decompose(model: SystemModel, cond_cap: float = DEFAULT_COND_CAP) -> ModeDecomposition:
    """Separate the plant into unstable and stable mode blocks.

    Exactly diagonal A takes a permutation fast path; everything else goes
    through an ordered real Schur factorization (unstable block leading)
    followed by a Sylvester decoupling of the off-diagonal block. Raises
    IllConditionedTransform when cond(T) exceeds cond_cap.
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

    try:
        S, Z, n_u = sla.schur(
            A,
            output="real",
            sort=lambda re, im: np.hypot(re, im) >= 1.0 - BOUNDARY_TOL,
        )
    except (sla.LinAlgError, np.linalg.LinAlgError, ValueError) as exc:
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
        except (sla.LinAlgError, ValueError) as exc:
            raise NonConvergentEigensolve(f"Sylvester decoupling failed: {exc}") from exc
        U = np.eye(n)
        U[:n_u, n_u:] = -X
        T = U @ Z.T

    cond = float(np.linalg.cond(T))
    if not np.isfinite(cond) or cond > cond_cap:
        raise IllConditionedTransform(
            f"cond(T) = {cond:.3e} exceeds cap {cond_cap:.3e}"
        )
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


def step_dynamics(model: SystemModel, x, u) -> np.ndarray:
    """One exact step of x_{t+1} = A x_t + B u_t."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x.shape[0] != model.n:
        raise DimensionMismatch(f"state has length {x.shape[0]}, expected {model.n}")
    if u.shape[0] != model.m:
        raise DimensionMismatch(f"control has length {u.shape[0]}, expected {model.m}")
    return model.A @ x + model.B @ u


def controllability_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def design_gain(
    decomp: ModeDecomposition,
    method: str = "lqr",
    q=None,
    r=None,
    poles=None,
    target_pole: float = 0.0,
    max_iter: int = 10_000,
    tol: float = 1e-12,
) -> FeedbackGain:
    """Design K with rho(A_u + B_u K) < 1 for the unstable pair.

    Methods: "lqr" (fixed-point Riccati iteration, identity weights by
    default), "deadbeat" (scalar plants only, places the pole at
    target_pole), "place" (explicit pole list via scipy).
    """
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

    if method == "deadbeat":
        if n_u != 1 or B.shape[1] != 1:
            raise NotStabilizable("deadbeat design is provided for scalar plants only")
        a = float(A[0, 0])
        b = float(B[0, 0])
        if b == 0.0:
            raise NotStabilizable("scalar control gain b is zero")
        K = np.array([[(target_pole - a) / b]])
    elif method == "place":
        if poles is None:
            raise ValueError("method='place' needs an explicit pole list")
        placed = scipy.signal.place_poles(A, B, np.asarray(poles, dtype=float))
        K = -placed.gain_matrix
    elif method == "lqr":
        Q = np.eye(n_u) if q is None else np.atleast_2d(np.asarray(q, dtype=float))
        R = np.eye(B.shape[1]) if r is None else np.atleast_2d(np.asarray(r, dtype=float))
        P = Q.copy()
        for _ in range(max_iter):
            BtP = B.T @ P
            gain = np.linalg.solve(R + BtP @ B, BtP @ A)
            P_next = Q + A.T @ P @ (A - B @ gain)
            P_next = 0.5 * (P_next + P_next.T)
            if np.max(np.abs(P_next - P)) <= tol * max(1.0, np.max(np.abs(P_next))):
                P = P_next
                break
            P = P_next
        else:
            raise RiccatiDivergence(
                f"regulator iteration did not converge in {max_iter} iterations"
            )
        BtP = B.T @ P
        K = -np.linalg.solve(R + BtP @ B, BtP @ A)
    else:
        raise ValueError(f"unknown gain design method {method!r}")

    rho = float(np.max(np.abs(np.linalg.eigvals(A + B @ K))))
    if rho >= 1.0:
        raise NotStabilizable(f"designed gain leaves spectral radius {rho:.6f} >= 1")
    return FeedbackGain(K=K, closed_loop_spectral_radius=rho)
