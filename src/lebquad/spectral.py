"""Generalized symmetric eigenproblem solver and Lebesgue quadrature assembly.

The pencil (A, G) is reduced to an ordinary symmetric problem by whitening
G through its eigendecomposition, which doubles as the regularization step
for nearly rank-deficient measures.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ConfigurationError, InputDataError
from .moments import GramSet

DEFAULT_EPSILON = 1e-12

_AMPLITUDE_TOL = 1e-12


@dataclass(frozen=True)
class EigenSolution:
    """Eigenpairs of A alpha = lambda G alpha with G-orthonormal columns."""

    n: int
    eigenvalues: np.ndarray  # ascending
    alpha: np.ndarray  # column i is the coefficient vector over Q_k
    effective_rank: int
    # for a solution from solve_in_f_basis: the f solution it was solved in,
    # and column i over its eigenfunctions, the projection S between the two
    # eigenbases
    f_solution: EigenSolution | None = None
    in_f_basis: np.ndarray | None = None


@dataclass(frozen=True)
class LebesgueQuadrature:
    """Value-nodes, weights and signed amplitudes of one process.

    Nodes are the pencil eigenvalues, amplitudes are the integrals of the
    eigenfunctions against the measure, weights are squared amplitudes.
    """

    nodes: np.ndarray
    weights: np.ndarray
    amplitudes: np.ndarray
    eigensolution: EigenSolution
    grams: GramSet

    @property
    def n(self) -> int:
        return self.eigensolution.n


def symmetrized(M, name: str) -> np.ndarray:
    """0.5 (M + M^T) of a square M that is symmetric to within 1e-10 of its
    largest entry; InputDataError otherwise. A non-finite result (NaN in M,
    or an overflowing sum) is the caller's to report."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputDataError(f"{name} must be square, got shape {M.shape}")
    scale = np.abs(M).max() or 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if np.abs(M - M.T).max() > 1e-10 * scale:
            raise InputDataError(f"{name} is not symmetric")
        return 0.5 * (M + M.T)


def _reduced_eigh(Y: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetric operator Y^T A Y, which must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = Y.T @ A @ Y
        M = 0.5 * (M + M.T)
    if not np.isfinite(M).all():
        raise InputDataError("operator overflows in the Gram eigenbasis: sample values too large")
    return np.linalg.eigh(M)


def _signs(alpha: np.ndarray, m: np.ndarray | None, total: float | None) -> np.ndarray:
    """Column signs (+1 or -1) that make the amplitudes alpha^T m non-negative.

    Columns with (numerically) zero amplitude fall back to making the first
    nonzero coefficient positive, keeping the output deterministic.
    """
    signs = np.ones(alpha.shape[1])
    tol = _AMPLITUDE_TOL * np.sqrt(total) if total is not None else 0.0
    for i in range(alpha.shape[1]):
        col = alpha[:, i]
        a = float(col @ m) if m is not None else 0.0
        if m is not None and abs(a) > tol:
            if a < 0:
                signs[i] = -1.0
        else:
            nz = np.flatnonzero(np.abs(col) > _AMPLITUDE_TOL * max(np.abs(col).max(), 1.0))
            if nz.size and col[nz[0]] < 0:
                signs[i] = -1.0
    return signs


def solve_generalized(
    A: np.ndarray,
    G: np.ndarray,
    *,
    epsilon: float = DEFAULT_EPSILON,
    moment_vector: np.ndarray | None = None,
    total_measure: float | None = None,
) -> EigenSolution:
    """Solve A alpha = lambda G alpha for a symmetric pencil with PSD G.

    G is eigendecomposed and directions below epsilon * lambda_max(G) are
    dropped; if fewer than n directions survive the pencil is declared
    rank-deficient. ``moment_vector`` (the <Q_k> vector) fixes eigenvector
    signs so amplitudes come out non-negative. ``epsilon`` must lie in [0, 1).
    """
    if not 0 <= epsilon < 1:  # also rejects nan
        raise ConfigurationError(f"epsilon must be in [0, 1), got {epsilon}")
    A = symmetrized(A, "A")
    G = symmetrized(G, "G")
    if A.shape != G.shape:
        raise InputDataError(f"shape mismatch: A {A.shape} vs G {G.shape}")
    n = A.shape[0]
    s, U = np.linalg.eigh(G)
    s_max = s[-1]
    if s_max <= 0:
        raise ConditioningError("Gram matrix has no positive spectrum", effective_rank=0)
    keep = s > epsilon * s_max
    rank = int(keep.sum())
    if rank < n:
        raise ConditioningError(
            f"Gram matrix rank-deficient for order {n}", effective_rank=rank
        )
    Y = U[:, keep] / np.sqrt(s[keep])
    lam, B = _reduced_eigh(Y, A)
    alpha = Y @ B
    alpha *= _signs(alpha, moment_vector, total_measure)
    return EigenSolution(n=n, eigenvalues=lam, alpha=alpha, effective_rank=rank)


def _quadrature_from_solution(grams: GramSet, sol: EigenSolution,
                              amplitudes: np.ndarray) -> LebesgueQuadrature:
    return LebesgueQuadrature(
        nodes=sol.eigenvalues,
        weights=amplitudes * amplitudes,
        amplitudes=amplitudes,
        eigensolution=sol,
        grams=grams,
    )


def lebesgue_quadrature(
    grams: GramSet, which: str = "f", *, epsilon: float = DEFAULT_EPSILON
) -> LebesgueQuadrature:
    """Lebesgue quadrature of one process: nodes, weights, amplitudes."""
    A = grams.operator(which)
    sol = solve_generalized(
        A, grams.G, epsilon=epsilon,
        moment_vector=grams.m, total_measure=grams.total_measure,
    )
    return _quadrature_from_solution(grams, sol, sol.alpha.T @ grams.m)


def solve_in_f_basis(grams: GramSet, quad_f: LebesgueQuadrature) -> EigenSolution:
    """Solve the g-problem in the f-eigenbasis, where the pencil has unit
    right-hand side, then back-transform coefficients to the Q-basis.

    The eigenvectors over the f-eigenfunctions are kept as ``in_f_basis``,
    and quad_f's solution as ``f_solution``.
    """
    A_g = grams.operator("g")
    alpha_f = quad_f.eigensolution.alpha
    if alpha_f.shape[0] != A_g.shape[0]:
        raise InputDataError(
            f"dimension mismatch: f-eigenbasis is {alpha_f.shape[0]}, "
            f"operator is {A_g.shape[0]}"
        )
    lam, beta = _reduced_eigh(alpha_f, A_g)
    alpha_g = alpha_f @ beta
    signs = _signs(alpha_g, grams.m, grams.total_measure)
    return EigenSolution(
        n=grams.n, eigenvalues=lam, alpha=alpha_g * signs,
        effective_rank=quad_f.eigensolution.effective_rank,
        f_solution=quad_f.eigensolution, in_f_basis=beta * signs,
    )


def lebesgue_quadrature_in_f_basis(grams: GramSet, quad_f: LebesgueQuadrature) -> LebesgueQuadrature:
    """Quadrature of g computed through the f-eigenbasis shortcut; its
    amplitudes are S^T a_f, S being the solution's ``in_f_basis``."""
    sol = solve_in_f_basis(grams, quad_f)
    return _quadrature_from_solution(grams, sol, sol.in_f_basis.T @ quad_f.amplitudes)
