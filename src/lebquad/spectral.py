"""Generalized symmetric eigenproblem solver and Lebesgue quadrature assembly.

The pencil (A, G) is reduced to an ordinary symmetric problem by whitening
G through its eigendecomposition, which doubles as the rank check: epsilon
is a rank threshold, not a regularization that drops directions.
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

    eigenvalues: np.ndarray  # ascending
    alpha: np.ndarray  # column i is the coefficient vector over Q_k
    # for a solution from solve_in_f_basis: the f solution it was solved in,
    # and column i over its eigenfunctions, the projection S between the two
    # eigenbases
    f_solution: EigenSolution | None = None
    in_f_basis: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.alpha.shape[1]


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


def _halved_sum(M: np.ndarray) -> np.ndarray:
    # 0.5 M + 0.5 M^T: the same bits as 0.5 (M + M^T) above the subnormal
    # range, as halving is exact there, but finite wherever M is
    return 0.5 * M + 0.5 * M.T


def symmetrized(M, name: str) -> np.ndarray:
    """(M + M^T) / 2 of a square M that is symmetric to within 1e-10 of its
    largest entry; InputDataError otherwise. It is finite wherever M is; NaN
    in M is the caller's to report."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputDataError(f"{name} must be square, got shape {M.shape}")
    scale = np.abs(M).max() or 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if np.abs(M - M.T).max() > 1e-10 * scale:
            raise InputDataError(f"{name} is not symmetric")
        return _halved_sum(M)


def _reduced_eigh(Y: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetric operator Y^T A Y, which must be finite.

    Y = U s^-1/2 has entries up to s_min^-1/2, s_min being G's smallest
    eigenvalue, so Y^T A can overflow for a finite A. A is scaled by 2^-e
    first, 2^e being within a factor 4 of max|A| max|Y|, so that the entries
    of Y^T A stay below 2n and those of Y^T A Y below 2n^2 max|Y|; the
    eigenvalues are scaled back by 2^e. Powers of two scale exactly, and e
    is even so that the square roots in eigh do too. Eigenvalues that round
    past the float maximum still overflow.
    """
    e = np.frexp(np.abs(A).max())[1] + np.frexp(np.abs(Y).max())[1]
    e -= e % 2
    with np.errstate(over="ignore", invalid="ignore"):
        M = _halved_sum(Y.T @ np.ldexp(A, -e) @ Y)
    if np.isfinite(M).all():
        lam, B = np.linalg.eigh(M)
        with np.errstate(over="ignore"):  # eigenvalues rounded past the float maximum
            lam = np.ldexp(lam, e)
        if np.isfinite(lam).all():
            return lam, B
    raise InputDataError("operator overflows in the Gram eigenbasis: sample values too large")


def _signed_reduction(Y: np.ndarray, A: np.ndarray, m: np.ndarray | None, total: float | None):
    """Eigenpairs of A in the G-orthonormal basis Y: (eigenvalues, alpha = Y B,
    B, amplitudes alpha^T m or None without m), each column signed so that its
    amplitude is non-negative. A column of (numerically) zero amplitude, and
    every column without m, makes its first nonzero coefficient positive.
    """
    lam, B = _reduced_eigh(Y, A)
    alpha = Y @ B
    nonzero = np.abs(alpha) > _AMPLITUDE_TOL * np.maximum(np.abs(alpha).max(axis=0), 1.0)
    first = alpha[nonzero.argmax(axis=0), np.arange(alpha.shape[1])]
    signs = np.where(nonzero.any(axis=0) & (first < 0), -1.0, 1.0)
    amplitudes = None
    if m is not None:
        amplitudes = alpha.T @ m
        tol = _AMPLITUDE_TOL * np.sqrt(total) if total is not None else 0.0
        signs = np.where(np.abs(amplitudes) > tol, np.sign(amplitudes), signs)
        amplitudes *= signs
    alpha *= signs
    B *= signs
    return lam, alpha, B, amplitudes


def _solve_pencil(A, G, epsilon: float, m: np.ndarray | None, total: float | None):
    """solve_generalized's checks and whitening, then the signed reduction."""
    if not 0 <= epsilon < 1:  # also rejects nan
        raise ConfigurationError(f"epsilon must be in [0, 1), got {epsilon}")
    A = symmetrized(A, "A")
    G = symmetrized(G, "G")
    if A.shape != G.shape:
        raise InputDataError(f"shape mismatch: A {A.shape} vs G {G.shape}")
    n = A.shape[0]
    s, U = np.linalg.eigh(G)
    rank = int(np.count_nonzero(s > epsilon * s[-1]))
    if rank < n:
        raise ConditioningError(
            f"Gram matrix rank-deficient for order {n}", effective_rank=rank
        )
    return _signed_reduction(U / np.sqrt(s), A, m, total)


def solve_generalized(
    A: np.ndarray,
    G: np.ndarray,
    *,
    epsilon: float = DEFAULT_EPSILON,
    moment_vector: np.ndarray | None = None,
    total_measure: float | None = None,
) -> EigenSolution:
    """Solve A alpha = lambda G alpha for a symmetric pencil with PSD G.

    G is eigendecomposed; an eigenvalue at or below epsilon * lambda_max(G)
    makes the pencil rank-deficient (ConditioningError), and no direction is
    dropped. ``moment_vector`` (the <Q_k> vector) fixes eigenvector signs
    so amplitudes come out non-negative. ``epsilon`` must lie in [0, 1).
    """
    lam, alpha, _, _ = _solve_pencil(A, G, epsilon, moment_vector, total_measure)
    return EigenSolution(eigenvalues=lam, alpha=alpha)


def lebesgue_quadrature(
    grams: GramSet, which: str = "f", *, epsilon: float = DEFAULT_EPSILON
) -> LebesgueQuadrature:
    """Lebesgue quadrature of one process: nodes, weights, amplitudes."""
    lam, alpha, _, amplitudes = _solve_pencil(
        grams.operator(which), grams.G, epsilon, grams.m, grams.total_measure)
    return LebesgueQuadrature(nodes=lam, weights=amplitudes * amplitudes, amplitudes=amplitudes,
                              eigensolution=EigenSolution(lam, alpha), grams=grams)


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
    lam, alpha_g, beta, _ = _signed_reduction(alpha_f, A_g, grams.m, grams.total_measure)
    return EigenSolution(eigenvalues=lam, alpha=alpha_g,
                         f_solution=quad_f.eigensolution, in_f_basis=beta)


def lebesgue_quadrature_in_f_basis(grams: GramSet, quad_f: LebesgueQuadrature) -> LebesgueQuadrature:
    """Quadrature of g computed through the f-eigenbasis shortcut; its
    amplitudes are S^T a_f, S being the solution's ``in_f_basis``."""
    sol = solve_in_f_basis(grams, quad_f)
    amplitudes = sol.in_f_basis.T @ quad_f.amplitudes
    return LebesgueQuadrature(nodes=sol.eigenvalues, weights=amplitudes * amplitudes,
                              amplitudes=amplitudes, eigensolution=sol, grams=grams)
