"""Generalized symmetric eigenproblem solver and Lebesgue quadrature assembly.

The pencil (A, G) is reduced to an ordinary symmetric problem by whitening
G through its eigendecomposition, which doubles as the rank check: epsilon
is a rank threshold, not a regularization that drops directions.
Both solves work on the scaled Grams of :class:`GramSet` and unscale once:
nodes by 2^e_f (or 2^e_g), amplitudes by 2^(e_w / 2), alpha by 2^(-e_w / 2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ConfigurationError, InputDataError
from .moments import GramSet, _halved_sum

DEFAULT_EPSILON = 1e-12

_AMPLITUDE_TOL = 1e-12


@dataclass(frozen=True)
class EigenSolution:
    """G-orthonormal eigenvectors of A alpha = lambda G alpha, by ascending node."""

    alpha: np.ndarray  # column i: its coefficients over T_k (as grams), whatever the family
    gram_condition: float  # cond(G), by which the whitening amplifies rounding
    # for a solution from lebesgue_quadrature_in_f_basis: the f solution it
    # was solved in, and column i over its eigenfunctions, the projection S
    # between the two eigenbases
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
        return len(self.nodes)


def _reduced_eigh(Y: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetric operator Y^T A Y, which must be finite.

    Y = U s^-1/2 has entries up to s_min^-1/2, s_min being G's smallest
    kept eigenvalue, above epsilon lambda_max(G) >= epsilon / 2 for a scaled
    G. So Y^T A Y of a scaled A stays finite unless epsilon is below about
    1e-290, where it can overflow: InputDataError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        M = _halved_sum(Y.T @ A @ Y)
    if not np.isfinite(M).all():
        raise InputDataError("operator overflows in the Gram eigenbasis: sample values too large")
    return np.linalg.eigh(M)


def _quadrature(grams: GramSet, e: int, lam: np.ndarray, amplitudes: np.ndarray,
                solution: EigenSolution) -> LebesgueQuadrature:
    """The quadrature of nodes lam 2^e, lam those of the process scaled by
    2^-e; InputDataError if a node, the sum of the weights or the total
    measure rounds past the float maximum."""
    with np.errstate(over="ignore"):
        nodes = np.ldexp(lam, e)
        weights = amplitudes * amplitudes
        weight_sum = weights.sum()  # finite only if every weight is
    if not np.isfinite(nodes).all():
        raise InputDataError("nodes past the float maximum: sample values too large")
    if not (np.isfinite(weight_sum) and np.isfinite(grams.total_measure)):
        raise InputDataError("weights past the float maximum: sample values too large")
    return LebesgueQuadrature(nodes=nodes, weights=weights,
                              amplitudes=amplitudes, eigensolution=solution, grams=grams)


def _signed_reduction(Y: np.ndarray, A: np.ndarray, m: np.ndarray):
    """Eigenpairs of A in the G-orthonormal basis Y: (eigenvalues, alpha = Y B,
    B, amplitudes alpha^T m), each column signed so that its amplitude is
    non-negative. A column of (numerically) zero amplitude makes its first
    nonzero Chebyshev coefficient positive.
    """
    lam, B = _reduced_eigh(Y, A)
    alpha = Y @ B
    nonzero = np.abs(alpha) > _AMPLITUDE_TOL * np.maximum(np.abs(alpha).max(axis=0), 1.0)
    first = alpha[nonzero.argmax(axis=0), np.arange(alpha.shape[1])]
    signs = np.where(nonzero.any(axis=0) & (first < 0), -1.0, 1.0)
    amplitudes = alpha.T @ m
    tol = _AMPLITUDE_TOL * np.sqrt(m[0])
    signs = np.where(np.abs(amplitudes) > tol, np.sign(amplitudes), signs)
    amplitudes *= signs
    alpha *= signs
    B *= signs
    return lam, alpha, B, amplitudes


def lebesgue_quadrature(grams: GramSet, *, epsilon: float = DEFAULT_EPSILON) -> LebesgueQuadrature:
    """Lebesgue quadrature of f, the process of ``grams.A_f``: nodes, weights,
    amplitudes. G is eigendecomposed; an eigenvalue at or below
    epsilon * lambda_max(G) makes the pencil rank-deficient
    (ConditioningError), and no direction is dropped. A node, weight or total
    measure past the float maximum is an InputDataError.
    ``epsilon`` must lie in [0, 1). Eigenvectors are signed by the moment
    vector so that amplitudes come out non-negative."""
    if not 0 <= epsilon < 1:  # also rejects nan
        raise ConfigurationError(f"epsilon must be in [0, 1), got {epsilon}")
    e_w, e_f, _ = grams.exponents
    s, U = np.linalg.eigh(grams.G)
    rank = int(np.count_nonzero(s > epsilon * s[-1]))
    if rank < grams.n:
        raise ConditioningError(
            f"Gram matrix rank-deficient for order {grams.n}", effective_rank=rank
        )
    lam, alpha, _, amplitudes = _signed_reduction(U / np.sqrt(s), grams.A_f, grams.m)
    return _quadrature(grams, e_f, lam, np.ldexp(amplitudes, e_w // 2),
                       EigenSolution(np.ldexp(alpha, -e_w // 2), float(s[-1]) / float(s[0])))


def lebesgue_quadrature_in_f_basis(quad_f: LebesgueQuadrature) -> LebesgueQuadrature:
    """Quadrature of g, solved on ``quad_f.grams`` in the f-eigenbasis, where
    the pencil has unit right-hand side. Its solution keeps the eigenvectors
    over the f-eigenfunctions, S, as ``in_f_basis`` and quad_f's solution as
    ``f_solution``; the amplitudes are S^T a_f. Its sign rule sees scaled
    amplitudes, as the f solve's does. A g quadrature as quad_f: InputDataError."""
    if quad_f.eigensolution.f_solution is not None:
        raise InputDataError("quad_f is a g quadrature, solved in an f-eigenbasis")
    grams = quad_f.grams
    if grams.A_g is None:
        raise ConfigurationError("samples carried no g column")
    e_w, _, e_g = grams.exponents
    lam, alpha_g, S, _ = _signed_reduction(np.ldexp(quad_f.eigensolution.alpha, e_w // 2),
                                           grams.A_g, grams.m)
    sol = EigenSolution(np.ldexp(alpha_g, -e_w // 2), quad_f.eigensolution.gram_condition,
                        f_solution=quad_f.eigensolution, in_f_basis=S)
    return _quadrature(grams, e_g, lam, S.T @ quad_f.amplitudes, sol)
