"""Joint distribution estimators built from two Lebesgue quadratures.

The projection matrix S between the f- and g-eigenbases carries all the
joint information. The density-matrix correlation S_ij (R S)_ij is the one
estimator: the value correlation is its case rho = |1><1|, the probability
correlation its case rho = I, and the squared correlation ((R S)_ij)^2 is
formed from the same R S.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputDataError
from .spectral import LebesgueQuadrature

_ORTHO_TOL = 1e-8

VALUE = "value"
PROBABILITY = "probability"
DENSITY = "density"
PURE_SQUARED = "pure_squared"
KINDS = (VALUE, PROBABILITY, DENSITY, PURE_SQUARED)


@dataclass(frozen=True)
class DensityMatrix:
    """A density operator R = Psi diag(lambda) Psi^T, held as ``values`` lambda
    (r,) and ``vectors`` Psi (n x r) over the f-eigenfunctions, None for Psi = I.
    Symmetric by construction; a non-finite R is reported by the correlations."""

    values: np.ndarray
    vectors: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.values, dtype=float)
        psi = None if self.vectors is None else np.asarray(self.vectors, dtype=float)
        if lam.ndim != 1 or lam.size == 0 or psi is not None and psi.shape[1:] != lam.shape:
            raise InputDataError(f"density factors need r >= 1 values and n x r vectors, got "
                                 f"shapes {lam.shape} and {None if psi is None else psi.shape}")
        object.__setattr__(self, "values", lam)
        object.__setattr__(self, "vectors", psi)

    @property
    def spur(self) -> float:
        """trace R = sum_k lambda_k |psi_k|^2."""
        sq = 1.0 if self.vectors is None else (self.vectors * self.vectors).sum(axis=0)
        return float((self.values * sq).sum())

    @property
    def n(self) -> int:
        return len(self.values if self.vectors is None else self.vectors)


@dataclass(frozen=True)
class JointDistributionMatrix:
    """An n x n joint weight matrix with its expected normalization.

    W, its normalization and its total must be finite. Rows follow the f
    quadrature's nodes and columns the g quadrature's.
    """

    kind: str
    W: np.ndarray
    normalization: float

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            finite = np.isfinite(self.W).all() and math.isfinite(self.residual)
        if not finite:
            raise InputDataError(
                f"{self.kind} correlation is not finite: NaN in rho, "
                f"or rho or sample values too large"
            )

    @property
    def total(self) -> float:
        return float(self.W.sum())

    @property
    def residual(self) -> float:
        """|sum(W) - normalization| relative to the normalization scale."""
        scale = abs(self.normalization) or 1.0
        return abs(self.total - self.normalization) / scale

    @property
    def has_negative_entries(self) -> bool:
        return bool((self.W < 0).any())


def projection(quad_f: LebesgueQuadrature, quad_g: LebesgueQuadrature) -> np.ndarray:
    """S, the g-eigenvectors over the f-eigenfunctions, as
    lebesgue_quadrature_in_f_basis found them; equal to alpha_f^T G alpha_g
    in exact arithmetic. Both eigenbases are orthonormal bases of the same
    span, so S is orthogonal.

    quad_g must have been solved in quad_f's own eigenbasis."""
    if quad_g.eigensolution.f_solution is not quad_f.eigensolution:
        raise InputDataError("the g quadrature was not solved in this f-eigenbasis")
    return quad_g.eigensolution.in_f_basis


def density_from_pure_unit(quad_f: LebesgueQuadrature) -> DensityMatrix:
    """Rank-1 density |1><1| in the f-eigenbasis: one vector, the amplitudes."""
    return DensityMatrix(np.ones(1), quad_f.amplitudes[:, None])


def density_identity(n: int) -> DensityMatrix:
    if n < 1:
        raise InputDataError(f"order must be >= 1, got {n}")
    return DensityMatrix(np.ones(n))


def density_from_spectral(eigenvalues, vectors) -> DensityMatrix:
    """Density operator from n values and n orthonormal column vectors over the f-eigenbasis."""
    rho = DensityMatrix(eigenvalues, np.asarray(vectors, dtype=float))
    psi = rho.vectors
    if psi.shape[0] != psi.shape[1]:
        raise InputDataError(f"spectral form needs an n x n vector matrix, got {psi.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf fails here, NaN in the correlations
        if np.abs(psi.T @ psi - np.eye(len(psi))).max() > _ORTHO_TOL:
            raise InputDataError("spectral vectors are not orthonormal")
    return rho


def _correlation(kind: str, S: np.ndarray, rho: DensityMatrix,
                 normalization: float | None = None) -> JointDistributionMatrix:
    """The one joint estimator: W = S_ij (R S)_ij, or ((R S)_ij)^2 for the
    squared kind, R S formed from rho's factors as Psi (lambda o (Psi^T S)),
    O(r n^2) for rank r, or as lambda o S when Psi is I. The normalization
    defaults to spur rho, and for the squared kind to W's own total."""
    if rho.n != len(S):
        raise InputDataError(f"dimension mismatch: rho is {rho.n}, projection is {len(S)}")
    lam, psi = rho.values[:, None], rho.vectors
    with np.errstate(over="ignore", invalid="ignore"):  # reported by JointDistributionMatrix
        RS = lam * S if psi is None else psi @ (lam * (psi.T @ S))
        W = RS * RS if kind == PURE_SQUARED else S * RS
        if normalization is None:
            normalization = float(W.sum()) if kind == PURE_SQUARED else rho.spur
    return JointDistributionMatrix(kind=kind, W=W, normalization=normalization)


def value_correlation(quad_f: LebesgueQuadrature, S: np.ndarray) -> JointDistributionMatrix:
    """Signed measure of (f ~ f_i) and (g ~ g_j) sets; exact marginals.

    V is the density-matrix correlation at rho = |1><1|, normalized to the
    total measure; g enters only through S's columns, its eigenvectors."""
    return _correlation(VALUE, S, density_from_pure_unit(quad_f), quad_f.grams.total_measure)


def probability_correlation(S: np.ndarray) -> JointDistributionMatrix:
    """Doubly stochastic matrix S_ij^2: the density-matrix correlation at
    rho = I, normalized to the order n, its spur."""
    return _correlation(PROBABILITY, S, density_identity(len(S)))


def density_matrix_correlation(S: np.ndarray, rho: DensityMatrix) -> JointDistributionMatrix:
    """General correlation S_ij * (R S)_ij, normalized to the spur of rho."""
    return _correlation(DENSITY, S, rho)


def pure_squared_correlation(S: np.ndarray, rho: DensityMatrix) -> JointDistributionMatrix:
    """Squared correlation ((R S)_ij)^2, normalized to its own total;
    factorizes for rank-1 rho."""
    return _correlation(PURE_SQUARED, S, rho)


def pureness_estimate(S: np.ndarray, rho: DensityMatrix) -> float:
    """Frobenius distance between the unit-normalized squared correlation and
    the product of its marginals; zero exactly when rho is a pure state."""
    squared = pure_squared_correlation(S, rho)
    if squared.normalization <= 0:
        raise InputDataError("squared correlation has zero total weight")
    Wn = squared.W / squared.normalization
    return float(np.linalg.norm(Wn - np.outer(Wn.sum(axis=1), Wn.sum(axis=0))))
