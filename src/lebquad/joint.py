"""Joint distribution estimators built from two Lebesgue quadratures.

The projection matrix S between the f- and g-eigenbases carries all the
joint information; value-, probability-, density-matrix and squared
correlations are different contractions of S (and a density operator)
with the quadrature amplitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputDataError
from .spectral import LebesgueQuadrature, symmetrized

_ORTHO_TOL = 1e-8

VALUE = "value"
PROBABILITY = "probability"
DENSITY = "density"
PURE_SQUARED = "pure_squared"
KINDS = (VALUE, PROBABILITY, DENSITY, PURE_SQUARED)


@dataclass(frozen=True)
class ProjectionMatrix:
    """Overlaps S_ij between the f- and g-eigenfunctions.

    Both eigenbases are orthonormal bases of the same span, so S is an
    orthogonal matrix. The node vectors of both quadratures and the total
    measure are carried along for the estimators built on it.
    """

    S: np.ndarray
    f_nodes: np.ndarray
    g_nodes: np.ndarray
    total_measure: float

    @property
    def n(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """A density operator expressed in the f-eigenbasis.

    R is stored symmetrized (see :func:`spectral.symmetrized`); a non-finite
    R is reported by the correlations built on it.
    """

    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", symmetrized(self.R, "density matrix"))

    @property
    def spur(self) -> float:
        return float(np.trace(self.R))

    @property
    def n(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class JointDistributionMatrix:
    """An n x n joint weight matrix with its expected normalization.

    W, its normalization and its total must be finite.
    """

    kind: str
    W: np.ndarray
    normalization: float
    row_nodes: np.ndarray
    col_nodes: np.ndarray

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


def projection(quad_f: LebesgueQuadrature, quad_g: LebesgueQuadrature) -> ProjectionMatrix:
    """S, the g-eigenvectors over the f-eigenfunctions, as solve_in_f_basis
    found them; equal to alpha_f^T G alpha_g in exact arithmetic.

    quad_g must have been solved in quad_f's own eigenbasis."""
    if quad_g.eigensolution.f_solution is not quad_f.eigensolution:
        raise InputDataError("the g quadrature was not solved in this f-eigenbasis")
    return ProjectionMatrix(
        S=quad_g.eigensolution.in_f_basis,
        f_nodes=quad_f.nodes,
        g_nodes=quad_g.nodes,
        total_measure=quad_f.grams.total_measure,
    )


def value_correlation(
    quad_f: LebesgueQuadrature, quad_g: LebesgueQuadrature, S: ProjectionMatrix
) -> JointDistributionMatrix:
    """Signed measure of (f ~ f_i) and (g ~ g_j) sets; exact marginals.

    V is the density-matrix correlation at rho = |1><1|, normalized to the
    total measure."""
    if S.n != quad_f.n or S.n != quad_g.n:
        raise InputDataError("projection and quadratures have mismatched orders")
    return JointDistributionMatrix(
        kind=VALUE, W=_density_weights(S, density_from_pure_unit(quad_f)),
        normalization=S.total_measure,
        row_nodes=S.f_nodes, col_nodes=S.g_nodes,
    )


def probability_correlation(S: ProjectionMatrix) -> JointDistributionMatrix:
    """Doubly stochastic matrix S_ij^2, normalized to the order n."""
    return JointDistributionMatrix(
        kind=PROBABILITY, W=S.S**2, normalization=float(S.n),
        row_nodes=S.f_nodes, col_nodes=S.g_nodes,
    )


def density_from_pure_unit(quad_f: LebesgueQuadrature) -> DensityMatrix:
    """Rank-1 density |1><1| in the f-eigenbasis: outer product of amplitudes."""
    a = quad_f.amplitudes
    return DensityMatrix(R=np.outer(a, a))


def density_identity(n: int) -> DensityMatrix:
    if n < 1:
        raise InputDataError(f"order must be >= 1, got {n}")
    return DensityMatrix(R=np.eye(n))


def density_from_spectral(eigenvalues, vectors) -> DensityMatrix:
    """Density operator from its spectral form, coefficients in the f-eigenbasis."""
    lam = np.asarray(eigenvalues, dtype=float)
    psi = np.asarray(vectors, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1] or lam.size != psi.shape[0]:
        raise InputDataError(
            f"spectral form needs n values and an n x n vector matrix, "
            f"got {lam.size} and {psi.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite R is reported downstream
        if np.abs(psi.T @ psi - np.eye(psi.shape[0])).max() > _ORTHO_TOL:
            raise InputDataError("spectral vectors are not orthonormal")
        return DensityMatrix(R=(psi * lam) @ psi.T)


def _check_dims(S: ProjectionMatrix, rho: DensityMatrix) -> None:
    if rho.n != S.n:
        raise InputDataError(f"dimension mismatch: rho is {rho.n}, projection is {S.n}")


def _density_weights(S: ProjectionMatrix, rho: DensityMatrix) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # reported by JointDistributionMatrix
        return S.S * (rho.R @ S.S)


def density_matrix_correlation(S: ProjectionMatrix, rho: DensityMatrix) -> JointDistributionMatrix:
    """General correlation S_ij * (R S)_ij, normalized to the spur of rho."""
    _check_dims(S, rho)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by JointDistributionMatrix
        spur = rho.spur
    return JointDistributionMatrix(
        kind=DENSITY, W=_density_weights(S, rho), normalization=spur,
        row_nodes=S.f_nodes, col_nodes=S.g_nodes,
    )


def pure_squared_correlation(S: ProjectionMatrix, rho: DensityMatrix) -> JointDistributionMatrix:
    """Squared correlation ((R S)_ij)^2; factorizes for rank-1 rho."""
    _check_dims(S, rho)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by JointDistributionMatrix
        W = (rho.R @ S.S) ** 2
        total = float(W.sum())
    return JointDistributionMatrix(
        kind=PURE_SQUARED, W=W, normalization=total,
        row_nodes=S.f_nodes, col_nodes=S.g_nodes,
    )


def pureness_estimate(S: ProjectionMatrix, rho: DensityMatrix) -> float:
    """Frobenius distance between the unit-normalized squared correlation and
    the product of its marginals; zero exactly when rho is a pure state."""
    W = pure_squared_correlation(S, rho).W
    total = W.sum()
    if total <= 0:
        raise InputDataError("squared correlation has zero total weight")
    Wn = W / total
    row = Wn.sum(axis=1)
    col = Wn.sum(axis=0)
    return float(np.linalg.norm(Wn - np.outer(row, col)))
