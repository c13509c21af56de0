"""Joint distribution estimators built from two Lebesgue quadratures.

The projection matrix S between the f- and g-eigenbases carries all the
joint information; value-, probability-, density-matrix and squared
correlations are different contractions of S (and a density operator)
with the quadrature amplitudes.
"""
from __future__ import annotations

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
class ProjectionMatrix:
    """Overlaps S_ij between the f- and g-eigenfunctions.

    Both eigenbases are orthonormal bases of the same span, so S is an
    orthogonal matrix. Node and amplitude vectors of both quadratures are
    carried along so downstream estimators need only this object.
    """

    S: np.ndarray
    f_nodes: np.ndarray
    g_nodes: np.ndarray
    f_amplitudes: np.ndarray
    g_amplitudes: np.ndarray
    total_measure: float

    @property
    def n(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """A density operator expressed in the f-eigenbasis."""

    R: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        scale = np.abs(R).max() or 1.0
        if np.abs(R - R.T).max() > 1e-12 * scale:
            raise InputDataError("density matrix must be symmetric")
        object.__setattr__(self, "R", R)

    @property
    def spur(self) -> float:
        return float(np.trace(self.R))

    @property
    def n(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class JointDistributionMatrix:
    """An n x n joint weight matrix with its expected normalization."""

    kind: str
    W: np.ndarray
    normalization: float
    row_nodes: np.ndarray
    col_nodes: np.ndarray

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
    """S = alpha_f^T G alpha_g, the bridge between the two eigenbases."""
    if quad_f.n != quad_g.n:
        raise InputDataError(f"order mismatch: {quad_f.n} vs {quad_g.n}")
    if quad_f.grams.basis != quad_g.grams.basis or quad_f.grams.G is not quad_g.grams.G:
        if not np.array_equal(quad_f.grams.G, quad_g.grams.G):
            raise InputDataError("quadratures were built on different Gram sets")
    S = quad_f.eigensolution.alpha.T @ quad_f.grams.G @ quad_g.eigensolution.alpha
    return ProjectionMatrix(
        S=S,
        f_nodes=quad_f.nodes,
        g_nodes=quad_g.nodes,
        f_amplitudes=quad_f.amplitudes,
        g_amplitudes=quad_g.amplitudes,
        total_measure=quad_f.grams.total_measure,
    )


def value_correlation(
    quad_f: LebesgueQuadrature, quad_g: LebesgueQuadrature, S: ProjectionMatrix
) -> JointDistributionMatrix:
    """Signed measure of (f ~ f_i) and (g ~ g_j) sets; exact marginals."""
    if S.n != quad_f.n or S.n != quad_g.n:
        raise InputDataError("projection and quadratures have mismatched orders")
    V = quad_f.amplitudes[:, None] * S.S * quad_g.amplitudes[None, :]
    return JointDistributionMatrix(
        kind=VALUE, W=V, normalization=S.total_measure,
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
    if np.abs(psi.T @ psi - np.eye(psi.shape[0])).max() > _ORTHO_TOL:
        raise InputDataError("spectral vectors are not orthonormal")
    R = (psi * lam) @ psi.T
    return DensityMatrix(R=0.5 * (R + R.T))


def _check_dims(S: ProjectionMatrix, rho: DensityMatrix) -> None:
    if rho.n != S.n:
        raise InputDataError(f"dimension mismatch: rho is {rho.n}, projection is {S.n}")


def density_matrix_correlation(S: ProjectionMatrix, rho: DensityMatrix) -> JointDistributionMatrix:
    """General correlation S_ij * (R S)_ij, normalized to the spur of rho."""
    _check_dims(S, rho)
    if np.array_equal(rho.R, np.outer(S.f_amplitudes, S.f_amplitudes)):
        # pure-unit rho: <1|psi_g_j> equals the g-amplitude analytically;
        # using it keeps this case bit-identical to value_correlation
        W = S.f_amplitudes[:, None] * S.S * S.g_amplitudes[None, :]
    else:
        W = S.S * (rho.R @ S.S)
    return JointDistributionMatrix(
        kind=DENSITY, W=W, normalization=rho.spur,
        row_nodes=S.f_nodes, col_nodes=S.g_nodes,
    )


def pure_squared_correlation(S: ProjectionMatrix, rho: DensityMatrix) -> JointDistributionMatrix:
    """Squared correlation ((R S)_ij)^2; factorizes for rank-1 rho."""
    _check_dims(S, rho)
    W = (rho.R @ S.S) ** 2
    return JointDistributionMatrix(
        kind=PURE_SQUARED, W=W, normalization=float(W.sum()),
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
