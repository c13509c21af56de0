"""High-level driver tying basis, moments, spectral and joint together."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import joint as joint_ops
from .basis import BasisSpec, DomainMap, Family
from .errors import ConfigurationError
from .joint import DensityMatrix, JointDistributionMatrix
from .moments import GramSet, SampleSet, accumulate_grams
from .spectral import (
    DEFAULT_EPSILON,
    LebesgueQuadrature,
    lebesgue_quadrature,
    lebesgue_quadrature_in_f_basis,
)

DEFAULT_ORDER = 8


@dataclass(frozen=True)
class AnalysisResult:
    """Quadratures of both processes plus everything needed downstream."""

    samples: SampleSet
    basis: BasisSpec
    grams: GramSet
    quad_f: LebesgueQuadrature
    quad_g: LebesgueQuadrature | None

    @property
    def n(self) -> int:
        return self.grams.n

    def projection(self) -> np.ndarray:
        if self.quad_g is None:
            raise ConfigurationError("joint estimators need a g column")
        return joint_ops.projection(self.quad_f, self.quad_g)

    def correlation(self, kind: str, rho: DensityMatrix | None = None,
                    S: np.ndarray | None = None) -> JointDistributionMatrix:
        """One joint estimator by kind; rho defaults per kind."""
        if S is None:
            S = self.projection()
        if kind == joint_ops.VALUE:
            return joint_ops.value_correlation(self.quad_f, S)
        if kind == joint_ops.PROBABILITY:
            return joint_ops.probability_correlation(S)
        if rho is None:
            rho = joint_ops.density_from_pure_unit(self.quad_f)
        if kind == joint_ops.DENSITY:
            return joint_ops.density_matrix_correlation(S, rho)
        if kind == joint_ops.PURE_SQUARED:
            return joint_ops.pure_squared_correlation(S, rho)
        raise ConfigurationError(f"unknown correlation kind {kind!r}")


def basis_for_samples(samples: SampleSet, size: int,
                      family: Family | str = Family.CHEBYSHEV) -> BasisSpec:
    """Basis of the given size, domain-mapped to the range of the samples of
    positive weight. If they all share one x value, only size 1 is possible
    (ConfigurationError otherwise), and its domain is [-1, 1]."""
    lo, hi = samples.spans["x"]
    if lo == hi:
        if size >= 2:
            raise ConfigurationError(
                "all samples of positive weight share one x value; "
                "only order n = 1 is possible"
            )
        lo, hi = -1.0, 1.0
    return BasisSpec(family, size, DomainMap(lo, hi))


def analyze(samples: SampleSet, n: int = DEFAULT_ORDER,
            family: Family | str = Family.CHEBYSHEV,
            *, epsilon: float = DEFAULT_EPSILON) -> AnalysisResult:
    """Run the full quadrature pipeline on a sample set.

    Computes Gram matrices from streamed moments (:func:`accumulate_grams`),
    solves the f-pencil, and when g is present solves the g-problem in the
    f-eigenbasis. Each column is scaled by a power of two for the Gram sums,
    so the nodes scale exactly with f and g, the weights with w, S not at all.
    """
    basis = basis_for_samples(samples, n, family)
    grams = accumulate_grams(samples, basis, n)
    quad_f = lebesgue_quadrature(grams, epsilon=epsilon)
    quad_g = None
    if grams.has_g:
        quad_g = lebesgue_quadrature_in_f_basis(quad_f)
    return AnalysisResult(samples=samples, basis=basis, grams=grams,
                          quad_f=quad_f, quad_g=quad_g)
