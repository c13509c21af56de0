"""High-level driver tying basis, moments, spectral and joint together."""
from __future__ import annotations

from dataclasses import dataclass

from . import joint as joint_ops
from .basis import BasisSpec, DomainMap, Family, support_range
from .errors import ConfigurationError
from .joint import DensityMatrix, JointDistributionMatrix, ProjectionMatrix
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

    def projection(self) -> ProjectionMatrix:
        if self.quad_g is None:
            raise ConfigurationError("joint estimators need a g column")
        return joint_ops.projection(self.quad_f, self.quad_g)

    def correlation(self, kind: str, rho: DensityMatrix | None = None,
                    S: ProjectionMatrix | None = None) -> JointDistributionMatrix:
        """One joint estimator by kind; rho defaults per kind."""
        if S is None:
            S = self.projection()
        if kind == joint_ops.VALUE:
            return joint_ops.value_correlation(self.quad_f, self.quad_g, S)
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
                      family: Family | str = Family.CHEBYSHEV,
                      domain: DomainMap | None = None) -> BasisSpec:
    """Basis sized for the requested order, domain-mapped to the range of the
    samples of positive weight."""
    if domain is None:
        domain = DomainMap.from_samples(samples.x, samples.w)
    return BasisSpec(family=Family(family), size=size, domain=domain)


def analyze(samples: SampleSet, n: int = DEFAULT_ORDER,
            family: Family | str = Family.CHEBYSHEV,
            *, epsilon: float = DEFAULT_EPSILON,
            domain: DomainMap | None = None) -> AnalysisResult:
    """Run the full quadrature pipeline on a sample set.

    Computes Gram matrices from streamed moments (:func:`accumulate_grams`),
    solves the f-pencil, and when g is present solves the g-problem in the
    f-eigenbasis.
    """
    if n >= 2:
        lo, hi = support_range(samples.x, samples.w)
        if lo == hi:
            raise ConfigurationError(
                "all samples of positive weight share one x value; "
                "only order n = 1 is possible"
            )
    basis = basis_for_samples(samples, size=n, family=family, domain=domain)
    grams = accumulate_grams(samples, basis, n)
    quad_f = lebesgue_quadrature(grams, "f", epsilon=epsilon)
    quad_g = None
    if grams.has_g:
        quad_g = lebesgue_quadrature_in_f_basis(grams, quad_f)
    return AnalysisResult(samples=samples, basis=basis, grams=grams,
                          quad_f=quad_f, quad_g=quad_g)
