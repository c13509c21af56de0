"""High-level driver tying basis, moments, spectral and joint together."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import joint as joint_ops
from .basis import BasisSpec, DomainMap, Family
from .errors import ConfigurationError, InputDataError
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


def _support_range(samples: SampleSet, values: np.ndarray) -> tuple[float, float]:
    """Smallest and largest of ``values`` (x, f or g) over the samples of
    positive weight.

    Zero-weight samples add nothing to any Gram matrix, so they move neither
    the domain nor the range of a process. No copy is made.
    """
    if samples.support_size == samples.size:  # a masked reduction is ~4x slower
        return float(values.min()), float(values.max())
    positive = samples.w > 0
    return (float(np.min(values, where=positive, initial=np.inf)),
            float(np.max(values, where=positive, initial=-np.inf)))


def basis_for_samples(samples: SampleSet, size: int,
                      family: Family | str = Family.CHEBYSHEV) -> BasisSpec:
    """Basis of the given size, domain-mapped to the range of the samples of
    positive weight. If they all share one x value, only size 1 is possible
    (ConfigurationError otherwise), and its domain is [-1, 1]."""
    lo, hi = _support_range(samples, samples.x)
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
    f-eigenbasis. Nodes outside the range of their process raise
    InputDataError.
    """
    basis = basis_for_samples(samples, n, family)
    grams = accumulate_grams(samples, basis, n)
    quad_f = lebesgue_quadrature(grams, grams.A_f, epsilon=epsilon)
    quad_g = None
    if grams.has_g:
        quad_g = lebesgue_quadrature_in_f_basis(grams, quad_f)
    # A node is a weighted mean of its process over the samples of positive
    # weight, so it lies in their range up to rounding, amplified by cond(G):
    # under n eps cond(G) max|value| / 2 on few-valued and smooth laws up to
    # cond(G) = 1e15. Past 8 times that, the Gram sums lost their precision.
    rounding = 8 * n * np.finfo(float).eps * quad_f.eigensolution.gram_condition
    for name, quad, values in (("f", quad_f, samples.f), ("g", quad_g, samples.g)):
        if quad is not None:
            lo, hi = _support_range(samples, values)
            with np.errstate(over="ignore"):  # a bound past the float range rejects nothing
                tol = rounding * max(abs(lo), abs(hi))
                outside = quad.nodes[0] < lo - tol or quad.nodes[-1] > hi + tol
            if outside:
                raise InputDataError(f"{name} nodes fall outside the range of {name}: "
                                     "sample values too small for the Gram sums")
    return AnalysisResult(samples=samples, basis=basis, grams=grams,
                          quad_f=quad_f, quad_g=quad_g)
