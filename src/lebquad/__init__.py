"""Lebesgue integral quadratures and joint distribution estimation.

Given weighted samples of two random processes f(x) and g(x) over a shared
measure, this package computes the optimal n-point discrete distribution of
each process (its Lebesgue quadrature) and estimates their joint
distribution through value-, probability-, density-matrix and squared
correlation matrices.
"""

from .basis import BasisSpec, DomainMap, Family, evaluate_all
from .datagen import Law, ScenarioSpec, builtin_scenario_names, generate, load_scenario, parse_scenario
from .errors import (
    ConditioningError,
    ConfigurationError,
    InputDataError,
    LebquadError,
    RhoMismatchError,
)
from .joint import (
    DENSITY,
    KINDS,
    PROBABILITY,
    PURE_SQUARED,
    VALUE,
    DensityMatrix,
    JointDistributionMatrix,
    density_from_pure_unit,
    density_from_spectral,
    density_identity,
    density_matrix_correlation,
    probability_correlation,
    projection,
    pure_squared_correlation,
    pureness_estimate,
    value_correlation,
)
from .moments import GramSet, SampleSet, accumulate_grams
from .pipeline import AnalysisResult, analyze, basis_for_samples
from .spectral import (
    EigenSolution,
    LebesgueQuadrature,
    lebesgue_quadrature,
    lebesgue_quadrature_in_f_basis,
)

__version__ = "0.1.0"
