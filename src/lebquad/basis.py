"""Polynomial basis families with stable recurrence evaluation.

All families are evaluated in a mapped variable t in [-1, 1]; the affine
map keeps the three-term recurrences well conditioned regardless of the
units of the input data.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, InputDataError


class Family(str, Enum):
    CHEBYSHEV = "chebyshev"
    LEGENDRE = "legendre"
    MONOMIAL = "monomial"


@dataclass(frozen=True)
class DomainMap:
    """Affine map x -> t = (2x - x_min - x_max) / (x_max - x_min) in [-1, 1]."""

    x_min: float
    x_max: float

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise InputDataError("domain endpoints must be finite")
        if not self.x_min < self.x_max:
            raise ConfigurationError(
                f"domain requires x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (2.0 * x - self.x_min - self.x_max) / (self.x_max - self.x_min)

    @classmethod
    def identity(cls) -> "DomainMap":
        return cls(-1.0, 1.0)

    @classmethod
    def from_samples(cls, x) -> "DomainMap":
        """Map built from the sample range; identity if all samples coincide."""
        x = np.asarray(x, dtype=float)
        lo, hi = float(x.min()), float(x.max())
        if lo == hi:
            return cls.identity()
        return cls(lo, hi)


@dataclass(frozen=True)
class BasisSpec:
    """A family of polynomial basis functions Q_0 .. Q_{size-1} on a domain."""

    family: Family
    size: int
    domain: DomainMap

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.size < 1:
            raise ConfigurationError(f"basis size must be >= 1, got {self.size}")


def recurrence_coefficients(family: Family, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (a_k, c_k), k = 0 .. size-1, of t Q_k = a_k Q_{k+1} + c_k Q_{k-1}.

    The one table of the three-term recurrences, used both to evaluate the
    basis and to assemble Gram matrices from moments. c_0 = 0 always.
    """
    k = np.arange(size, dtype=float)
    if family is Family.CHEBYSHEV:
        a = np.where(k == 0, 1.0, 0.5)
        c = np.where(k == 0, 0.0, 0.5)
    elif family is Family.LEGENDRE:
        a = (k + 1) / (2 * k + 1)
        c = k / (2 * k + 1)
    else:
        a = np.ones(size)
        c = np.zeros(size)
    return a, c


def evaluate_all(spec: BasisSpec, x) -> np.ndarray:
    """Evaluate all basis functions at x via the three-term recurrence.

    x may be a scalar or a 1-d array; the result has shape (size,) or
    (size, len(x)).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InputDataError("evaluation points must be finite")
    t = spec.domain(x)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    a, c = recurrence_coefficients(spec.family, spec.size)
    # Q_{k+1} = (t Q_k - c_k Q_{k-1}) / a_k, written in place as
    # (t Q_k) / a_k - (c_k / a_k) Q_{k-1}; the unit and zero factors of the
    # Chebyshev and monomial tables are skipped.
    scale, lag = 1.0 / a, c / a
    out = np.empty((spec.size, t.size))
    out[0] = 1.0
    for k in range(spec.size - 1):
        nxt = out[k + 1]
        np.multiply(t, out[k], out=nxt)
        if scale[k] != 1.0:
            nxt *= scale[k]
        if lag[k] == 1.0:
            nxt -= out[k - 1]
        elif lag[k] != 0.0:
            nxt -= lag[k] * out[k - 1]
    return out[:, 0] if scalar else out
