"""Chebyshev rows on a mapped domain, and the other families' coefficients over them.

Only the T_k are evaluated, in a mapped variable t in [-1, 1], where their
recurrence is well conditioned whatever the units of the data; a Legendre or
monomial basis enters only through its coefficients C over the T_k, with
which the JSON writer re-expresses alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, InputDataError


class Family(str, Enum):
    CHEBYSHEV = "chebyshev"
    LEGENDRE = "legendre"
    MONOMIAL = "monomial"


def scale_exponent(lo: float, hi: float) -> int:
    """The even e with max(|lo|, |hi|) 2^-e in [1/2, 2), or 0 if both are 0:
    the one scale rule of the library. Scaling by 2^-e is exact short of
    underflow, and e is even so that square roots scale exactly too."""
    e = math.frexp(max(abs(lo), abs(hi)))[1]
    return e - e % 2


@dataclass(frozen=True)
class DomainMap:
    """Affine map x -> t = (2x - x_min - x_max) / (x_max - x_min) in [-1, 1],
    with x and the endpoints first scaled by 2^-e, e their :func:`scale_exponent`,
    so that no step overflows; the scale cancels in the quotient."""

    x_min: float
    x_max: float
    # (e, x_min 2^-e, x_max 2^-e), computed once
    _scaled: tuple[int, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise InputDataError("domain endpoints must be finite")
        if not self.x_min < self.x_max:
            raise ConfigurationError(
                f"domain requires x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )
        e = scale_exponent(self.x_min, self.x_max)
        object.__setattr__(self, "_scaled",
                           (e, math.ldexp(self.x_min, -e), math.ldexp(self.x_max, -e)))

    def __call__(self, x, out=None):
        """t at x, written into ``out`` (a float array of x's shape) if given."""
        e, lo, hi = self._scaled
        t = np.ldexp(np.asarray(x, dtype=float), 1 - e, out=out)  # 2x 2^-e
        t -= lo
        t -= hi
        t /= hi - lo
        return t


@dataclass(frozen=True)
class BasisSpec:
    """A basis Q_0 .. Q_{size-1} of a polynomial family on a domain. The
    library evaluates and solves over the Chebyshev T_k of the same span
    whatever ``family`` is; ``family`` selects only the Q_k of JSON alpha."""

    family: Family
    size: int
    domain: DomainMap

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.size < 1:
            raise ConfigurationError(f"basis size must be >= 1, got {self.size}")


def _chebyshev_coefficients(family: Family, n: int) -> np.ndarray:
    """C[k, j], k, j < n: Q_k = sum_j C[k, j] T_j, lower triangular, by the
    family's recurrence t Q_k = a_k Q_{k+1} + c_k Q_{k-1} and
    t T_j = (T_{j+1} + T_{|j-1|}) / 2; exactly I for Chebyshev."""
    if family is Family.CHEBYSHEV:
        return np.eye(n)
    C = np.zeros((n, n))
    C[0, 0] = 1.0
    for k in range(n - 1):
        row, nxt = C[k], C[k + 1]
        nxt[1:] = row[:-1]
        nxt[:-1] += row[1:]
        nxt[1] += row[0]
        if family is Family.MONOMIAL:  # a_k = 1, c_k = 0
            nxt *= 0.5
        else:  # Legendre: a_k = (k + 1) / (2k + 1), c_k = k / (2k + 1)
            a, c = (k + 1) / (2 * k + 1), k / (2 * k + 1)
            nxt *= 0.5 * (1.0 / a)
            if k:
                nxt -= c / a * C[k - 1]
    return C


def evaluate_all(spec: BasisSpec, x, out=None) -> np.ndarray:
    """Evaluate T_0 .. T_{size-1} at x on ``spec.domain``, by the recurrence
    T_{k+1} = 2t T_k - T_{k-1}; a spec of another family is a ConfigurationError.

    x may be a scalar or a 1-d array; the result has shape (size,) or
    (size, len(x)). If given, ``out`` is a float array of that shape, which
    receives the result and is returned; its rows may have any stride.
    """
    if spec.family is not Family.CHEBYSHEV:
        raise ConfigurationError(
            f"only Chebyshev rows are evaluated, got a {spec.family.value} basis")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():  # the method: np.all adds ~4 us a call
        raise InputDataError("evaluation points must be finite")
    shape = (spec.size,) + x.shape
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    T = out[:, np.newaxis] if x.ndim == 0 else out
    T[0] = 1.0
    if spec.size == 1:
        return out
    # the domain map writes T_1 = t, and 2t is formed once, so a row takes 2
    # passes; "T[k + 1] -= ..." would add a third, a copy through __setitem__
    twice = np.multiply(spec.domain(x, out=T[1]), 2.0)
    for k in range(1, spec.size - 1):
        nxt = np.multiply(twice, T[k], out=T[k + 1])
        nxt -= T[k - 1]
    return out
