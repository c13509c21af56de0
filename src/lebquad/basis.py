"""Polynomial basis families with stable recurrence evaluation.

All families are evaluated in a mapped variable t in [-1, 1]; the affine
map keeps the three-term recurrences well conditioned regardless of the
units of the input data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

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
    basis and to build C, its Chebyshev coefficients. c_0 = 0 always.
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


def _chebyshev_coefficients(family: Family, n: int) -> np.ndarray:
    """C[k, j], k, j < n: Q_k = sum_j C[k, j] T_j, lower triangular, by the
    family's recurrence and t T_j = (T_{j+1} + T_{|j-1|}) / 2; exactly I for Chebyshev."""
    C = np.zeros((n, n))
    C[0, 0] = 1.0
    for k, (scale, lag) in enumerate(_recurrence_steps(family, n)[1]):
        row, nxt = C[k], C[k + 1]
        nxt[1:] = row[:-1]
        nxt[:-1] += row[1:]
        nxt[1] += row[0]
        nxt *= 0.5 * scale
        if lag:  # c_0 = 0, so C[k - 1] is read from k = 1 on
            nxt -= lag * C[k - 1]
    return C


@lru_cache(maxsize=8)
def _recurrence_steps(family: Family, size: int) -> tuple[float, tuple[tuple[float, float], ...]]:
    """(fold, steps) of Q_{k+1} = (t Q_k) / a_k - (c_k / a_k) Q_{k-1}, as
    Python floats: steps[k] = (1 / a_k, c_k / a_k) for k = 0 .. size-2.

    ``fold`` is the step scale 1 / a_k shared by every k >= 1 when it is a
    power of two (2 for Chebyshev, 1 for monomials), else 1. Scaling by a
    power of two is exact short of underflow, so (fold t) Q_k equals
    (t Q_k) fold.
    """
    a, c = recurrence_coefficients(family, size)
    scales, lags = (1.0 / a[:-1]).tolist(), (c[:-1] / a[:-1]).tolist()
    fold = scales[-1] if scales else 1.0
    if any(s != fold for s in scales[1:]) or math.frexp(fold)[0] != 0.5:
        fold = 1.0
    return fold, tuple(zip(scales, lags))


def evaluate_all(spec: BasisSpec, x, out=None) -> np.ndarray:
    """Evaluate all basis functions at x via the three-term recurrence.

    x may be a scalar or a 1-d array; the result has shape (size,) or
    (size, len(x)). If given, ``out`` is a float array of that shape, which
    receives the result and is returned; its rows may have any stride.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():  # the method: np.all adds ~4 us a call
        raise InputDataError("evaluation points must be finite")
    shape = (spec.size,) + x.shape
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    Q = out[:, np.newaxis] if x.ndim == 0 else out
    Q[0] = 1.0
    if spec.size == 1:
        return out
    # Q_1 = t for every family (a_0 = 1, c_0 = 0): the domain map writes row
    # 1. Then Q_{k+1} = (t Q_k) / a_k - (c_k / a_k) Q_{k-1}, in place; the
    # unit and zero factors are skipped and a shared power-of-two scale is
    # folded into t once, so a Chebyshev row takes 2 passes, a monomial 1.
    # One scratch row holds the folded t, or each Legendre row's lag term.
    t = spec.domain(x, out=Q[1])
    fold, steps = _recurrence_steps(spec.family, spec.size)
    scratch = np.empty_like(t) if spec.size > 2 else None
    folded = np.multiply(t, fold, out=scratch) if fold != 1.0 else t
    for k, (scale, lag) in enumerate(steps[1:], start=1):
        nxt = Q[k + 1]
        if scale == fold:
            np.multiply(folded, Q[k], out=nxt)
        else:
            np.multiply(t, Q[k], out=nxt)
            if scale != 1.0:
                nxt *= scale
        if lag == 1.0:
            nxt -= Q[k - 1]
        elif lag != 0.0:
            nxt -= np.multiply(lag, Q[k - 1], out=scratch)
    return out
