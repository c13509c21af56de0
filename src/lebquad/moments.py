"""Sample ingestion and moment-based Gram assembly.

Every Gram and operator matrix <Q_j Q_k>, <Q_j f Q_k>, <Q_j g Q_k> of order
n follows, by the basis recurrence, from its first row <Q_k> and its last
column <Q_{n-1} Q_k>. The samples are read once, in chunks, evaluating n
basis rows and reducing them to each Gram's first row and last column
(:func:`moments_from_samples`, O(M n) time, O(chunk n) memory); the
recurrence fills the rest from those alone (:func:`grams_from_moments`,
O(n^2)). :func:`accumulate_grams` chains the two and is the only Gram route
of the pipeline.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSpec, evaluate_all, recurrence_coefficients
from .errors import ConditioningError, ConfigurationError, DegreeRangeError, InputDataError

# A chunk holds _CHUNK_ELEMENTS // (2n) samples. Its block of n basis rows
# (half that many elements) is reduced to each Gram's first row and last
# column and released before the next chunk is evaluated; the recurrence
# fills the rest. This bounds the memory of moment accumulation
# independently of M.
_CHUNK_ELEMENTS = 1 << 20

# n x n float64 arrays alive at once at an order-n run's peak: the three
# Grams, their assembly, the eigensolvers' copies and work arrays and the
# joint estimates. The peak RSS of analyze plus all four correlations
# measured 12.4-12.8 of them at n = 1000 and 1500; 16 leaves a margin.
_SQUARE_ARRAYS = 16


def physical_memory() -> int:
    """Bytes of physical memory of the machine running this process."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def max_order() -> int:
    """Largest order whose n x n arrays fit in physical memory."""
    return math.isqrt(physical_memory() // (8 * _SQUARE_ARRAYS))


@dataclass(frozen=True)
class SampleSet:
    """Weighted observations (x_l, w_l, f_l, g_l) defining the measure.

    ``g`` is optional; without it only the single-process quadrature
    pipeline is available.
    """

    x: np.ndarray
    w: np.ndarray
    f: np.ndarray
    g: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        w = np.asarray(self.w, dtype=float)
        f = np.asarray(self.f, dtype=float)
        g = None if self.g is None else np.asarray(self.g, dtype=float)
        if x.ndim != 1 or x.size < 1:
            raise InputDataError("need at least one sample")
        for name, arr in (("w", w), ("f", f)) + (() if g is None else (("g", g),)):
            if arr.shape != x.shape:
                raise InputDataError(f"column '{name}' has {arr.size} entries, expected {x.size}")
        for name, arr in (("x", x), ("w", w), ("f", f)) + (() if g is None else (("g", g),)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise InputDataError(f"non-finite value in column '{name}' at record {bad[0] + 1}")
        neg = np.flatnonzero(w < 0)
        if neg.size:
            raise InputDataError(f"negative weight at record {neg[0] + 1}")
        if w.sum() <= 0:
            raise InputDataError("total measure must be positive")
        for name, arr in (("x", x), ("w", w), ("f", f), ("g", g)):
            object.__setattr__(self, name, arr)
            if arr is not None:
                arr.setflags(write=False)

    @property
    def size(self) -> int:
        return self.x.size

    @property
    def has_g(self) -> bool:
        return self.g is not None

    def scaled(self, c: float) -> "SampleSet":
        """Same samples with all measure weights multiplied by c > 0."""
        return SampleSet(self.x, self.w * c, self.f, self.g)


@dataclass(frozen=True)
class GramSet:
    """Gram matrices and moment vector of a SampleSet in a given basis."""

    n: int
    G: np.ndarray
    A_f: np.ndarray
    m: np.ndarray
    total_measure: float
    basis: BasisSpec
    A_g: np.ndarray | None = None

    @property
    def has_g(self) -> bool:
        return self.A_g is not None

    def operator(self, which: str) -> np.ndarray:
        if which == "f":
            return self.A_f
        if which == "g":
            if self.A_g is None:
                raise ConfigurationError("samples carried no g column")
            return self.A_g
        raise ConfigurationError(f"unknown process {which!r}, expected 'f' or 'g'")


@dataclass(frozen=True)
class MomentSet:
    """First rows and last columns of the Grams of order n = len(mu).

    ``mu[k]`` = <Q_k>, ``mu_f[k]`` = <f Q_k>, ``mu_g[k]`` = <g Q_k> and
    ``last[k]`` = <Q_{n-1} Q_k>, ``last_f[k]`` = <f Q_{n-1} Q_k>,
    ``last_g[k]`` = <g Q_{n-1} Q_k>, for k = 0 .. n-1.
    """

    basis: BasisSpec
    mu: np.ndarray
    mu_f: np.ndarray
    last: np.ndarray
    last_f: np.ndarray
    mu_g: np.ndarray | None = None
    last_g: np.ndarray | None = None

    @property
    def has_g(self) -> bool:
        return self.mu_g is not None


def _check_order(n: int, basis: BasisSpec) -> None:
    if n < 1:
        raise ConfigurationError(f"order must be >= 1, got {n}")
    if basis.size < n:
        raise ConfigurationError(f"basis size {basis.size} too small, need at least {n}")


def _mirror(M: np.ndarray) -> np.ndarray:
    # Bit-for-bit symmetric over the last two axes: keep the upper
    # triangle, mirror it down.
    return np.triu(M) + np.swapaxes(np.triu(M, 1), -1, -2)


def accumulate_grams(samples: SampleSet, basis: BasisSpec, n: int) -> GramSet:
    """Gram and operator matrices of order n over Q_0 .. Q_{n-1} of ``basis``.

    Orders above the number of positive-weight samples are rejected before
    anything n-sized is allocated: such a Gram matrix cannot have full rank.
    So are orders above :func:`max_order`, whose arrays would not fit in
    physical memory. Finite samples whose sums overflow to inf or NaN raise
    InputDataError.
    """
    _check_order(n, basis)
    support = int(np.count_nonzero(samples.w))
    if n > support:
        raise ConditioningError(
            f"order {n} exceeds the {support} samples of positive weight",
            effective_rank=support,
        )
    if n > max_order():
        raise ConfigurationError(
            f"order {n} needs {8 * _SQUARE_ARRAYS * n * n / 2**30:.3g} GiB for its "
            f"n x n arrays, more than the {physical_memory() / 2**30:.3g} GiB of "
            f"physical memory"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        grams = grams_from_moments(moments_from_samples(samples, basis, n), n)
    for name, M in (("G", grams.G), ("A_f", grams.A_f), ("A_g", grams.A_g)):
        if M is not None and not np.isfinite(M).all():
            raise InputDataError(
                f"Gram matrix {name} overflows: sample values too large for order {n}"
            )
    return grams


def moments_from_samples(samples: SampleSet, basis: BasisSpec, n: int) -> MomentSet:
    """First rows and last columns of the order-n Grams of dmu, f dmu, g dmu.

    The samples are streamed in chunks: each chunk's block of basis rows
    Q_0 .. Q_{n-1} is reduced with one small matmul against the stacked
    columns [w, w f, w g] and against the same columns times Q_{n-1}.
    """
    _check_order(n, basis)
    rows = replace(basis, size=n)
    chunk = max(1, _CHUNK_ELEMENTS // (2 * n))
    measures = 3 if samples.has_g else 2
    acc = np.zeros((n, 2 * measures))
    for start in range(0, samples.size, chunk):
        part = slice(start, start + chunk)
        w = samples.w[part]
        columns = [w, w * samples.f[part]]
        if samples.has_g:
            columns.append(w * samples.g[part])
        columns = np.stack(columns)  # one row per measure: contiguous products
        Q = evaluate_all(rows, samples.x[part])
        acc += Q @ np.concatenate([columns, columns * Q[-1]]).T
        del Q  # the next chunk's block is allocated only after this one is freed
    first, last = acc[:, :measures].T.copy(), acc[:, measures:].T.copy()
    return MomentSet(
        basis=basis, mu=first[0], mu_f=first[1], last=last[0], last_f=last[1],
        mu_g=first[2] if samples.has_g else None,
        last_g=last[2] if samples.has_g else None,
    )


def _mixed_moments(basis: BasisSpec, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """sigma[..., j, k] = <Q_j Q_k>, j, k < n, from its first row and last column.

    first[..., k] = sigma[..., 0, k] and last[..., k] = sigma[..., k, n-1].
    With t Q_k = a_k Q_{k+1} + c_k Q_{k-1}, <Q_j (t Q_k)> = <(t Q_j) Q_k>
    gives sigma[j+1, k] = (a_k sigma[j, k+1] + c_k sigma[j, k-1]
    - c_j sigma[j-1, k]) / a_j for k < n-1; column n-1 is pinned to
    ``last``. Only a_j divides: c_j is 0 for monomials. The upper triangle
    is kept and mirrored.
    """
    n = first.shape[-1]
    a, c = recurrence_coefficients(basis.family, n)
    sigma = np.zeros(first.shape[:-1] + (n, n))
    sigma[..., :, n - 1] = last
    sigma[..., 0, :] = first
    width = n - 1
    for j in range(n - 1):
        row, nxt = sigma[..., j, :], sigma[..., j + 1, :width]
        nxt[...] = a[:width] * row[..., 1:]
        nxt[..., 1:] += c[1:width] * row[..., :width - 1]
        if j:
            nxt -= c[j] * sigma[..., j - 1, :width]
        nxt /= a[j]
    return _mirror(sigma)


def grams_from_moments(moments: MomentSet, n: int) -> GramSet:
    """Gram matrices filled in from their first rows and last columns, O(n^2).

    An order below the MomentSet's gives the leading block of its Grams.
    """
    if n < 1:
        raise ConfigurationError(f"order must be >= 1, got {n}")
    if n > moments.mu.size:
        raise DegreeRangeError(
            f"order {n} needs moments of order {n}, got {moments.mu.size}"
        )
    first = [moments.mu, moments.mu_f] + ([moments.mu_g] if moments.has_g else [])
    last = [moments.last, moments.last_f] + ([moments.last_g] if moments.has_g else [])
    sigma = _mixed_moments(moments.basis, np.stack(first), np.stack(last))
    G, A_f, *A_g = sigma[:, :n, :n]
    return GramSet(
        n=n, G=G, A_f=A_f, A_g=A_g[0] if A_g else None, m=moments.mu[:n].copy(),
        total_measure=float(moments.mu[0]), basis=moments.basis,
    )
