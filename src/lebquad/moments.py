"""Sample ingestion and moment-based Gram assembly.

Every Gram and operator matrix <Q_j Q_k>, <Q_j f Q_k>, <Q_j g Q_k> of order
n follows, by the basis recurrence, from its first row <Q_k> and its last
column <Q_{n-1} Q_k>. :func:`accumulate_grams`, the one Gram route, reads
the samples once, in chunks, evaluating n basis rows and reducing them to
each Gram's first row and last column (O(M n) time, O(chunk n) memory);
the recurrence fills the rest from those alone (:func:`_mixed_moments`,
O(n^2)). A chunk's block of basis rows is kept to about 1 MiB, so that it
stays in L2 cache, but a chunk holds at least 4096 samples (see
_CHUNK_ELEMENTS).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSpec, evaluate_all, recurrence_coefficients
from .errors import ConditioningError, ConfigurationError, InputDataError

# A chunk's block of n basis rows holds about _CHUNK_ELEMENTS doubles
# (1 MiB), so that it stays in a core's L2 cache (2 MiB on the Xeon it was
# tuned on) while the reduction matmul reads it; at n = 32, 4 MiB blocks made
# that matmul about 1.6x slower. But a chunk never holds fewer than
# _CHUNK_SAMPLES samples: each of the n rows of the recurrence is a few numpy
# calls, whose fixed cost shorter rows would not amortize (at n = 1000 the
# 131-sample chunks of a 1 MiB block made the moment pass 3-4x slower).
# At the floor, from n >= _CHUNK_SAMPLES on, the block is at most one n x n
# array. Each block is reduced to each Gram's first row and last column and
# released before the next one is evaluated; the recurrence fills the rest.
# This bounds the memory of moment accumulation independently of M.
_CHUNK_ELEMENTS = 1 << 17
_CHUNK_SAMPLES = 4096

# n x n float64 arrays alive at once at an order-n run's peak: the three
# Grams, their assembly, the eigensolvers' copies and work arrays and the
# joint estimates. The moment pass's block of basis rows is at most one more
# from n = _CHUNK_SAMPLES on, and at most 128 MiB below that. The peak RSS of analyze plus all four correlations
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
        columns = (("x", x), ("w", w), ("f", f)) + (() if g is None else (("g", g),))
        if x.ndim != 1 or x.size < 1:
            raise InputDataError("need at least one sample")
        for name, arr in columns[1:]:
            if arr.shape != x.shape:
                raise InputDataError(f"column '{name}' has {arr.size} entries, expected {x.size}")
        bad = w < 0
        for _, arr in columns:
            bad |= ~np.isfinite(arr)
        if bad.any():
            # the first bad record; within it, non-finite x, w, f, g, then the weight's sign
            row = int(bad.argmax())
            for name, arr in columns:
                if not np.isfinite(arr[row]):
                    raise InputDataError(f"non-finite value in column '{name}'", record=row + 1)
            raise InputDataError(f"negative weight {w[row]}", record=row + 1)
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
    """Gram and operator matrices of a SampleSet in a given basis.

    Row 0 of G is the moment vector <Q_k>, and G[0, 0] the total measure.
    """

    G: np.ndarray
    A_f: np.ndarray
    basis: BasisSpec
    A_g: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def m(self) -> np.ndarray:
        return self.G[0]

    @property
    def total_measure(self) -> float:
        return float(self.G[0, 0])

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

    The samples are streamed in chunks of max(_CHUNK_SAMPLES,
    _CHUNK_ELEMENTS // n) samples: each chunk's block of basis rows
    Q_0 .. Q_{n-1} is reduced with one small matmul against the columns
    [w, w f, w g] and the same columns times Q_{n-1}, written in place into
    one operand allocated once. That gives each Gram's first row and last
    column; :func:`_mixed_moments` fills in the rest.
    """
    if n < 1:
        raise ConfigurationError(f"order must be >= 1, got {n}")
    if basis.size < n:
        raise ConfigurationError(f"basis size {basis.size} too small, need at least {n}")
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
    rows = replace(basis, size=n)
    chunk = min(max(_CHUNK_SAMPLES, _CHUNK_ELEMENTS // n), samples.size)
    measures = 3 if samples.has_g else 2
    columns = [samples.f] + ([samples.g] if samples.has_g else [])
    operand = np.empty((2 * measures, chunk))  # rows: w, w f, w g, then each times Q_{n-1}
    acc = np.zeros((n, 2 * measures))  # columns: first rows, then last columns
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for start in range(0, samples.size, chunk):
            part = slice(start, start + chunk)
            w = samples.w[part]
            op = operand[:, :w.size]
            op[0] = w
            for row, column in enumerate(columns, start=1):
                np.multiply(w, column[part], out=op[row])
            Q = evaluate_all(rows, samples.x[part])
            np.multiply(op[:measures], Q[-1], out=op[measures:])
            acc += Q @ op.T
            del Q  # the next chunk's block is allocated only after this one is freed
        G, A_f, *A_g = _mixed_moments(basis, acc[:, :measures].T, acc[:, measures:].T)
    A_g = A_g[0] if A_g else None
    for name, M in (("G", G), ("A_f", A_f), ("A_g", A_g)):
        if M is not None and not np.isfinite(M).all():
            raise InputDataError(
                f"Gram matrix {name} overflows: sample values too large for order {n}"
            )
    return GramSet(G=G, A_f=A_f, basis=basis, A_g=A_g)


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
