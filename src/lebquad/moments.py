"""Sample ingestion and moment-based Gram assembly.

Every Gram and operator matrix <Q_j Q_k>, <Q_j f Q_k>, <Q_j g Q_k> of order
n follows, by the basis recurrence, from its first row <Q_k> and its last
column <Q_{n-1} Q_k>. :func:`accumulate_grams`, the one Gram route, reads
the samples once, in chunks, evaluating n basis rows and reducing them to
each Gram's first row and last column (O(M n) time, O(chunk n) memory);
the recurrence fills the rest from those alone (:func:`_mixed_moments`,
O(n^2)). A chunk's working set, its block of basis rows plus the operand
they are reduced against, is kept to about 1 MiB, so that it stays in L2
cache, but a chunk holds at least 4096 samples (see _CHUNK_ELEMENTS). Every
chunk is evaluated into one workspace, allocated once per call, whose rows
each start on a cache line, so that the pass does not run at whatever speed
the heap's layout gives it (see _LINE).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSpec, evaluate_all, recurrence_coefficients
from .errors import ConditioningError, ConfigurationError, InputDataError

# A chunk's working set, its block of n basis rows plus the (2 measures,
# chunk) operand they are reduced against, holds about _CHUNK_ELEMENTS
# doubles (1 MiB), so that it stays in a core's L2 cache (2 MiB on the Xeon
# it was tuned on) while the reduction matmul reads it; at n = 32, 4 MiB
# blocks made that matmul about 1.6x slower. But a chunk never holds fewer
# than _CHUNK_SAMPLES samples: each of the n rows of the recurrence is a few
# numpy calls, whose fixed cost shorter rows would not amortize (at n = 1000
# the 131-sample chunks of a 1 MiB block made the moment pass 3-4x slower).
# The floor decides from n + 2 measures >= 32 on (n >= 26 with g), and from
# n >= _CHUNK_SAMPLES on the block is at most one n x n array. Each chunk's
# block is reduced to each Gram's first row and last column, then overwritten
# by the next chunk's; the recurrence fills the rest. This bounds the memory
# of moment accumulation independently of M.
_CHUNK_ELEMENTS = 1 << 17
_CHUNK_SAMPLES = 4096

# The block and the operand are one workspace, allocated once per call and
# reused by every chunk, and each of their rows starts on a _LINE-byte cache
# line. The loop stores whole rows, and rows off a line made it slower: at
# M = 1e6 (spikes laws, layouts interleaved in one process, 2-vCPU Xeon),
# rows 16, 32 or 48 bytes past a line took 1.3-1.45x as long at n = 8, 32 and
# 64 (Chebyshev) and at n = 32 (Legendre). An array from malloc is only 16-byte
# aligned, at whatever offset the heap's layout gives it. Rows 4 KiB apart,
# or staggered 1 KiB apart modulo 4 KiB, measured the same as rows on lines,
# and so did every offset of the recurrence's one scratch row.
_LINE = 64

# n x n float64 arrays alive at once at an order-n run's peak: the three Grams,
# their assembly, the eigensolvers' arrays, the joint estimates and the writer's
# rows, plus one block of basis rows from n = _CHUNK_SAMPLES on (128 MiB below).
# `lebquad joint`, all four kinds, JSON or CSV (smooth laws, M = 4e4), peaked at
# 12.9-13.0 of them above its RSS before analyze at n = 1000 and 12.5-12.6 at 1500.
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


@dataclass(frozen=True)
class GramSet:
    """Gram and operator matrices of a SampleSet in a given basis.

    Row 0 of G is the moment vector <Q_k>, and G[0, 0] the total measure.
    """

    G: np.ndarray
    A_f: np.ndarray
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
    InputDataError, as does an f or g operator that underflows to zero.

    The samples are streamed in chunks of max(_CHUNK_SAMPLES,
    _CHUNK_ELEMENTS // (n + 2 measures)) samples, measures being 3 with a
    g column and 2 without: each chunk's block of basis rows
    Q_0 .. Q_{n-1} is reduced with one small matmul against the columns
    [w, w f, w g] and the same columns times Q_{n-1}. Block and operand are
    written in place into one workspace (:func:`_workspace`), freed before
    :func:`_mixed_moments` fills in the rest from each Gram's first row and
    last column. Zero-weight samples are evaluated at the domain's midpoint.
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
    measures = 3 if samples.has_g else 2
    chunk = min(max(_CHUNK_SAMPLES, _CHUNK_ELEMENTS // (n + 2 * measures)), samples.size)
    columns = [samples.f] + ([samples.g] if samples.has_g else [])
    # Zero-weight samples add 0 to every sum wherever they are evaluated, but
    # far outside the domain Q_k overflows and 0 inf is NaN: they are
    # evaluated at the domain's midpoint, where every |Q_k| <= 1.
    midpoint = 0.5 * basis.domain.x_min + 0.5 * basis.domain.x_max
    # operand rows: w, w f, w g, then each times Q_{n-1}
    block, operand = _workspace(n, measures, chunk)
    acc = np.zeros((n, 2 * measures))  # columns: first rows, then last columns
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for start in range(0, samples.size, chunk):
            part = slice(start, start + chunk)
            w, x = samples.w[part], samples.x[part]
            if support < samples.size:
                x = np.where(w > 0, x, midpoint)
            op = operand[:, :w.size]
            op[0] = w
            for row, column in enumerate(columns, start=1):
                np.multiply(w, column[part], out=op[row])
            Q = evaluate_all(rows, x, block[:, :w.size])
            for row in range(measures):  # row by row: a broadcast may allocate a ufunc buffer
                np.multiply(op[row], Q[-1], out=op[measures + row])
            acc += Q @ op.T
        del block, operand, op, Q  # the workspace is freed before the n x n assembly
        G, A_f, *A_g = _mixed_moments(basis, acc[:, :measures].T, acc[:, measures:].T)
    A_g = A_g[0] if A_g else None
    for name, M, values in (("G", G, None), ("A_f", A_f, samples.f), ("A_g", A_g, samples.g)):
        if M is not None and not np.isfinite(M).all():
            raise InputDataError(
                f"Gram matrix {name} overflows: sample values too large for order {n}"
            )
        # all zero by underflow, not cancellation: some w f of nonzero w and f is 0
        if values is not None and not M.any() and np.any(
                (samples.w * values == 0) & (samples.w != 0) & (values != 0)):
            raise InputDataError(f"Gram matrix {name} underflows to zero: sample values too small")
    return GramSet(G=G, A_f=A_f, A_g=A_g)


def _workspace(n: int, measures: int, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """A chunk's (n, chunk) block of basis rows and its (2 measures, chunk)
    operand: views into one buffer, each row starting on a _LINE-byte line."""
    stride = 8 * chunk + (-8 * chunk) % _LINE
    raw = np.empty(_LINE + (n + 2 * measures) * stride, dtype=np.uint8)
    rows = np.ndarray((n + 2 * measures, chunk), buffer=raw,
                      offset=-raw.ctypes.data % _LINE, strides=(stride, 8))
    return rows[:n], rows[n:]


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
