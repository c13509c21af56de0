"""Sample ingestion and moment-based Gram assembly.

Every Gram and operator matrix is over the Chebyshev T_k, whatever the
family, whose pencil is the same (:func:`io.quadrature_payload` re-expresses
alpha). Each of order n follows from the 2n - 1 Chebyshev moments <T_i>,
<f T_i>, <g T_i>, i <= 2n - 2, since T_a T_b = (T_{a+b} + T_{|a-b|}) / 2.
:func:`accumulate_grams`, the one Gram route, reads the samples once, in
chunks, reducing them to those moments with a two-level product
(:func:`_chebyshev_moments`): about 2n / P + 1 Chebyshev rows times P
multiplier rows, P about sqrt(n), in place of n basis rows (O(M n) time,
O(chunk sqrt(n)) memory), with w, f and g scaled by exact powers of two
(:func:`accumulate_grams`). Each Gram is then the matrix
H[a, b] = m_{a+b} / 2 + m_{|a-b|} / 2 (:func:`_grams_from_moments`, O(n^2)). A
chunk's working set, its rows plus the operand they are reduced against, is
kept to about 1 MiB, so that it stays in L2 cache, but a chunk holds at
least 4096 samples (see _CHUNK_ELEMENTS). Every chunk is evaluated into one
workspace, allocated once per call, whose rows each start on a cache line,
so that the pass does not run at whatever speed the heap's layout gives it
(see _LINE).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, DomainMap, Family, evaluate_all, scale_exponent
from .errors import ConditioningError, ConfigurationError, InputDataError

# A chunk's working set, its rows (the block of Chebyshev rows, the
# multiplier rows and the (P measures, chunk) operand they are reduced
# against), holds about _CHUNK_ELEMENTS doubles (1 MiB), so that it stays in
# a core's L2 cache (2 MiB on the Xeon it was tuned on) while the reduction
# matmul reads it; at n = 32, 4 MiB blocks made that matmul about 1.6x
# slower. But a chunk never holds fewer than _CHUNK_SAMPLES samples: each
# row is a few numpy calls, whose fixed cost shorter rows would not amortize
# (at n = 1000 the 131-sample chunks of a 1 MiB block made the moment pass
# 3-4x slower). The floor decides from 32 rows on (n >= 32 with g). Each
# chunk's rows are reduced to the Chebyshev moments, then overwritten by the
# next chunk's. This bounds the memory of moment accumulation independently
# of M.
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

# n x n float64 arrays alive at once at an order-n run's peak: the three Grams, their assembly, the
# eigensolvers' arrays, the joint estimates and the writer's rows; the moment pass's workspace is
# freed before the Grams are assembled. `lebquad joint`, all four kinds, JSON or CSV (smooth laws,
# M = 4e4, n = 1000, 1500), peaked at 9.4-12.9 of them above its RSS before analyze.
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
    pipeline is available. A sample of zero weight is not part of the
    measure: it is dropped on construction.
    """

    x: np.ndarray
    w: np.ndarray
    f: np.ndarray
    g: np.ndarray | None = None
    spans: dict[str, tuple[float, float]] = field(init=False, repr=False)  # (min, max) per column

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
        spans = _spans(columns)
        if not np.isfinite(list(spans.values())).all() or spans["w"][0] < 0:
            bad = w < 0
            for _, arr in columns:
                bad |= ~np.isfinite(arr)
            # the first bad record; within it, non-finite x, w, f, g, then the weight's sign
            row = int(bad.argmax())
            for name, arr in columns:
                if not np.isfinite(arr[row]):
                    raise InputDataError(f"non-finite value in column '{name}'", record=row + 1)
            raise InputDataError(f"negative weight {w[row]}", record=row + 1)
        if not spans["w"][1]:
            raise InputDataError("total measure must be positive")
        if not spans["w"][0]:  # zero weights are not part of the measure
            positive = w > 0
            columns = tuple((name, arr[positive]) for name, arr in columns)
            spans = _spans(columns)
        object.__setattr__(self, "spans", spans)
        for name, arr in columns:
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return self.x.size

    @property
    def has_g(self) -> bool:
        return self.g is not None


def _spans(columns) -> dict[str, tuple[float, float]]:
    """(min, max) of each (name, column); NaN propagates through both."""
    with np.errstate(invalid="ignore"):
        return {name: (float(arr.min()), float(arr.max())) for name, arr in columns}


def _halved_sum(M: np.ndarray) -> np.ndarray:
    # 0.5 M + 0.5 M^T: the same bits as 0.5 (M + M^T) above the subnormal
    # range, as halving is exact there, but finite wherever M is
    return 0.5 * M + 0.5 * M.T


def symmetrized(M, name: str) -> np.ndarray:
    """(M + M^T) / 2 of a non-empty square M that is symmetric to within 1e-10
    of its largest entry; InputDataError otherwise. It is finite wherever M
    is; NaN in M is the caller's to report."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise InputDataError(f"{name} must be square and non-empty, got shape {M.shape}")
    scale = np.abs(M).max() or 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if np.abs(M - M.T).max() > 1e-10 * scale:
            raise InputDataError(f"{name} is not symmetric")
        return _halved_sum(M)


@dataclass(frozen=True)
class GramSet:
    """Gram and operator matrices of a SampleSet, over T_k whatever the family
    (:func:`accumulate_grams`), scaled: with (e_w, e_f, e_g) = ``exponents``,
    G = <T_j T_k> 2^-e_w, A_f = <T_j f T_k> 2^-(e_w + e_f) and
    A_g = <T_j g T_k> 2^-(e_w + e_g). Row 0 of G is the moment vector <T_k>.
    Each is checked here, once: square, of G's shape, finite and symmetric
    (:func:`symmetrized`), else InputDataError; it is stored symmetrized."""

    G: np.ndarray
    A_f: np.ndarray
    A_g: np.ndarray | None = None
    exponents: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        shape = np.shape(self.G)
        for name in ("G", "A_f", "A_g")[:2 + (self.A_g is not None)]:
            M = symmetrized(getattr(self, name), name)
            if M.shape != shape:
                raise InputDataError(f"{name} has shape {M.shape}, G has {shape}")
            if not np.isfinite(M).all():
                raise InputDataError(f"{name} has a non-finite entry")
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def m(self) -> np.ndarray:
        return self.G[0]

    @property
    def total_measure(self) -> float:
        """G[0, 0] 2^e_w, the sum of the weights; inf past the float maximum."""
        with np.errstate(over="ignore"):
            return float(np.ldexp(self.G[0, 0], self.exponents[0]))

    @property
    def has_g(self) -> bool:
        return self.A_g is not None


def accumulate_grams(samples: SampleSet, basis: BasisSpec, n: int) -> GramSet:
    """Gram and operator matrices of order n over T_0 .. T_{n-1} on
    ``basis.domain``, whatever ``basis.family`` (it reads domain and size).

    Orders above the number of samples are rejected before anything n-sized
    is allocated: such a Gram matrix cannot have full rank. So are orders
    above :func:`max_order`, whose arrays would not fit in physical memory.

    Each column c in [w, f, g] is scaled by 2^-e_c, e_c the
    :func:`scale_exponent` of its span, so that |c 2^-e_c| < 2: every
    |u| < 4 and |T_j| <= 1, so each Gram entry is below 4M, and
    G[0, 0] >= 1/2. The samples are reduced to the Chebyshev moments
    m_j = sum u T_j(t), j = 0 .. 2n-2, of each scaled measure u in
    [w, w f, w g], whatever the family
    (:func:`_chebyshev_moments`, whose workspace is freed on return). Each
    Gram is H[a, b] = m_{a+b} / 2 + m_{|a-b|} / 2 (:func:`_grams_from_moments`).
    """
    if n < 1:
        raise ConfigurationError(f"order must be >= 1, got {n}")
    if basis.size < n:
        raise ConfigurationError(f"basis size {basis.size} too small, need at least {n}")
    if n > samples.size:
        raise ConditioningError(
            f"order {n} exceeds the {samples.size} samples of positive weight",
            effective_rank=samples.size,
        )
    if n > max_order():
        raise ConfigurationError(
            f"order {n} needs {8 * _SQUARE_ARRAYS * n * n / 2**30:.3g} GiB for its "
            f"n x n arrays, more than the {physical_memory() / 2**30:.3g} GiB of "
            f"physical memory"
        )
    exponents = tuple(scale_exponent(*samples.spans.get(name, (0.0, 0.0))) for name in "wfg")
    m = _chebyshev_moments(samples, basis.domain, n, exponents)
    G, A_f, *A_g = _grams_from_moments(m[:, :2 * n - 1])
    return GramSet(G=G, A_f=A_f, A_g=A_g[0] if A_g else None, exponents=exponents)


def _split(n: int) -> tuple[int, int]:
    """(h, P) of the two-level product: the rows T_0 .. T_h times the P
    multipliers T_{ph}, p < P, give the moments up to m_{hP}, hP >= 2n - 2.

    P is the largest power of two <= sqrt(n), and h = ceil((2n - 2) / P).
    A chunk then costs about 2h + 5P row passes with g (2 per Chebyshev row,
    2 per multiplier row, and one product per operand row). Measured against
    P in {1, 2, 4, 8} (spikes laws, M = 1e6, interleaved in one process,
    2-vCPU Xeon), the rule picked the fastest, or one within 7% of it, at
    every n in {2, 3, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128}; at n = 1000
    (smooth laws, M = 4e4) P = 16 and 32 measured the same and 4 1.3x slower.
    """
    P = 1 << (n.bit_length() - 1) // 2
    return -(-(2 * n - 2) // P), P


def _chebyshev_moments(samples: SampleSet, domain: DomainMap, n: int,
                       exponents: tuple[int, int, int]) -> np.ndarray:
    """m[u, j] = sum_l u_l T_j(t_l), j = 0 .. hP (:func:`_split`), for the
    measures u in [w', w' f', w' g'], c' = c 2^-e_c with (e_w, e_f, e_g) =
    ``exponents``.

    Each chunk evaluates the Chebyshev rows T_0 .. T_h with
    :func:`evaluate_all` and the multipliers T_{ph} = T_p(T_h), p < P, with
    the recurrence T_{(p+1)h} = 2 T_h T_{ph} - T_{(p-1)h}; one matmul reduces
    the rows against the operand rows u T_{ph}, adding
    S[k, p, u] = sum u T_k T_{ph} = (m_{ph+k} + m_{|ph-k|}) / 2 over the
    chunks. Then m_k = S[k, 0], k <= h, and block by block in p,
    m_{ph+k} = 2 (S[k, p] - m_{ph-k} / 2), k = 1 .. h: halving first keeps it
    finite wherever the moments are.
    """
    h, P = _split(n)
    rows = BasisSpec(Family.CHEBYSHEV, h + 1, domain)
    measures = 3 if samples.has_g else 2
    block, multipliers, operand = _workspace(h, P, measures, samples.size)
    chunk = block.shape[1]
    e_w, *scales = exponents
    columns = list(zip((samples.f, samples.g), scales))[:measures - 1]
    acc = np.zeros((h + 1, P * measures))
    for start in range(0, samples.size, chunk):
        part = slice(start, start + chunk)
        w, x = samples.w[part], samples.x[part]
        op = operand[:, :w.size]  # row p measures + u holds u T_{ph}
        np.ldexp(w, -e_w, out=op[0])
        for row, (column, e) in enumerate(columns, start=1):
            # scaled before the product, which could underflow first
            np.ldexp(column[part], -e, out=op[row])
            op[row] *= op[0]
        T = evaluate_all(rows, x, block[:, :w.size])
        factors = [T[h]] if P > 1 else []  # T_{ph}, p = 1 .. P-1
        if P > 2:  # multiplier rows T_{2h} .. T_{(P-1)h}, then 2 T_h
            twice = np.multiply(T[h], 2.0, out=multipliers[-1, :w.size])
            prev = 1.0
            for nxt in multipliers[:-1, :w.size]:
                np.multiply(twice, factors[-1], out=nxt)
                nxt -= prev
                prev = factors[-1]
                factors.append(nxt)
        for p, factor in enumerate(factors, start=1):
            for u in range(measures):  # row by row: a broadcast may allocate a ufunc buffer
                np.multiply(op[u], factor, out=op[p * measures + u])
        acc += T @ op.T
    S = acc.reshape(h + 1, P, measures).transpose(2, 1, 0)  # S[u, p, k]
    m = np.empty((measures, h * P + 1))
    m[:, :h + 1] = S[:, 0]
    for p in range(1, P):
        below = m[:, (p - 1) * h:p * h][:, ::-1]  # m_{ph-k}, k = 1 .. h
        m[:, p * h + 1:(p + 1) * h + 1] = 2.0 * (S[:, p, 1:] - 0.5 * below)
    return m


def _workspace(h: int, P: int, measures: int,
               size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A chunk's (h + 1, chunk) block of Chebyshev rows, its multiplier rows
    (T_{2h} .. T_{(P-1)h} and 2 T_h, for P > 2) and its (P measures, chunk)
    operand: views into one buffer, each row starting on a _LINE-byte line.
    All the rows together hold _CHUNK_ELEMENTS, or the chunk sits at the
    _CHUNK_SAMPLES floor; it never exceeds the ``size`` samples."""
    counts = (h + 1, P - 1 if P > 2 else 0, P * measures)
    chunk = min(max(_CHUNK_SAMPLES, _CHUNK_ELEMENTS // sum(counts)), size)
    stride = 8 * chunk + (-8 * chunk) % _LINE
    raw = np.empty(_LINE + sum(counts) * stride, dtype=np.uint8)
    rows = np.ndarray((sum(counts), chunk), buffer=raw,
                      offset=-raw.ctypes.data % _LINE, strides=(stride, 8))
    return rows[:counts[0]], rows[counts[0]:-counts[2]], rows[-counts[2]:]


def _grams_from_moments(m: np.ndarray) -> np.ndarray:
    """Each measure's Chebyshev Gram <T_j T_k u>, j, k < n, from its moments
    m[u, i], i <= 2n - 2: H[u, a, b] = m_{a+b} / 2 + m_{|a-b|} / 2,
    bit-symmetric and finite wherever the moments are."""
    n = (m.shape[-1] + 1) // 2
    half = 0.5 * m
    mirrored = np.concatenate((half[:, n - 1:0:-1], half[:, :n]), axis=-1)  # half_{|i-n+1|}
    # strided views: [u, a, b] of half_{a+b} and of mirrored_{n-1+a-b}
    hankel = np.ndarray(half.shape[:1] + (n, n), buffer=half, strides=half.strides + (8,))
    toeplitz = np.ndarray(hankel.shape, buffer=mirrored, offset=8 * (n - 1),
                          strides=mirrored.strides + (-8,))
    return hankel + toeplitz
