"""Sample ingestion and moment-based Gram assembly.

Every Gram and operator matrix <Q_j Q_k>, <Q_j f Q_k>, <Q_j g Q_k> of order
n is a function of the 2n moments <Q_m>, <f Q_m>, <g Q_m>. The samples are
read once, in chunks, to accumulate those moments
(:func:`moments_from_samples`, O(M n) time, O(chunk n) memory); the
matrices are then assembled from the moments alone by the basis
recurrence (:func:`grams_from_moments`, O(n^2)). :func:`accumulate_grams`
chains the two and is the only Gram route of the pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSpec, evaluate_all, recurrence_coefficients
from .errors import ConditioningError, ConfigurationError, DegreeRangeError, InputDataError

# Elements of one chunk's basis block (2n rows by chunk columns), which
# bounds the memory of moment accumulation independently of M.
_CHUNK_ELEMENTS = 1 << 20


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
    """Moments <Q_m>, <f Q_m>, <g Q_m> for m = 0 .. 2n-1."""

    basis: BasisSpec
    mu: np.ndarray
    mu_f: np.ndarray
    mu_g: np.ndarray | None = None

    @property
    def has_g(self) -> bool:
        return self.mu_g is not None


def _check_order(n: int, basis: BasisSpec, minimum: int) -> None:
    if n < 1:
        raise ConfigurationError(f"order must be >= 1, got {n}")
    if basis.size < minimum:
        raise ConfigurationError(
            f"basis size {basis.size} too small, need at least {minimum}"
        )


def _mirror(M: np.ndarray) -> np.ndarray:
    # Bit-for-bit symmetric over the last two axes: keep the upper
    # triangle, mirror it down.
    return np.triu(M) + np.swapaxes(np.triu(M, 1), -1, -2)


def accumulate_grams(samples: SampleSet, basis: BasisSpec, n: int) -> GramSet:
    """Gram and operator matrices of order n over Q_0 .. Q_{n-1} of ``basis``.

    Orders above the number of positive-weight samples are rejected before
    anything n-sized is allocated: such a Gram matrix cannot have full rank.
    Finite samples whose sums overflow to inf or NaN raise InputDataError.
    """
    _check_order(n, basis, n)
    support = int(np.count_nonzero(samples.w))
    if n > support:
        raise ConditioningError(
            f"order {n} exceeds the {support} samples of positive weight",
            effective_rank=support,
        )
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        moments = moments_from_samples(samples, replace(basis, size=2 * n), n)
        grams = replace(grams_from_moments(moments, n), basis=basis)
    for name, M in (("G", grams.G), ("A_f", grams.A_f), ("A_g", grams.A_g)):
        if M is not None and not np.isfinite(M).all():
            raise InputDataError(
                f"Gram matrix {name} overflows: sample values too large for order {n}"
            )
    return grams


def moments_from_samples(samples: SampleSet, basis: BasisSpec, n: int) -> MomentSet:
    """Moments of Q_m against dmu, f dmu, and g dmu for m = 0 .. 2n-1.

    The samples are streamed in chunks: each chunk's basis block is reduced
    against the stacked columns [w, w f, w g] with one small matmul.
    """
    _check_order(n, basis, 2 * n)
    wide = replace(basis, size=2 * n)
    chunk = max(1, _CHUNK_ELEMENTS // (2 * n))
    acc = np.zeros((2 * n, 3 if samples.has_g else 2))
    for start in range(0, samples.size, chunk):
        part = slice(start, start + chunk)
        w = samples.w[part]
        columns = [w, w * samples.f[part]]
        if samples.has_g:
            columns.append(w * samples.g[part])
        acc += evaluate_all(wide, samples.x[part]) @ np.stack(columns, axis=1)
    mu_g = acc[:, 2].copy() if samples.has_g else None
    return MomentSet(basis=basis, mu=acc[:, 0].copy(), mu_f=acc[:, 1].copy(), mu_g=mu_g)


def _mixed_moments(basis: BasisSpec, mu: np.ndarray, n: int) -> np.ndarray:
    """sigma[..., j, k] = <Q_j Q_k> for j < n from sigma[..., 0, :] = mu.

    With t Q_k = a_k Q_{k+1} + c_k Q_{k-1}, <Q_j (t Q_k)> = <(t Q_j) Q_k>
    gives sigma[j+1, k] = (a_k sigma[j, k+1] + c_k sigma[j, k-1]
    - c_j sigma[j-1, k]) / a_j. Row j is valid for k <= K-1-j, K = mu's
    length; the upper triangle is kept and mirrored.
    """
    K = mu.shape[-1]
    a, c = recurrence_coefficients(basis.family, K)
    sigma = np.zeros(mu.shape[:-1] + (n, K))
    sigma[..., 0, :] = mu
    for j in range(n - 1):
        width = K - 1 - j
        row, nxt = sigma[..., j, :], sigma[..., j + 1, :width]
        nxt[...] = a[:width] * row[..., 1:width + 1]
        nxt[..., 1:] += c[1:width] * row[..., :width - 1]
        if j:
            nxt -= c[j] * sigma[..., j - 1, :width]
        nxt /= a[j]
    return _mirror(sigma[..., :n])


def grams_from_moments(moments: MomentSet, n: int) -> GramSet:
    """Gram matrices assembled from moments by the basis recurrence, O(n^2)."""
    if n < 1:
        raise ConfigurationError(f"order must be >= 1, got {n}")
    if moments.mu.size < 2 * n - 1:
        raise DegreeRangeError(
            f"order {n} needs {2 * n - 1} moments, got {moments.mu.size}"
        )
    vectors = [moments.mu, moments.mu_f] + ([moments.mu_g] if moments.has_g else [])
    G, A_f, *A_g = _mixed_moments(moments.basis, np.stack(vectors), n)
    return GramSet(
        n=n, G=G, A_f=A_f, A_g=A_g[0] if A_g else None, m=moments.mu[:n].copy(),
        total_measure=float(moments.mu[0]), basis=moments.basis,
    )
