"""Naive dense reference implementation for cross-checking at small order.

Everything here is deliberately independent of the main pipeline: raw
monomials of the untransformed argument, explicit Python-loop sums over
the samples, and a non-symmetric eigensolve of inv(G) A. Only useful at
small n on small sample sets; that is the point. :func:`direct_grams` is
the oracle of the moment route: the Gram matrices as direct sample sums.
"""
from __future__ import annotations

import numpy as np

from .basis import BasisSpec, Family, evaluate_all
from .moments import GramSet


def direct_grams(samples, basis, n):
    """GramSet from the direct sums G_jk = sum_l T_j(x_l) T_k(x_l) w_l, etc.,
    T_k the Chebyshev polynomials on ``basis.domain`` whatever ``basis.family``,
    as for :func:`~lebquad.moments.accumulate_grams`.

    Builds the full n x M basis matrix, so memory and time grow as n M.
    """
    T = evaluate_all(BasisSpec(Family.CHEBYSHEV, n, basis.domain), samples.x)
    w = samples.w

    def gram(weights):
        return (T * weights) @ T.T

    return GramSet(
        G=gram(w), A_f=gram(w * samples.f),
        A_g=gram(w * samples.g) if samples.has_g else None,
    )


def ref_quadrature(x, w, values, n):
    """Nodes, weights, signed amplitudes and raw-monomial coefficient columns.

    Returns (nodes, weights, amplitudes, coeffs) sorted by node ascending;
    column i of coeffs holds the eigenfunction coefficients over 1, x, x^2, ...
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    values = np.asarray(values, dtype=float)
    M = x.size
    G = np.zeros((n, n))
    A = np.zeros((n, n))
    mom = np.zeros(n)
    for j in range(n):
        for l in range(M):
            mom[j] += w[l] * x[l] ** j
        for k in range(n):
            for l in range(M):
                G[j, k] += w[l] * x[l] ** (j + k)
                A[j, k] += w[l] * values[l] * x[l] ** (j + k)
    lam, vecs = np.linalg.eig(np.linalg.solve(G, A))
    lam = lam.real
    vecs = vecs.real
    order = np.argsort(lam)
    nodes = lam[order]
    coeffs = np.empty((n, n))
    amps = np.empty(n)
    for i, idx in enumerate(order):
        v = vecs[:, idx]
        v = v / np.sqrt(v @ G @ v)
        a = v @ mom
        if a < 0:
            v, a = -v, -a
        coeffs[:, i] = v
        amps[i] = a
    return nodes, amps * amps, amps, coeffs


def ref_eigenfunctions_at_samples(x, coeffs):
    """Eigenfunction values psi_i(x_l) from raw-monomial coefficients."""
    x = np.asarray(x, dtype=float)
    n = coeffs.shape[0]
    powers = np.array([[xl**j for j in range(n)] for xl in x])
    return powers @ coeffs  # shape (M, n), column i is psi_i


def ref_joint(x, w, f, g, n):
    """All joint estimators recomputed from pointwise eigenfunction products.

    Returns a dict with nodes/weights for both processes plus the S, V, P
    matrices and both density specializations, everything sorted ascending.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    f_nodes, f_weights, f_amps, f_coeffs = ref_quadrature(x, w, f, n)
    g_nodes, g_weights, g_amps, g_coeffs = ref_quadrature(x, w, g, n)
    psi_f = ref_eigenfunctions_at_samples(x, f_coeffs)
    psi_g = ref_eigenfunctions_at_samples(x, g_coeffs)
    S = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for l in range(x.size):
                S[i, j] += w[l] * psi_f[l, i] * psi_g[l, j]
    V = f_amps[:, None] * S * g_amps[None, :]
    P = S * S
    R_unit = np.outer(f_amps, f_amps)
    density_unit = S * (R_unit @ S)
    density_ident = S * S
    squared_unit = (R_unit @ S) ** 2
    return {
        "f_nodes": f_nodes, "f_weights": f_weights, "f_amplitudes": f_amps,
        "g_nodes": g_nodes, "g_weights": g_weights, "g_amplitudes": g_amps,
        "S": S, "V": V, "P": P,
        "density_unit": density_unit, "density_identity": density_ident,
        "squared_unit": squared_unit,
    }
