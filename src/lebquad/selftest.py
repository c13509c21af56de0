"""The paper's identities as one table, shared by ``lebquad selftest`` and the tests.

:func:`identity_rows` measures every identity on one joint result and
:func:`oracle_rows` compares the pipeline with the naive reference on a
fixed case set; both return ``(label, error, tolerance)`` rows, and an
identity holds when ``error <= tolerance``. :func:`run_selftest` prints one
PASS/FAIL line per row over the four built-in scenarios at n = 8, plus the
conditioning check: 50 lines in all.
"""
from __future__ import annotations

import sys

import numpy as np

from . import joint as joint_ops
from . import reference
from .datagen import builtin_scenario_names, generate, load_scenario
from .errors import ConditioningError, LebquadError
from .moments import SampleSet
from .pipeline import analyze

SUM_RULE_TOL = 1e-8
EXACT_TOL = 1e-10


def _err(got, want, scale) -> float:
    """max |got - want| relative to min(1 + |want|, scale), entrywise.

    This is the strictest of an absolute error (scale 1), an error relative
    to a global scale, and numpy's allclose with rtol = atol.
    """
    want = np.asarray(want, dtype=float)
    diff = np.abs(np.asarray(got, dtype=float) - want)
    return float(np.max(diff / np.minimum(1.0 + np.abs(want), scale)))


def identity_rows(result) -> list[tuple[str, float, float]]:
    """(label, error, tolerance) for every identity of the paper on one joint result.

    ``<1>`` is the total measure of the samples. V, P, D and squared are
    the value, probability, density-matrix and squared correlations.
    """
    n = result.n
    T = float(result.samples.w.sum())
    S = result.projection()
    rho_unit = joint_ops.density_from_pure_unit(result.quad_f)
    V = result.correlation(joint_ops.VALUE, S=S)
    P = result.correlation(joint_ops.PROBABILITY, S=S)
    D_unit = result.correlation(joint_ops.DENSITY, rho=rho_unit, S=S)
    D_ident = result.correlation(joint_ops.DENSITY, rho=joint_ops.density_identity(n), S=S)
    sq = result.correlation(joint_ops.PURE_SQUARED, rho=rho_unit, S=S)
    weights = np.outer(result.quad_f.weights, result.quad_g.weights)
    return [
        ("value sum rule total = <1>", _err(V.total, T, T), SUM_RULE_TOL),
        ("value row sums = f-weights",
         _err(V.W.sum(axis=1), result.quad_f.weights, T), SUM_RULE_TOL),
        ("value column sums = g-weights",
         _err(V.W.sum(axis=0), result.quad_g.weights, T), SUM_RULE_TOL),
        ("probability total = n", _err(P.total, n, n), SUM_RULE_TOL),
        ("probability doubly stochastic",
         max(_err(P.W.sum(axis=0), 1.0, 1.0), _err(P.W.sum(axis=1), 1.0, 1.0)),
         SUM_RULE_TOL),
        ("density total = spur(rho)",
         _err(D_unit.total, rho_unit.spur, abs(rho_unit.spur)), SUM_RULE_TOL),
        ("spur(pure unit) = <1>", _err(rho_unit.spur, T, T), SUM_RULE_TOL),
        ("density(pure unit) = value correlation",
         _err(D_unit.W, V.W, np.abs(V.W).max()), EXACT_TOL),
        ("density(identity) = probability correlation",
         _err(D_ident.W, P.W, 1.0), EXACT_TOL),
        ("squared(pure unit) = product of weights",
         _err(sq.W, weights, weights.max()), EXACT_TOL),
        ("squared(pure unit) total = <1>^2", _err(sq.total, T**2, T**2), SUM_RULE_TOL),
        ("pureness of pure state = 0",
         joint_ops.pureness_estimate(S, rho_unit), SUM_RULE_TOL),
    ]


def random_atoms(rng, atoms) -> SampleSet:
    """Small random atomic measure with f and g, for oracle comparisons."""
    x = np.sort(rng.uniform(-1, 1, atoms))
    w = rng.uniform(0.2, 1.5, atoms)
    return SampleSet(x=x, w=w, f=rng.standard_normal(atoms), g=rng.standard_normal(atoms))


def oracle_rows() -> list[tuple[str, float, float]]:
    """The pipeline against ``reference.ref_joint`` on 50 random small cases.

    Atomic measures of 3-5 atoms at orders 1-3 (seed 83), monomial basis;
    the error is the largest absolute difference over the nodes and
    weights of both processes and V, P, D(pure unit), squared(pure unit).
    """
    rng = np.random.default_rng(83)
    worst = 0.0
    cases = 0
    while cases < 50:
        atoms = int(rng.integers(3, 6))
        n = int(rng.integers(1, 4))
        if n > atoms:
            continue
        cases += 1
        s = random_atoms(rng, atoms)
        ref = reference.ref_joint(s.x, s.w, s.f, s.g, n)
        result = analyze(s, n=n, family="monomial")
        S = result.projection()
        rho = joint_ops.density_from_pure_unit(result.quad_f)
        pairs = [
            (result.quad_f.nodes, ref["f_nodes"]),
            (result.quad_f.weights, ref["f_weights"]),
            (result.quad_g.nodes, ref["g_nodes"]),
            (result.quad_g.weights, ref["g_weights"]),
            (result.correlation(joint_ops.VALUE, S=S).W, ref["V"]),
            (result.correlation(joint_ops.PROBABILITY, S=S).W, ref["P"]),
            (result.correlation(joint_ops.DENSITY, rho=rho, S=S).W, ref["density_unit"]),
            (result.correlation(joint_ops.PURE_SQUARED, rho=rho, S=S).W,
             ref["squared_unit"]),
        ]
        for got, want in pairs:
            worst = max(worst, _err(got, want, 1.0))
    return [("oracle: naive reference agrees at n <= 3", worst, EXACT_TOL)]


def _conditioning_check():
    # 3 distinct atoms cannot support an order-4 pencil; the solver must say so.
    samples = SampleSet(
        x=np.array([-0.5, 0.1, 0.7]), w=np.ones(3),
        f=np.array([1.0, 2.0, 3.0]),
    )
    try:
        analyze(samples, n=4)
    except ConditioningError as exc:
        return ("conditioning: rank-deficient fixture rejected "
                f"(effective rank {exc.effective_rank})", True)
    except LebquadError:
        return ("conditioning: rank-deficient fixture rejected", False)
    return ("conditioning: rank-deficient fixture rejected", False)


def run_selftest(out=None) -> int:
    """Run all identities; print one line each; return 0 iff all pass."""
    out = out or sys.stdout
    rows = []
    for name in builtin_scenario_names():
        result = analyze(generate(load_scenario(name)), n=8)
        rows += [(f"{name}: {label}", err, tol) for label, err, tol in identity_rows(result)]
    rows += oracle_rows()
    # "err <= tol" is False for NaN, which must fail
    checks = [(f"{label} (err {err:.2e}, tol {tol:.0e})", err <= tol)
              for label, err, tol in rows]
    checks.append(_conditioning_check())
    failures = [label for label, passed in checks if not passed]
    for label, passed in checks:
        out.write(f"{'PASS' if passed else 'FAIL'}  {label}\n")
    if failures:
        out.write(f"selftest: FAILED at '{failures[0]}'\n")
        return 1
    out.write(f"selftest: all {len(checks)} identities pass\n")
    return 0
