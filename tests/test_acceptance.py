"""Acceptance suite: one test per criterion, one printed pass/fail line each."""
import time

import numpy as np
import pytest

import lebquad.reference as reference
from lebquad import (
    SampleSet,
    accumulate_grams,
    analyze,
    basis_for_samples,
    density_from_pure_unit,
    density_identity,
    density_matrix_correlation,
    lebesgue_quadrature,
    lebesgue_quadrature_in_f_basis,
    probability_correlation,
    pure_squared_correlation,
    pureness_estimate,
    value_correlation,
)

from conftest import random_atoms

N = 8


def report(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def results(scenario_samples):
    return {name: analyze(samples, n=N)
            for name, samples in scenario_samples.items()}


def _sum_rule_errors(result):
    V = result.correlation("value")
    total = result.grams.total_measure
    e_total = abs(V.total - total) / total
    e_rows = np.abs(V.W.sum(axis=1) - result.quad_f.weights).max() / total
    e_cols = np.abs(V.W.sum(axis=0) - result.quad_g.weights).max() / total
    return max(e_total, e_rows, e_cols)


def test_criterion_01_value_sum_rules(results):
    worst, slowest = 0.0, 0.0
    for name, result in results.items():
        t0 = time.perf_counter()
        worst = max(worst, _sum_rule_errors(result))
        slowest = max(slowest, time.perf_counter() - t0)
    report("1 value-correlation sum rules on all fixtures",
           worst <= 1e-8 and slowest < 5.0,
           f"max rel err {worst:.2e}, slowest fixture {slowest:.2f}s")


def test_criterion_02_probability_normalization(results):
    worst = 0.0
    for result in results.values():
        P = result.correlation("probability")
        worst = max(worst,
                    abs(P.total - N) / N,
                    np.abs(P.W.sum(axis=0) - 1).max(),
                    np.abs(P.W.sum(axis=1) - 1).max())
    report("2 probability normalization and double stochasticity",
           worst <= 1e-8, f"max err {worst:.2e}")


def test_criterion_03_density_specializations(results):
    worst = 0.0
    for result in results.values():
        S = result.projection()
        V = value_correlation(result.quad_f, result.quad_g, S)
        P = probability_correlation(S)
        D_unit = density_matrix_correlation(S, density_from_pure_unit(result.quad_f))
        D_ident = density_matrix_correlation(S, density_identity(N))
        worst = max(worst,
                    np.abs(D_unit.W - V.W).max() / max(np.abs(V.W).max(), 1.0),
                    np.abs(D_ident.W - P.W).max())
    report("3 density-matrix specializations reproduce V and P",
           worst <= 1e-10, f"max err {worst:.2e}")


def test_criterion_04_pure_state_factorization(results):
    worst_mat, worst_sum, worst_pure = 0.0, 0.0, 0.0
    rng = np.random.default_rng(71)
    for result in results.values():
        S = result.projection()
        rho = density_from_pure_unit(result.quad_f)
        W = pure_squared_correlation(S, rho).W
        expected = np.outer(result.quad_f.weights, result.quad_g.weights)
        total = result.grams.total_measure
        worst_mat = max(worst_mat, np.abs(W - expected).max() / expected.max())
        worst_sum = max(worst_sum, abs(W.sum() - total**2) / total**2)
        worst_pure = max(worst_pure, pureness_estimate(S, rho))
        for _ in range(3):
            u = rng.standard_normal(N)
            u /= np.linalg.norm(u)
            from lebquad.joint import DensityMatrix
            worst_pure = max(worst_pure,
                             pureness_estimate(S, DensityMatrix(R=np.outer(u, u))))
    report("4 pure-state factorization and zero pureness",
           worst_mat <= 1e-10 and worst_sum <= 1e-8 and worst_pure <= 1e-8,
           f"matrix {worst_mat:.2e}, sum {worst_sum:.2e}, pureness {worst_pure:.2e}")


def test_criterion_05_gauss_reduction():
    t0 = time.perf_counter()
    M = 10**5
    x = -1 + (np.arange(M) + 0.5) * 2 / M
    samples = SampleSet(x=x, w=np.full(M, 2 / M), f=x)
    q2 = analyze(samples, n=2).quad_f
    q3 = analyze(samples, n=3).quad_f
    e2 = max(np.abs(q2.nodes - [-0.5773503, 0.5773503]).max(),
             np.abs(q2.weights - 1.0).max())
    e3 = max(np.abs(q3.nodes - [-0.7745967, 0.0, 0.7745967]).max(),
             np.abs(q3.weights - [5 / 9, 8 / 9, 5 / 9]).max())
    dt = time.perf_counter() - t0
    report("5 Gauss quadrature recovered for f(x) = x",
           e2 <= 1e-5 and e3 <= 1e-4 and dt < 10.0,
           f"n=2 err {e2:.2e}, n=3 err {e3:.2e}, {dt:.2f}s")


def test_criterion_06_diagonal_case(scenario_samples):
    base = scenario_samples["smooth"]
    samples = SampleSet(x=base.x, w=base.w, f=base.f, g=base.f)
    result = analyze(samples, n=N)
    S = result.projection()
    V = value_correlation(result.quad_f, result.quad_g, S)
    P = probability_correlation(S)
    total = result.grams.total_measure
    off = np.abs(V.W - np.diag(np.diag(V.W))).max()
    e_p = np.abs(P.W - np.eye(N)).max()
    report("6 f = g gives diagonal V and identity P",
           off <= 1e-8 * total and e_p <= 1e-8,
           f"off-diag V {off:.2e} (scale {total:.0f}), P err {e_p:.2e}")


def test_criterion_07_two_route_equivalence(results):
    worst = 0.0
    for result in results.values():
        direct = lebesgue_quadrature(result.grams, "g")
        shortcut = lebesgue_quadrature_in_f_basis(result.grams, result.quad_f)
        scale = np.abs(direct.nodes).max()
        worst = max(worst, np.abs(direct.nodes - shortcut.nodes).max() / scale)
    report("7 f-eigenbasis route matches direct generalized solve",
           worst <= 1e-8, f"max rel eigenvalue err {worst:.2e}")


def test_criterion_08_brute_force_oracle():
    t0 = time.perf_counter()
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
        rho = density_from_pure_unit(result.quad_f)
        checks = [
            (result.quad_f.nodes, ref["f_nodes"]),
            (result.quad_f.weights, ref["f_weights"]),
            (result.quad_g.nodes, ref["g_nodes"]),
            (result.quad_g.weights, ref["g_weights"]),
            (result.correlation("value", S=S).W, ref["V"]),
            (result.correlation("probability", S=S).W, ref["P"]),
            (density_matrix_correlation(S, rho).W, ref["density_unit"]),
            (pure_squared_correlation(S, rho).W, ref["squared_unit"]),
        ]
        for got, want in checks:
            worst = max(worst, np.abs(np.asarray(got) - want).max())
    dt = time.perf_counter() - t0
    report("8 naive-arithmetic oracle agrees on 50 random small cases",
           worst <= 1e-10 and dt < 5.0, f"max abs err {worst:.2e}, {dt:.2f}s")


def test_criterion_09_moment_path_equivalence(scenario_samples):
    worst = 0.0
    for samples in scenario_samples.values():
        basis = basis_for_samples(samples, N)
        direct = reference.direct_grams(samples, basis, N)
        via = accumulate_grams(samples, basis, N)
        for got, want in ((via.G, direct.G), (via.A_f, direct.A_f),
                          (via.A_g, direct.A_g)):
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    report("9 moment route matches direct Gram accumulation",
           worst <= 1e-10, f"max rel err {worst:.2e}")


def test_criterion_10_robustness_at_high_order(scenario_samples):
    worst = 0.0
    for name in ("spikes", "student_t"):
        result = analyze(scenario_samples[name], n=12)
        S = result.projection()
        worst = max(worst, _sum_rule_errors(result))
        P = probability_correlation(S)
        worst = max(worst, abs(P.total - 12) / 12)
        V = value_correlation(result.quad_f, result.quad_g, S)
        D_unit = density_matrix_correlation(S, density_from_pure_unit(result.quad_f))
        worst = max(worst,
                    np.abs(D_unit.W - V.W).max() / max(np.abs(V.W).max(), 1.0))
        rho = density_from_pure_unit(result.quad_f)
        W = pure_squared_correlation(S, rho).W
        expected = np.outer(result.quad_f.weights, result.quad_g.weights)
        worst = max(worst, np.abs(W - expected).max() / expected.max())
    report("10 spike and fat-tail fixtures survive n = 12",
           worst <= 1e-8, f"max err {worst:.2e}")
