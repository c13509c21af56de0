"""Acceptance suite: one test per criterion, one printed pass/fail line each."""
import time

import numpy as np
import pytest

import lebquad.reference as reference
from lebquad import (
    GramSet,
    SampleSet,
    accumulate_grams,
    analyze,
    basis_for_samples,
    lebesgue_quadrature,
    lebesgue_quadrature_in_f_basis,
    probability_correlation,
    pureness_estimate,
    value_correlation,
)
from lebquad.joint import DensityMatrix
from lebquad.selftest import identity_rows, oracle_rows

N = 8


def report(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def report_rows(criterion, rows, extra_ok=True, extra=""):
    """Pass iff every (label, error, tolerance) row holds; show the closest call."""
    failed = [f"{label}: {err:.2e} > {tol:.0e}" for label, err, tol in rows
              if not err <= tol]
    label, err, tol = max(rows, key=lambda row: row[1] / row[2])
    detail = "; ".join(failed) or f"closest {label} {err:.2e} vs {tol:.0e}"
    report(criterion, not failed and extra_ok, detail + (f", {extra}" if extra else ""))


@pytest.fixture(scope="module")
def results(scenario_samples):
    return {name: analyze(samples, n=N)
            for name, samples in scenario_samples.items()}


@pytest.fixture(scope="module")
def rows(results):
    """Identity rows of every fixture, and the slowest fixture's seconds."""
    table, slowest = [], 0.0
    for name, result in results.items():
        t0 = time.perf_counter()
        table += [(f"{name}: {label}", err, tol) for label, err, tol in identity_rows(result)]
        slowest = max(slowest, time.perf_counter() - t0)
    return table, slowest


def select(rows, *labels):
    return [row for row in rows if row[0].split(": ", 1)[1].startswith(labels)]


def test_criterion_01_value_sum_rules(rows):
    table, slowest = rows
    report_rows("1 value-correlation sum rules on all fixtures",
                select(table, "value"), slowest < 5.0, f"slowest fixture {slowest:.2f}s")


def test_criterion_02_probability_normalization(rows):
    report_rows("2 probability normalization and double stochasticity",
                select(rows[0], "probability"))


def test_criterion_03_density_specializations(rows):
    report_rows("3 density-matrix specializations reproduce V and P",
                select(rows[0], "density", "spur"))


def test_criterion_04_pure_state_factorization(rows, results):
    # the rows check rho = |1><1|; any other pure state must factorize too
    worst = 0.0
    rng = np.random.default_rng(71)
    for result in results.values():
        S = result.projection()
        for _ in range(3):
            u = rng.standard_normal(N)
            u /= np.linalg.norm(u)
            worst = max(worst, pureness_estimate(S, DensityMatrix(np.ones(1), u[:, None])))
    report_rows("4 pure-state factorization and zero pureness",
                select(rows[0], "squared", "pureness"), worst <= 1e-8,
                f"random pure states {worst:.2e}")


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
    V = value_correlation(result.quad_f, S)
    P = probability_correlation(S)
    total = result.grams.total_measure
    off = np.abs(V.W - np.diag(np.diag(V.W))).max()
    e_p = np.abs(P.W - np.eye(N)).max()
    report("6 f = g gives diagonal V and identity P",
           off <= 1e-8 * total and e_p <= 1e-8,
           f"off-diag V {off:.2e} (scale {total:.0f}), P err {e_p:.2e}")


def test_criterion_07_two_route_equivalence(results):
    worst_nodes, worst_weights = 0.0, 0.0
    for result in results.values():
        grams = result.grams
        e_w, _, e_g = grams.exponents
        direct = lebesgue_quadrature(GramSet(G=grams.G, A_f=grams.A_g, exponents=(e_w, e_g, 0)))
        shortcut = lebesgue_quadrature_in_f_basis(result.quad_f)
        scale = np.abs(direct.nodes).max()
        worst_nodes = max(worst_nodes,
                          np.abs(direct.nodes - shortcut.nodes).max() / scale)
        # weights within rtol 1e-6 plus 1e-8 of the total measure
        allowed = 1e-6 * np.abs(shortcut.weights) + 1e-8 * result.samples.w.sum()
        worst_weights = max(worst_weights,
                            (np.abs(direct.weights - shortcut.weights) / allowed).max())
    report("7 f-eigenbasis route matches direct generalized solve",
           worst_nodes <= 1e-8 and worst_weights <= 1.0,
           f"max rel eigenvalue err {worst_nodes:.2e}, "
           f"weight err {worst_weights:.2e} of allowed")


def test_criterion_08_brute_force_oracle():
    t0 = time.perf_counter()
    oracle = oracle_rows()
    dt = time.perf_counter() - t0
    report_rows("8 naive-arithmetic oracle agrees on 50 random small cases",
                oracle, dt < 5.0, f"{dt:.2f}s")


def test_criterion_09_moment_path_equivalence(scenario_samples):
    worst = 0.0
    for samples in scenario_samples.values():
        basis = basis_for_samples(samples, N)
        direct = reference.direct_grams(samples, basis, N)
        via = accumulate_grams(samples, basis, N)
        e_w, e_f, e_g = via.exponents
        for got, want in ((np.ldexp(via.G, e_w), direct.G),
                          (np.ldexp(via.A_f, e_w + e_f), direct.A_f),
                          (np.ldexp(via.A_g, e_w + e_g), direct.A_g)):
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    report("9 moment route matches direct Gram accumulation",
           worst <= 1e-10, f"max rel err {worst:.2e}")


def test_criterion_10_robustness_at_high_order(scenario_samples):
    table = []
    for name in ("spikes", "student_t"):
        result = analyze(scenario_samples[name], n=12)
        table += [(f"{name}: {label}", err, tol) for label, err, tol in identity_rows(result)]
    report_rows("10 spike and fat-tail fixtures survive n = 12", table)
