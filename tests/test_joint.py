from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lebquad import (
    ConditioningError,
    InputDataError,
    SampleSet,
    analyze,
    density_from_pure_unit,
    density_from_spectral,
    density_identity,
    density_matrix_correlation,
    probability_correlation,
    projection,
    pure_squared_correlation,
    pureness_estimate,
    value_correlation,
)
from lebquad.datagen import Law, builtin_scenario_names, generate, load_scenario
from lebquad.joint import DensityMatrix
from lebquad.selftest import identity_rows, random_atoms
from lebquad.spectral import LebesgueQuadrature, lebesgue_quadrature


@pytest.fixture
def smooth_result(scenario_samples):
    return analyze(scenario_samples["smooth"], n=6)


@pytest.fixture
def two_atom_result(two_atom):
    return analyze(two_atom, n=2, family="monomial")


def same_g_result(samples, n=5):
    s = SampleSet(x=samples.x, w=samples.w, f=samples.f, g=samples.f)
    return analyze(s, n=n)


def test_projection_is_orthogonal(smooth_result):
    S = smooth_result.projection()
    assert np.abs(S.S @ S.S.T - np.eye(S.n)).max() <= 1e-8


def test_projection_identity_when_g_is_f(scenario_samples):
    result = same_g_result(scenario_samples["smooth"])
    S = result.projection()
    np.testing.assert_allclose(S.S, np.eye(S.n), atol=1e-8)


def test_projection_antidiagonal_two_atom(two_atom_result):
    S = two_atom_result.projection()
    np.testing.assert_allclose(np.abs(S.S), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_projection_affine_g():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 300)
    f = np.sin(2 * x)
    s = SampleSet(x=x, w=np.ones(300), f=f, g=3 * f + 2)
    S = analyze(s, n=4).projection()
    np.testing.assert_allclose(S.S, np.eye(4), atol=1e-7)


def test_projection_rejects_mixed_gram_sets(scenario_samples):
    r1 = analyze(scenario_samples["smooth"], n=4)
    r2 = analyze(scenario_samples["spikes"], n=4)
    with pytest.raises(InputDataError):
        projection(r1.quad_f, r2.quad_g)


def test_projection_needs_g_solved_in_f_basis(smooth_result):
    direct = lebesgue_quadrature(smooth_result.grams, "g")
    with pytest.raises(InputDataError, match="f-eigenbasis"):
        projection(smooth_result.quad_f, direct)


def test_projection_rejects_g_solved_in_another_f_basis():
    """Two analyses of the same x and w share G bit for bit, but each g is
    solved in its own f-eigenbasis; mixing them breaks V's marginals."""
    x = np.random.default_rng(0).uniform(-1, 1, 2000)
    w, g = np.ones(x.size), np.cos(2 * x)
    r1 = analyze(SampleSet(x=x, w=w, f=np.sin(3 * x), g=g), n=6)
    r2 = analyze(SampleSet(x=x, w=w, f=x**3, g=g), n=6)
    assert np.array_equal(r1.grams.G, r2.grams.G)
    with pytest.raises(InputDataError, match="f-eigenbasis"):
        projection(r1.quad_f, r2.quad_g)


# parameter ranges drawn for the built-in scenarios' laws
_LAW_RANGES = {
    "clustered": {"centers": (1.0, 6.0), "width": (0.005, 0.1)},
    "spikes": {"rate": (0.0, 0.05), "magnitude": (1.0, 1e4)},
    "student_t": {"nu": (1.2, 4.0)},
    "smooth": {"freq": (0.5, 3.0)},
}


@st.composite
def _scenario(draw):
    spec = load_scenario(draw(st.sampled_from(builtin_scenario_names())))

    def drawn(law):
        ranges = _LAW_RANGES.get(law.name, {})
        return Law(law.name, {**law.params, **{key: draw(st.floats(lo, hi))
                                               for key, (lo, hi) in ranges.items()}})

    return replace(spec, x_law=drawn(spec.x_law), f_law=drawn(spec.f_law),
                   g_law=drawn(spec.g_law), M=draw(st.integers(1000, 20_000)),
                   seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@example(spec=load_scenario("clustered"), family="chebyshev", n=48)
@example(spec=load_scenario("clustered"), family="legendre", n=64)
@given(spec=_scenario(), family=st.sampled_from(["chebyshev", "legendre"]),
       n=st.integers(1, 64))
def test_identities_hold_wherever_analyze_accepts(spec, family, n):
    """An order either is rejected as ill-conditioned or gives results that
    keep every identity of the paper."""
    try:
        result = analyze(generate(spec), n=n, family=family)
    except ConditioningError:
        return
    failed = [(label, err) for label, err, tol in identity_rows(result) if not err <= tol]
    assert not failed


@pytest.mark.parametrize("family", ["chebyshev", "legendre"])
@pytest.mark.parametrize("name", ["smooth", "spikes", "student_t"])
def test_projection_matches_gram_contraction(scenario_samples, name, family):
    """S from the g-solve agrees with alpha_f^T G alpha_g where G is well
    conditioned (kappa <= 140 here); the largest gap measured is 1.1e-14."""
    result = analyze(scenario_samples[name], n=64, family=family)
    alpha_f = result.quad_f.eigensolution.alpha
    alpha_g = result.quad_g.eigensolution.alpha
    gap = np.abs(result.projection().S - alpha_f.T @ result.grams.G @ alpha_g).max()
    assert gap <= 1e-13


def test_value_correlation_diagonal_when_f_is_g(scenario_samples):
    result = same_g_result(scenario_samples["smooth"])
    S = result.projection()
    V = value_correlation(result.quad_f, result.quad_g, S)
    total = result.grams.total_measure
    off = V.W - np.diag(np.diag(V.W))
    assert np.abs(off).max() <= 1e-8 * total
    np.testing.assert_allclose(np.diag(V.W), result.quad_f.weights, rtol=1e-8)


def test_value_correlation_two_atom(two_atom_result):
    S = two_atom_result.projection()
    V = value_correlation(two_atom_result.quad_f, two_atom_result.quad_g, S)
    np.testing.assert_allclose(V.W, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert V.normalization == 2.0


def test_probability_correlation_properties(scenario_samples):
    for samples in scenario_samples.values():
        result = analyze(samples, n=8)
        # normalization and double stochasticity are rows of selftest.identity_rows
        assert np.all(result.correlation("probability").W >= 0)


def test_probability_identity_when_f_is_g(scenario_samples):
    result = same_g_result(scenario_samples["smooth"])
    P = probability_correlation(result.projection())
    np.testing.assert_allclose(P.W, np.eye(P.W.shape[0]), atol=1e-8)


def test_probability_permutation_two_atom(two_atom_result):
    P = probability_correlation(two_atom_result.projection())
    np.testing.assert_allclose(P.W, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_density_from_pure_unit(two_atom_result):
    rho = density_from_pure_unit(two_atom_result.quad_f)
    np.testing.assert_allclose(rho.R, np.ones((2, 2)), atol=1e-12)
    assert rho.spur == pytest.approx(2.0)


def test_density_identity():
    rho = density_identity(3)
    np.testing.assert_array_equal(rho.R, np.eye(3))
    assert rho.spur == 3.0
    np.testing.assert_array_equal(density_identity(1).R, [[1.0]])
    with pytest.raises(InputDataError):
        density_identity(0)


def test_density_matrix_must_be_symmetric():
    with pytest.raises(InputDataError, match="not symmetric"):
        DensityMatrix(R=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InputDataError, match="square"):
        DensityMatrix(R=np.ones((2, 3)))
    # within the tolerance, R is stored symmetrized
    rho = DensityMatrix(R=np.array([[1.0, 1e-12], [0.0, 1.0]]))
    np.testing.assert_array_equal(rho.R, rho.R.T)


def test_density_from_spectral_completeness():
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rho = density_from_spectral(np.ones(4), q)
    np.testing.assert_allclose(rho.R, np.eye(4), atol=1e-12)


def test_density_from_spectral_rank_one(smooth_result):
    total = smooth_result.grams.total_measure
    a = smooth_result.quad_f.amplitudes
    n = a.size
    v = a / np.sqrt(total)
    # complete v to an orthonormal set; the rank-1 term is sign-invariant
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(n)[:, : n - 1]]))
    lam = np.zeros(n)
    lam[0] = total
    rho = density_from_spectral(lam, q)
    np.testing.assert_allclose(rho.R, density_from_pure_unit(smooth_result.quad_f).R,
                               rtol=1e-8, atol=1e-8 * total)


def test_density_from_spectral_projector():
    rho = density_from_spectral(np.array([1.0, 0.0, 0.0]), np.eye(3))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(rho.R, expected)


def test_density_from_spectral_rejects_nonorthonormal():
    with pytest.raises(InputDataError):
        density_from_spectral(np.ones(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_density_correlation_random_spectral_sum_rule(smooth_result):
    rng = np.random.default_rng(23)
    n = smooth_result.n
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.1, 2.0, n)
    rho = density_from_spectral(lam, q)
    D = density_matrix_correlation(smooth_result.projection(), rho)
    assert D.total == pytest.approx(rho.spur, rel=1e-8)


def test_pure_squared_identity_rho_same_process(scenario_samples):
    result = same_g_result(scenario_samples["smooth"])
    S = result.projection()
    W = pure_squared_correlation(S, density_identity(S.n)).W
    np.testing.assert_allclose(W, np.eye(S.n), atol=1e-7)


def test_pureness_zero_for_pure_states(smooth_result):
    S = smooth_result.projection()
    assert pureness_estimate(S, density_from_pure_unit(smooth_result.quad_f)) <= 1e-8
    rng = np.random.default_rng(29)
    for _ in range(5):
        u = rng.standard_normal(S.n)
        u /= np.linalg.norm(u)
        rho = DensityMatrix(R=np.outer(u, u))
        assert pureness_estimate(S, rho) <= 1e-8


def test_pureness_positive_for_mixed_state():
    s = SampleSet(x=np.array([-1.0, 0.0, 1.0]), w=np.ones(3),
                  f=np.array([-1.0, 0.0, 1.0]), g=np.array([1.0, -1.0, 0.5]))
    result = analyze(s, n=3, family="monomial")
    S = result.projection()
    assert pureness_estimate(S, density_identity(3)) > 1e-3


def test_dimension_mismatch_rejected(smooth_result):
    S = smooth_result.projection()
    with pytest.raises(InputDataError):
        density_matrix_correlation(S, density_identity(S.n + 1))
    with pytest.raises(InputDataError):
        pure_squared_correlation(S, density_identity(S.n - 1))


def test_sign_flip_invariance(scenario_samples):
    # flipping any eigenvector column flips a_i and S together, leaving
    # every joint estimator unchanged
    samples = scenario_samples["smooth"]
    result = analyze(samples, n=5)
    S = result.projection()
    rng = np.random.default_rng(37)
    signs_f = rng.choice([-1.0, 1.0], 5)
    signs_g = rng.choice([-1.0, 1.0], 5)
    qf = result.quad_f
    flipped_f = LebesgueQuadrature(
        nodes=qf.nodes, weights=qf.weights, amplitudes=qf.amplitudes * signs_f,
        eigensolution=qf.eigensolution, grams=qf.grams)
    qg = result.quad_g
    flipped_g = LebesgueQuadrature(
        nodes=qg.nodes, weights=qg.weights, amplitudes=qg.amplitudes * signs_g,
        eigensolution=qg.eigensolution, grams=qg.grams)
    S_flipped = type(S)(
        S=signs_f[:, None] * S.S * signs_g[None, :],
        f_nodes=S.f_nodes, g_nodes=S.g_nodes,
        total_measure=S.total_measure)
    V1 = value_correlation(qf, qg, S).W
    V2 = value_correlation(flipped_f, flipped_g, S_flipped).W
    np.testing.assert_allclose(V1, V2, atol=1e-12 * np.abs(V1).max())
    np.testing.assert_allclose(probability_correlation(S).W,
                               probability_correlation(S_flipped).W, atol=1e-12)
    rho1 = density_from_pure_unit(qf)
    rho2 = density_from_pure_unit(flipped_f)
    D1 = density_matrix_correlation(S, rho1).W
    D2 = density_matrix_correlation(S_flipped, rho2).W
    np.testing.assert_allclose(D1, D2, atol=1e-12 * np.abs(D1).max())
    W1 = pure_squared_correlation(S, rho1).W
    W2 = pure_squared_correlation(S_flipped, rho2).W
    np.testing.assert_allclose(W1, W2, atol=1e-12 * np.abs(W1).max())


def test_negative_entries_flagged_not_clipped():
    rng = np.random.default_rng(43)
    s = random_atoms(rng, 5)
    result = analyze(s, n=3, family="monomial")
    V = result.correlation("value")
    # sum rules hold regardless of sign structure
    assert V.total == pytest.approx(s.w.sum(), rel=1e-10)
    if V.has_negative_entries:
        assert (V.W < 0).any()
