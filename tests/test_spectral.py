import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lebquad import (
    BasisSpec,
    ConditioningError,
    ConfigurationError,
    DomainMap,
    Family,
    GramSet,
    InputDataError,
    SampleSet,
    accumulate_grams,
    analyze,
    lebesgue_quadrature,
    lebesgue_quadrature_in_f_basis,
)
from lebquad.spectral import _AMPLITUDE_TOL, _reduced_eigh


def _solve(A, G):
    return lebesgue_quadrature(GramSet(G=G, A_f=A))


def test_hand_two_by_two_pencil():
    sol = _solve(np.array([[0.0, 2.0], [2.0, 0.0]]),
                 np.array([[2.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(sol.nodes, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(sol.eigensolution.alpha),
                               np.abs(np.array([[0.5, 0.5], [-0.5, 0.5]])),
                               atol=1e-14)


def test_identity_pencil():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((4, 4))
    G = B @ B.T + 4 * np.eye(4)
    sol = _solve(G, G)
    np.testing.assert_allclose(sol.nodes, np.ones(4), rtol=1e-12)


def test_constant_process_pencil():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((3, 3))
    G = B @ B.T + 3 * np.eye(3)
    sol = _solve(2.5 * G, G)
    np.testing.assert_allclose(sol.nodes, 2.5 * np.ones(3), rtol=1e-12)


def test_orthonormality_and_residual_invariants():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((5, 5))
    G = B @ B.T + np.eye(5)
    A = rng.standard_normal((5, 5))
    A = 0.5 * (A + A.T)
    sol = _solve(A, G)
    alpha = sol.eigensolution.alpha
    assert np.abs(alpha.T @ G @ alpha - np.eye(5)).max() <= 1e-8
    resid = A @ alpha - G @ alpha @ np.diag(sol.nodes)
    assert np.abs(resid).max() <= 1e-8 * np.abs(np.linalg.eigvalsh(A)).max()
    assert np.all(np.diff(sol.nodes) >= 0)


def test_asymmetric_input_rejected():
    with pytest.raises(InputDataError, match="A_f is not symmetric"):
        GramSet(G=np.eye(2), A_f=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rank_deficient_gram_reported():
    G = np.diag([1.0, 1e-16])
    with pytest.raises(ConditioningError) as err:
        _solve(np.eye(2), G)
    assert err.value.effective_rank == 1


def test_operator_overflow_needs_an_epsilon_below_the_float_range():
    # epsilon = 0 keeps s_min = 1e-310 of a G whose lambda_max is 1, so
    # Y = U s^-1/2 reaches 1e155 and Y^T A Y overflows for |A| = 1
    grams = GramSet(G=np.diag([1.0, 1e-310]), A_f=np.ones((2, 2)))
    with pytest.raises(InputDataError, match="operator overflows in the Gram eigenbasis"):
        lebesgue_quadrature(grams, epsilon=0.0)


def test_two_atom_quadrature(two_atom):
    result = analyze(two_atom, n=2, family="monomial")
    np.testing.assert_allclose(result.quad_f.nodes, [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(result.quad_f.weights, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(result.quad_f.amplitudes, [1.0, 1.0], atol=1e-12)


def test_gauss_legendre_limit():
    M = 20000
    x = -1 + (np.arange(M) + 0.5) * 2 / M
    s = SampleSet(x=x, w=np.full(M, 2 / M), f=x)
    quad = analyze(s, n=2).quad_f
    np.testing.assert_allclose(quad.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-7)
    np.testing.assert_allclose(quad.weights, [1.0, 1.0], rtol=1e-7)


def test_order_one_is_plain_average():
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 5, 50)
    w = rng.uniform(0.1, 1, 50)
    f = rng.standard_normal(50)
    quad = analyze(SampleSet(x=x, w=w, f=f), n=1).quad_f
    assert quad.nodes[0] == pytest.approx((w * f).sum() / w.sum(), rel=1e-12)
    assert quad.weights[0] == pytest.approx(w.sum(), rel=1e-12)


def test_weight_and_mean_sum_rules(scenario_samples):
    for samples in scenario_samples.values():
        result = analyze(samples, n=8)
        total = samples.w.sum()
        mean_f = (samples.w * samples.f).sum()
        assert result.quad_f.weights.sum() == pytest.approx(total, rel=1e-8)
        assert (result.quad_f.weights * result.quad_f.nodes).sum() == pytest.approx(
            mean_f, rel=1e-8)
        assert np.all(result.quad_f.weights >= 0)
        np.testing.assert_array_equal(result.quad_f.weights,
                                      result.quad_f.amplitudes**2)


def test_g_in_f_basis_same_process(two_atom):
    s = SampleSet(x=two_atom.x, w=two_atom.w, f=two_atom.f, g=two_atom.f)
    result = analyze(s, n=2, family="monomial")
    grams = result.grams
    quad_g = lebesgue_quadrature_in_f_basis(result.quad_f)
    np.testing.assert_allclose(quad_g.nodes, result.quad_f.nodes, atol=1e-12)
    B = result.quad_f.eigensolution.alpha.T @ grams.A_g @ result.quad_f.eigensolution.alpha
    np.testing.assert_allclose(B, np.diag(result.quad_f.nodes), atol=1e-12)


def test_g_in_f_basis_needs_g_column(two_atom):
    result = analyze(SampleSet(x=two_atom.x, w=two_atom.w, f=two_atom.f), n=2, family="monomial")
    with pytest.raises(ConfigurationError, match="no g column"):
        lebesgue_quadrature_in_f_basis(result.quad_f)


def test_g_in_f_basis_rejects_a_g_quadrature(two_atom):
    result = analyze(two_atom, n=2, family="monomial")
    with pytest.raises(InputDataError, match="g quadrature"):
        lebesgue_quadrature_in_f_basis(result.quad_g)


def test_g_in_f_basis_reproduces_the_analysis(scenario_samples):
    for samples in scenario_samples.values():
        result = analyze(samples, n=8)
        quad_g = lebesgue_quadrature_in_f_basis(result.quad_f)
        assert quad_g.grams is result.grams
        for name in ("nodes", "weights", "amplitudes"):
            np.testing.assert_array_equal(getattr(quad_g, name), getattr(result.quad_g, name))
        np.testing.assert_array_equal(quad_g.eigensolution.in_f_basis,
                                      result.quad_g.eigensolution.in_f_basis)


def test_g_affine_of_f():
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, 300)
    f = np.sin(2 * x) + 0.1 * x
    s = SampleSet(x=x, w=np.ones(300), f=f, g=2 * f + 1)
    result = analyze(s, n=5)
    np.testing.assert_allclose(result.quad_g.nodes, 2 * result.quad_f.nodes + 1,
                               rtol=1e-9)
    np.testing.assert_allclose(result.quad_g.weights, result.quad_f.weights,
                               rtol=1e-8)


def test_two_atom_opposite_signs(two_atom):
    result = analyze(two_atom, n=2, family="monomial")
    np.testing.assert_allclose(result.quad_g.nodes, [-1.0, 1.0], atol=1e-12)


def _monic_orthogonal_roots(x, w, n):
    # roots of the degree-n monic orthogonal polynomial of the measure,
    # built from raw moments: an oracle independent of the pencil solver
    mu = np.array([(w * x**m).sum() for m in range(2 * n)])
    H = np.array([[mu[i + j] for j in range(n)] for i in range(n)])
    b = np.array([mu[i + n] for i in range(n)])
    c = np.linalg.solve(H, -b)
    return np.sort(np.roots(np.concatenate(([1.0], c[::-1]))).real)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gauss_reduction_nodes_are_orthopoly_roots(n):
    rng = np.random.default_rng(31)
    x = rng.uniform(-1, 1, 8)
    w = rng.uniform(0.3, 1.2, 8)
    s = SampleSet(x=x, w=w, f=x)
    quad = analyze(s, n=n, family="monomial").quad_f
    np.testing.assert_allclose(quad.nodes, _monic_orthogonal_roots(x, w, n),
                               rtol=1e-8, atol=1e-10)


def test_gauss_exactness_to_degree_2n_minus_1():
    rng = np.random.default_rng(41)
    x = rng.uniform(-1, 1, 400)
    w = rng.uniform(0.1, 1, 400)
    s = SampleSet(x=x, w=w, f=x)
    n = 4
    quad = analyze(s, n=n).quad_f
    for k in range(2 * n):
        exact = (w * x**k).sum()
        assert (quad.weights * quad.nodes**k).sum() == pytest.approx(exact, rel=1e-8)


def test_affine_covariance():
    rng = np.random.default_rng(51)
    x = rng.uniform(-1, 1, 200)
    f = np.sin(3 * x)
    s1 = SampleSet(x=x, w=np.ones(200), f=f)
    s2 = SampleSet(x=x, w=np.ones(200), f=-2.5 * f + 0.7)
    q1 = analyze(s1, n=4).quad_f
    q2 = analyze(s2, n=4).quad_f
    np.testing.assert_allclose(np.sort(-2.5 * q1.nodes + 0.7), q2.nodes, rtol=1e-8)
    np.testing.assert_allclose(q1.weights[np.argsort(-2.5 * q1.nodes + 0.7)],
                               q2.weights, rtol=1e-8)


def test_degenerate_process_constant_g():
    rng = np.random.default_rng(61)
    x = rng.uniform(-1, 1, 100)
    s = SampleSet(x=x, w=np.ones(100), f=x, g=np.full(100, 3.0))
    result = analyze(s, n=3)
    np.testing.assert_allclose(result.quad_g.nodes, 3.0 * np.ones(3), rtol=1e-10)


def test_degenerate_domain_rules():
    one_point = SampleSet(x=np.zeros(3), w=np.ones(3), f=np.array([1.0, 2, 3]))
    quad = analyze(one_point, n=1).quad_f
    assert quad.nodes[0] == pytest.approx(2.0)
    with pytest.raises(Exception):
        analyze(one_point, n=2)


def test_hard_cap_at_effective_rank():
    samples = SampleSet(x=np.array([-0.5, 0.0, 0.5]), w=np.ones(3),
                        f=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ConditioningError) as err:
        analyze(samples, n=4, family="monomial")
    assert err.value.effective_rank == 3


def test_subnormal_measure_solves():
    # subnormal weights are scaled to 1 before the Gram sums, so that G is
    # never subnormal: the nodes are those of w = 1, bit for bit
    x = np.linspace(-1.0, 1.0, 50)
    f = np.cos(3 * x)
    unit = analyze(SampleSet(x=x, w=np.ones(50), f=f), n=4).quad_f.nodes
    tiny = analyze(SampleSet(x=x, w=np.full(50, 2.0**-1040), f=f), n=4).quad_f.nodes
    np.testing.assert_array_equal(tiny, unit)


def _reference_signs(alpha, m, total):
    """The sign rule column by column: the sign of a column's amplitude
    alpha^T m when it exceeds the tolerance, else that of its first nonzero
    coefficient. Also returns the columns the fallback decided."""
    signs = np.ones(alpha.shape[1])
    fallback = []
    tol = _AMPLITUDE_TOL * np.sqrt(total)
    for i in range(alpha.shape[1]):
        col = alpha[:, i]
        a = float(col @ m)
        if abs(a) > tol:
            if a < 0:
                signs[i] = -1.0
        else:
            fallback.append(i)
            nz = np.flatnonzero(np.abs(col) > _AMPLITUDE_TOL * max(np.abs(col).max(), 1.0))
            if nz.size and col[nz[0]] < 0:
                signs[i] = -1.0
    return signs, fallback


def _signed(Y, A, grams):
    """The unsigned reduction of A in the basis Y, signed by the reference:
    alpha, B and the columns the fallback decided."""
    _, B = _reduced_eigh(Y, A)
    signs, fallback = _reference_signs(Y @ B, grams.m, grams.total_measure)
    return (Y @ B) * signs, B * signs, fallback


def _assert_signed_as_reference(result):
    """Both solutions and amplitudes equal the reference's, bit for bit;
    returns the columns its fallback decided in the f and the g pencil."""
    grams = result.grams
    s, U = np.linalg.eigh(grams.G)
    alpha_f, _, fallback_f = _signed(U / np.sqrt(s), grams.A_f, grams)
    alpha_g, S, fallback_g = _signed(alpha_f, grams.A_g, grams)
    quad_f, sol_g = result.quad_f, result.quad_g.eigensolution
    np.testing.assert_array_equal(quad_f.eigensolution.alpha, alpha_f)
    np.testing.assert_array_equal(quad_f.amplitudes, alpha_f.T @ grams.m)
    np.testing.assert_array_equal(sol_g.alpha, alpha_g)
    np.testing.assert_array_equal(sol_g.in_f_basis, S)
    np.testing.assert_array_equal(result.quad_g.amplitudes, S.T @ quad_f.amplitudes)
    return fallback_f, fallback_g


@pytest.mark.parametrize("family", ["chebyshev", "legendre"])
@pytest.mark.parametrize("n", [8, 64])
def test_sign_rule_matches_per_column_reference(scenario_samples, family, n):
    for samples in scenario_samples.values():
        _assert_signed_as_reference(analyze(samples, n=n, family=family))


@pytest.mark.parametrize("family", ["chebyshev", "legendre"])
def test_sign_rule_fallback_on_zero_amplitudes(family):
    # x symmetric about 0 with even f and g: every odd eigenfunction
    # integrates to zero, so the first nonzero coefficient decides its sign
    h = np.arange(1, 101) / 100
    x = np.concatenate([-h[::-1], [0.0], h])
    s = SampleSet(x=x, w=np.ones(x.size), f=x**2, g=np.cos(3 * x))
    result = analyze(s, n=6, family=family)
    fallback_f, fallback_g = _assert_signed_as_reference(result)
    assert len(fallback_f) == 3 and len(fallback_g) == 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), family=st.sampled_from(list(Family)),
       d=st.integers(-1000, 1000), a=st.integers(-500, 500).map(lambda k: 2 * k),
       b=st.integers(-1000, 1000), c=st.integers(-1000, 1000))
def test_power_of_two_scaling_is_bit_exact(seed, n, family, d, a, b, c):
    # x by 2^d, w by 2^a (a even), f by 2^b and g by 2^c: the f nodes scale
    # by 2^b, the g nodes by 2^c, the weights by 2^a, the amplitudes by
    # 2^(a/2) and alpha by 2^(-a/2), bit for bit; S and everything else stay
    rng = np.random.default_rng(seed)
    M = 2 * n + 4
    w = rng.uniform(0.5, 1.5, M) * (rng.random(M) > 0.2)
    w[:n] = 1.0  # at least n samples of positive weight
    columns = (rng.uniform(-1.0, 1.0, M), w, rng.standard_normal(M), rng.standard_normal(M))
    scaled = [np.ldexp(v, k) for v, k in zip(columns, (d, a, b, c))]
    # a subnormal input has lost bits before the library reads it
    assume(all((np.abs(v[v != 0]) >= np.finfo(float).tiny).all() for v in scaled))

    def outcome(x, w, f, g):
        try:
            return analyze(SampleSet(x=x, w=w, f=f, g=g), n, family)
        except ConditioningError as exc:
            return str(exc)

    base, result = outcome(*columns), outcome(*scaled)
    if isinstance(base, str):
        assert result == base
        return
    assert result.grams.total_measure == np.ldexp(base.grams.total_measure, a)
    for quad, twin, k in ((result.quad_f, base.quad_f, b), (result.quad_g, base.quad_g, c)):
        np.testing.assert_array_equal(quad.nodes, np.ldexp(twin.nodes, k))
        np.testing.assert_array_equal(quad.weights, np.ldexp(twin.weights, a))
        np.testing.assert_array_equal(quad.amplitudes, np.ldexp(twin.amplitudes, a // 2))
        np.testing.assert_array_equal(quad.eigensolution.alpha,
                                      np.ldexp(twin.eigensolution.alpha, -a // 2))
        assert quad.eigensolution.gram_condition == twin.eigensolution.gram_condition
    np.testing.assert_array_equal(result.projection(), base.projection())
