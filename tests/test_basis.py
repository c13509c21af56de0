import numpy as np
import numpy.polynomial.chebyshev as npcheb
import pytest

from lebquad import (
    BasisSpec,
    ConfigurationError,
    DomainMap,
    Family,
    InputDataError,
    SampleSet,
    analyze,
    basis_for_samples,
)
from lebquad.basis import evaluate_all


def spec(family, size, lo=-1.0, hi=1.0):
    return BasisSpec(family=family, size=size, domain=DomainMap(lo, hi))


def test_domain_map_endpoints_exact():
    dm = DomainMap(2.5, 7.75)
    eps = np.finfo(float).eps
    assert abs(dm(2.5) + 1.0) <= 4 * eps
    assert abs(dm(7.75) - 1.0) <= 4 * eps


def test_domain_map_rejects_degenerate():
    with pytest.raises(ConfigurationError):
        DomainMap(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        DomainMap(2.0, -1.0)
    with pytest.raises(InputDataError):
        DomainMap(0.0, np.inf)


def test_chebyshev_period_six_pattern():
    # T_k(1/2) repeats 1, 1/2, -1/2, -1, -1/2, 1/2
    vals = evaluate_all(spec(Family.CHEBYSHEV, 12), 0.5)
    expected = np.array([1, 0.5, -0.5, -1, -0.5, 0.5] * 2)
    np.testing.assert_allclose(vals, expected, atol=1e-14)


@pytest.mark.parametrize("family", [Family.CHEBYSHEV])
def test_q0_is_one_everywhere(family):
    b = spec(family, 5, lo=-3.0, hi=11.0)
    for x in (-3.0, 0.0, 4.2, 11.0):
        assert evaluate_all(b, x)[0] == 1.0


def test_chebyshev_at_mapped_one():
    # T_k(1) = 1: the domain's upper end maps to t = 1 exactly
    b = spec(Family.CHEBYSHEV, 6, lo=0.0, hi=2.0)
    np.testing.assert_array_equal(evaluate_all(b, 2.0), np.ones(6))


@pytest.mark.parametrize("family", [Family.LEGENDRE, Family.MONOMIAL])
def test_only_chebyshev_rows_are_evaluated(family):
    out = np.full((4, 3), np.nan)
    with pytest.raises(ConfigurationError, match=family.value):
        evaluate_all(spec(family, 4), np.zeros(3), out)
    assert np.isnan(out).all()


def test_rejects_nonfinite_point():
    with pytest.raises(InputDataError):
        evaluate_all(spec(Family.CHEBYSHEV, 3), np.nan)


def test_basis_size_must_be_positive():
    with pytest.raises(ConfigurationError):
        spec(Family.CHEBYSHEV, 0)


@pytest.mark.parametrize("family, direct", [
    (Family.CHEBYSHEV, lambda k, t: npcheb.chebval(t, [0.0] * k + [1.0])),
])
def test_recurrence_matches_direct_evaluation(family, direct):
    rng = np.random.default_rng(7)
    b = spec(family, 10, lo=-2.0, hi=5.0)
    x = rng.uniform(-2.0, 5.0, 100)
    vals = evaluate_all(b, x)
    t = b.domain(x)
    for k in range(10):
        np.testing.assert_allclose(vals[k], direct(k, t), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family, step", [
    (Family.CHEBYSHEV, lambda k, t, Q: t * Q[k] if k == 0 else 2 * t * Q[k] - Q[k - 1]),
])
def test_recurrence_rows_equal_plain_three_term_recurrence(family, step):
    rng = np.random.default_rng(3)
    b = spec(family, 40, lo=-2.0, hi=5.0)
    x = np.append(rng.uniform(-2.0, 5.0, 1000), [-2.0, 5.0, 1.5])
    t = b.domain(x)
    Q = [np.ones_like(t)]
    for k in range(39):
        Q.append(step(k, t, Q))
    np.testing.assert_array_equal(evaluate_all(b, x), np.array(Q))


@pytest.mark.parametrize("family", [Family.CHEBYSHEV])
@pytest.mark.parametrize("size", [1, 2, 3, 12])
def test_evaluate_into_out_equals_evaluate(family, size):
    # out may be a strided view, as the moment pass's workspace rows are
    b = spec(family, size, lo=-2.0, hi=5.0)
    x = np.append(np.random.default_rng(4).uniform(-3.0, 6.0, 99), [-2.0, 5.0])
    buffer = np.full((size, 2 * x.size), np.nan)
    out = buffer[:, 1::2]
    assert evaluate_all(b, x, out) is out
    np.testing.assert_array_equal(out, evaluate_all(b, x))
    assert np.isnan(buffer[:, ::2]).all()
    scalar = np.empty(size)
    assert evaluate_all(b, 1.3, scalar) is scalar
    np.testing.assert_array_equal(scalar, evaluate_all(b, 1.3))
    with pytest.raises(ValueError, match="shape"):
        evaluate_all(b, x, np.empty((size + 1, x.size)))


def test_zero_weight_sample_does_not_move_the_domain(scenario_samples):
    base = scenario_samples["clustered"]
    lo, hi = base.x.min(), base.x.max()
    # with the far sample in its range the domain squeezes the clusters and
    # the order-8 Gram matrix loses rank (effective rank 7)
    s = SampleSet(x=np.append(base.x, lo + 3 * (hi - lo)), w=np.append(base.w, 0.0),
                  f=np.append(base.f, 0.0), g=np.append(base.g, 0.0))
    assert basis_for_samples(s, 8).domain == DomainMap(lo, hi)
    result, want = analyze(s, n=8), analyze(base, n=8)
    assert result.basis.domain == want.basis.domain
    np.testing.assert_allclose(result.quad_f.nodes, want.quad_f.nodes, rtol=1e-12)


def test_single_positive_weight_x_needs_order_one():
    s = SampleSet(x=np.array([0.5, 0.5, 2.0]), w=np.array([1.0, 2.0, 0.0]),
                  f=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigurationError, match="one x value"):
        analyze(s, n=2)
    assert analyze(s, n=1).basis.domain == DomainMap(-1.0, 1.0)
    with pytest.raises(ConfigurationError, match="one x value"):
        basis_for_samples(s, 2)
    assert basis_for_samples(s, 1).domain == DomainMap(-1.0, 1.0)
