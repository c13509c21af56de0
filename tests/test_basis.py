import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.legendre as npleg
import pytest

from lebquad import (
    BasisSpec,
    ConfigurationError,
    DomainMap,
    Family,
    InputDataError,
    SampleSet,
    analyze,
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


@pytest.mark.parametrize("family", list(Family))
def test_q0_is_one_everywhere(family):
    b = spec(family, 5, lo=-3.0, hi=11.0)
    for x in (-3.0, 0.0, 4.2, 11.0):
        assert evaluate_all(b, x)[0] == 1.0


def test_monomial_at_mapped_one():
    b = spec(Family.MONOMIAL, 6, lo=0.0, hi=2.0)
    np.testing.assert_array_equal(evaluate_all(b, 2.0), np.ones(6))


def test_rejects_nonfinite_point():
    with pytest.raises(InputDataError):
        evaluate_all(spec(Family.CHEBYSHEV, 3), np.nan)


def test_basis_size_must_be_positive():
    with pytest.raises(ConfigurationError):
        spec(Family.CHEBYSHEV, 0)


@pytest.mark.parametrize("family, direct", [
    (Family.CHEBYSHEV, lambda k, t: npcheb.chebval(t, [0.0] * k + [1.0])),
    (Family.LEGENDRE, lambda k, t: npleg.legval(t, [0.0] * k + [1.0])),
    (Family.MONOMIAL, lambda k, t: t**k),
])
def test_recurrence_matches_direct_evaluation(family, direct):
    rng = np.random.default_rng(7)
    b = spec(family, 10, lo=-2.0, hi=5.0)
    x = rng.uniform(-2.0, 5.0, 100)
    vals = evaluate_all(b, x)
    t = b.domain(x)
    for k in range(10):
        np.testing.assert_allclose(vals[k], direct(k, t), rtol=1e-12, atol=1e-12)


def test_zero_weight_sample_does_not_move_the_domain(scenario_samples):
    base = scenario_samples["clustered"]
    lo, hi = base.x.min(), base.x.max()
    # with the far sample in its range the domain squeezes the clusters and
    # the order-8 Gram matrix loses rank (effective rank 7)
    s = SampleSet(x=np.append(base.x, lo + 3 * (hi - lo)), w=np.append(base.w, 0.0),
                  f=np.append(base.f, 0.0), g=np.append(base.g, 0.0))
    assert DomainMap.from_samples(s.x, s.w) == DomainMap(lo, hi)
    result, want = analyze(s, n=8), analyze(base, n=8)
    assert result.basis.domain == want.basis.domain
    np.testing.assert_allclose(result.quad_f.nodes, want.quad_f.nodes, rtol=1e-12)


def test_single_positive_weight_x_needs_order_one():
    s = SampleSet(x=np.array([0.5, 0.5, 2.0]), w=np.array([1.0, 2.0, 0.0]),
                  f=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigurationError, match="one x value"):
        analyze(s, n=2)
    assert analyze(s, n=1).basis.domain == DomainMap.identity()
