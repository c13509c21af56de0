import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lebquad.moments as moments
import lebquad.reference as reference
from lebquad import (
    BasisSpec,
    ConditioningError,
    ConfigurationError,
    DomainMap,
    Family,
    InputDataError,
    SampleSet,
    accumulate_grams,
)


def monomial(size, lo=-1.0, hi=1.0):
    return BasisSpec(family=Family.MONOMIAL, size=size, domain=DomainMap(lo, hi))


def test_sampleset_validation():
    with pytest.raises(InputDataError):
        SampleSet(x=np.array([]), w=np.array([]), f=np.array([]))
    with pytest.raises(InputDataError, match="record 2"):
        SampleSet(x=np.array([0.0, 1.0]), w=np.array([1.0, -1.0]), f=np.zeros(2))
    with pytest.raises(InputDataError, match="record 1"):
        SampleSet(x=np.array([np.nan, 1.0]), w=np.ones(2), f=np.zeros(2))
    with pytest.raises(InputDataError):
        SampleSet(x=np.array([0.0]), w=np.array([1.0]), f=np.array([1.0, 2.0]))
    # the first bad record in record order; within one, non-finite x, w, f,
    # g before the weight's sign
    with pytest.raises(InputDataError) as exc:
        SampleSet(x=np.array([0.0, 1.0, np.nan]), w=np.array([1.0, -1.0, 1.0]), f=np.zeros(3))
    assert str(exc.value) == "negative weight -1.0 at record 2"
    with pytest.raises(InputDataError) as exc:
        SampleSet(x=np.zeros(2), w=np.array([1.0, -np.inf]), f=np.zeros(2),
                  g=np.array([0.0, np.nan]))
    assert str(exc.value) == "non-finite value in column 'w' at record 2"


def test_all_zero_weights_rejected():
    with pytest.raises(InputDataError):
        SampleSet(x=np.array([0.0, 1.0]), w=np.zeros(2), f=np.ones(2))


def test_two_sample_order_one_grams():
    # {(0,1,3,5), (1,1,4,6)} with Q_0 = 1
    s = SampleSet(x=np.array([0.0, 1.0]), w=np.ones(2),
                  f=np.array([3.0, 4.0]), g=np.array([5.0, 6.0]))
    grams = accumulate_grams(s, monomial(1, 0.0, 1.0), 1)
    np.testing.assert_allclose(grams.G, [[2.0]])
    np.testing.assert_allclose(grams.A_f, [[7.0]])
    np.testing.assert_allclose(grams.A_g, [[11.0]])
    np.testing.assert_allclose(grams.m, [2.0])
    assert grams.total_measure == 2.0


def test_two_atom_order_two_grams(two_atom):
    grams = accumulate_grams(two_atom, monomial(2), 2)
    np.testing.assert_allclose(grams.G, [[2.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(grams.A_f, [[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_allclose(grams.m, [2.0, 0.0])


def test_two_atom_moments(two_atom):
    grams = accumulate_grams(two_atom, monomial(2), 2)
    np.testing.assert_allclose(grams.G[0], [2.0, 0.0])
    np.testing.assert_allclose(grams.G[:, -1], [0.0, 2.0])
    np.testing.assert_allclose(grams.A_f[0], [0.0, 2.0])
    np.testing.assert_allclose(grams.A_f[:, -1], [2.0, 0.0])


def test_single_sample_moments():
    # order 2 needs two samples of positive weight; each adds its own terms
    x, f = np.array([0.3, 0.8]), np.array([4.5, 1.5])
    s = SampleSet(x=x, w=np.ones(2), f=f)
    b = monomial(2, 0.0, 1.0)
    grams = accumulate_grams(s, b, 2)
    t = b.domain(x)
    np.testing.assert_allclose(grams.G[0], [2.0, t.sum()])
    np.testing.assert_allclose(grams.G[:, -1], [t.sum(), (t * t).sum()])
    np.testing.assert_allclose(grams.A_f[0], [f.sum(), (f * t).sum()])
    np.testing.assert_allclose(grams.A_f[:, -1], [(f * t).sum(), (f * t * t).sum()])


def test_riemann_sum_moments():
    M = 10**4
    x = np.linspace(-1, 1, M)
    s = SampleSet(x=x, w=np.full(M, 2.0 / M), f=x)
    grams = accumulate_grams(s, monomial(2), 2)
    np.testing.assert_allclose(grams.G[0], [2.0, 0.0], atol=1e-3)
    np.testing.assert_allclose(grams.G[:, -1], [0.0, 2.0 / 3.0], atol=1e-3)


def test_grams_from_moments_matches_direct(two_atom):
    direct = reference.direct_grams(two_atom, monomial(2), 2)
    via = accumulate_grams(two_atom, monomial(2), 2)
    np.testing.assert_allclose(via.G, direct.G, rtol=1e-10)
    np.testing.assert_allclose(via.A_f, direct.A_f, rtol=1e-10)
    np.testing.assert_allclose(via.A_g, direct.A_g, rtol=1e-10)
    np.testing.assert_allclose(via.m, direct.m, rtol=1e-10)


def test_order_one_gram_from_moments(two_atom):
    via = accumulate_grams(two_atom, monomial(1), 1)
    np.testing.assert_allclose(via.G, [[2.0]])
    np.testing.assert_allclose(via.A_f, [[0.0]])


def test_chebyshev_square_linearization_in_gram():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 200)
    s = SampleSet(x=x, w=np.ones(200), f=x)
    b = BasisSpec(family=Family.CHEBYSHEV, size=3, domain=DomainMap(-1, 1))
    grams = accumulate_grams(s, b, 3)
    assert grams.G[1, 1] == pytest.approx((grams.G[0, 0] + grams.G[0, 2]) / 2, rel=1e-14)


@pytest.mark.parametrize("family, n", [
    *(pytest.param(family, 4, id=family.value) for family in Family),
    *(pytest.param(family, n, id=f"{family.value}-{n}")
      for family in (Family.CHEBYSHEV, Family.LEGENDRE) for n in (64, 200)),
])
def test_path_equivalence_random_data(family, n):
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 3, 500)
    s = SampleSet(x=x, w=rng.uniform(0.1, 1, 500),
                  f=np.sin(x), g=np.cos(x))
    basis = BasisSpec(family, n, DomainMap.from_samples(x))
    direct = reference.direct_grams(s, basis, n)
    via = accumulate_grams(s, basis, n)
    scale = np.abs(direct.G).max()
    assert np.abs(via.G - direct.G).max() <= 1e-10 * scale
    assert np.abs(via.A_f - direct.A_f).max() <= 1e-10 * np.abs(direct.A_f).max()
    assert np.abs(via.A_g - direct.A_g).max() <= 1e-10 * np.abs(direct.A_g).max()


@settings(max_examples=25, deadline=None)
@given(log2c=st.integers(-8, 8), seed=st.integers(0, 2**16))
def test_weight_scaling_by_powers_of_two_is_bit_exact(log2c, seed):
    c = 2.0**log2c
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, 20)
    s = SampleSet(x=x, w=rng.uniform(0.5, 1.5, 20), f=rng.standard_normal(20))
    b = monomial(3)
    g1 = accumulate_grams(s, b, 3)
    g2 = accumulate_grams(s.scaled(c), b, 3)
    np.testing.assert_array_equal(g2.G, c * g1.G)
    np.testing.assert_array_equal(g2.A_f, c * g1.A_f)
    np.testing.assert_array_equal(g2.m, c * g1.m)
    assert g2.total_measure == c * g1.total_measure


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2**16))
def test_weight_scaling_general_factor(c, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, 20)
    s = SampleSet(x=x, w=rng.uniform(0.5, 1.5, 20), f=rng.standard_normal(20))
    b = monomial(3)
    g1 = accumulate_grams(s, b, 3)
    g2 = accumulate_grams(s.scaled(c), b, 3)
    # Norm-wise, against the sum of absolute terms (for G its largest
    # entry): an entry that is a cancelling sum carries an elementwise
    # relative error far above the rounding of its terms.
    assert np.abs(g2.G - c * g1.G).max() <= 1e-14 * np.abs(c * g1.G).max()
    assert np.abs(g2.A_f - c * g1.A_f).max() <= 1e-14 * c * np.sum(s.w * np.abs(s.f))
    assert g2.total_measure == pytest.approx(c * g1.total_measure, rel=1e-14)


def test_zero_weight_sample_changes_nothing():
    x = np.array([-0.5, 0.2, 0.9])
    s1 = SampleSet(x=x, w=np.ones(3), f=x**2)
    s2 = SampleSet(x=np.append(x, 0.42), w=np.array([1.0, 1, 1, 0]),
                   f=np.append(x**2, 17.0))
    b = monomial(3)
    g1 = accumulate_grams(s1, b, 3)
    g2 = accumulate_grams(s2, b, 3)
    np.testing.assert_array_equal(g1.G, g2.G)
    np.testing.assert_array_equal(g1.A_f, g2.A_f)


def test_gram_is_psd(scenario_samples):
    for samples in scenario_samples.values():
        b = BasisSpec(Family.CHEBYSHEV, 8, DomainMap.from_samples(samples.x))
        grams = accumulate_grams(samples, b, 8)
        ev = np.linalg.eigvalsh(grams.G)
        assert ev.min() >= -1e-12 * ev.max()
        assert np.array_equal(grams.G, grams.G.T)


def test_symmetry_is_bitwise(scenario_samples):
    samples = scenario_samples["smooth"]
    b = BasisSpec(Family.LEGENDRE, 6, DomainMap.from_samples(samples.x))
    grams = accumulate_grams(samples, b, 6)
    for M in (grams.G, grams.A_f, grams.A_g):
        assert np.array_equal(M, M.T)


def test_configuration_errors(two_atom):
    with pytest.raises(ConfigurationError):
        accumulate_grams(two_atom, monomial(2), 3)
    with pytest.raises(ConfigurationError):
        accumulate_grams(two_atom, monomial(2), 0)


def test_gram_route_evaluates_n_basis_rows(monkeypatch, scenario_samples):
    sizes = []
    evaluate = moments.evaluate_all

    def recorded(spec, x):
        sizes.append(spec.size)
        return evaluate(spec, x)

    monkeypatch.setattr(moments, "evaluate_all", recorded)
    samples = scenario_samples["smooth"]
    n = 128
    accumulate_grams(samples, BasisSpec(Family.LEGENDRE, n, DomainMap.from_samples(samples.x)), n)
    chunk = max(moments._CHUNK_SAMPLES, moments._CHUNK_ELEMENTS // n)
    assert sizes == [n] * -(-samples.size // chunk)


@pytest.mark.parametrize("n", [8, 32, 64, 1000])
def test_moment_blocks_fit_the_budget_or_sit_at_the_floor(monkeypatch, n):
    lengths = []
    evaluate = moments.evaluate_all

    def recorded(spec, x):
        assert spec.size == n
        lengths.append(x.size)
        return evaluate(spec, x)

    monkeypatch.setattr(moments, "evaluate_all", recorded)
    M = 40_000
    x = np.linspace(-1.0, 1.0, M)
    basis = BasisSpec(Family.CHEBYSHEV, n, DomainMap(-1, 1))
    accumulate_grams(SampleSet(x=x, w=np.ones(M), f=x), basis, n)
    assert sum(lengths) == M and len(lengths) > 1
    *full, last = lengths
    assert len(set(full)) == 1 and 0 < last <= full[0]
    for size in full:
        assert n * size <= moments._CHUNK_ELEMENTS or size == moments._CHUNK_SAMPLES
        assert size >= moments._CHUNK_SAMPLES


def test_moment_pass_memory_is_one_cache_sized_block():
    M, n = 200_000, 32
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, M)
    s = SampleSet(x=x, w=rng.uniform(0.5, 1.5, M), f=np.sin(x), g=np.cos(x))
    b = BasisSpec(Family.CHEBYSHEV, n, DomainMap(-1, 1))
    tracemalloc.start()
    try:
        accumulate_grams(s, b, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_order_above_positive_weight_count_rejected_before_evaluation(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("basis evaluated before the order check")

    monkeypatch.setattr(moments, "evaluate_all", unreachable)
    s = SampleSet(x=np.array([-0.5, 0.1, 0.7, 0.9]), w=np.array([1.0, 2.0, 0.0, 1.0]),
                  f=np.ones(4))
    with pytest.raises(ConditioningError, match="effective rank 3") as err:
        accumulate_grams(s, monomial(5), 5)
    assert err.value.effective_rank == 3
    with pytest.raises(ConditioningError):
        accumulate_grams(s, monomial(4), 4)


def test_order_above_memory_bound_rejected_before_evaluation(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("basis evaluated before the memory check")

    monkeypatch.setattr(moments, "evaluate_all", unreachable)
    n = moments.max_order() + 1
    x = np.linspace(-1.0, 1.0, n)
    s = SampleSet(x=x, w=np.ones(n), f=x)
    with pytest.raises(ConfigurationError, match="physical memory"):
        accumulate_grams(s, BasisSpec(Family.CHEBYSHEV, n, DomainMap.from_samples(x)), n)
