import tracemalloc

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.legendre as nplegendre
import numpy.polynomial.polynomial as nppoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lebquad.moments as moments
import lebquad.reference as reference
from lebquad.basis import _chebyshev_coefficients, evaluate_all, scale_exponent
from lebquad.io import dumps_json, result_document
from lebquad.spectral import DEFAULT_EPSILON
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
)


def monomial(size, lo=-1.0, hi=1.0):
    return BasisSpec(family=Family.MONOMIAL, size=size, domain=DomainMap(lo, hi))


def unscaled(grams):
    """G, A_f and A_g of the samples as given: each scaled matrix times 2^exponent."""
    e_w, e_f, e_g = grams.exponents
    return (np.ldexp(grams.G, e_w), np.ldexp(grams.A_f, e_w + e_f),
            None if grams.A_g is None else np.ldexp(grams.A_g, e_w + e_g))


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
    # max w = 1, max f = 4 and max g = 6 scale by 2^0, 2^-2 and 2^-2
    assert grams.exponents == (0, 2, 2)
    G, A_f, A_g = unscaled(grams)
    np.testing.assert_allclose(G, [[2.0]])
    np.testing.assert_allclose(A_f, [[7.0]])
    np.testing.assert_allclose(A_g, [[11.0]])
    np.testing.assert_allclose(np.ldexp(grams.m, grams.exponents[0]), [2.0])
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
    G, A_f, _ = unscaled(accumulate_grams(s, b, 2))
    t = b.domain(x)
    np.testing.assert_allclose(G[0], [2.0, t.sum()])
    np.testing.assert_allclose(G[:, -1], [t.sum(), (t * t).sum()])
    np.testing.assert_allclose(A_f[0], [f.sum(), (f * t).sum()])
    np.testing.assert_allclose(A_f[:, -1], [(f * t).sum(), (f * t * t).sum()])


def test_riemann_sum_moments():
    M = 10**4
    x = np.linspace(-1, 1, M)
    s = SampleSet(x=x, w=np.full(M, 2.0 / M), f=x)
    G, _, _ = unscaled(accumulate_grams(s, monomial(2), 2))
    np.testing.assert_allclose(G[0], [2.0, 0.0], atol=1e-3)
    np.testing.assert_allclose(G[:, -1], [0.0, 2.0 / 3.0], atol=1e-3)


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


def test_chebyshev_square_linearization_in_gram(scenario_samples):
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 200)
    s = SampleSet(x=x, w=np.ones(200), f=x)
    b = BasisSpec(family=Family.CHEBYSHEV, size=3, domain=DomainMap(-1, 1))
    grams = accumulate_grams(s, b, 3)
    assert grams.G[1, 1] == pytest.approx((grams.G[0, 0] + grams.G[0, 2]) / 2, rel=1e-14)
    # T_j T_k = (T_{j+k} + T_{|j-k|}) / 2 holds bit for bit in every Chebyshev
    # Gram: each entry is the sum of two halved moments, and row 0 the moments
    for samples in scenario_samples.values():
        domain = DomainMap(samples.x.min(), samples.x.max())
        for n in (3, 8, 32):
            grams = accumulate_grams(samples, BasisSpec(Family.CHEBYSHEV, n, domain), n)
            for M in (grams.G, grams.A_f, grams.A_g):
                for j in range(n):
                    k = np.arange(n - j)
                    np.testing.assert_array_equal(
                        M[j, k], 0.5 * M[0, j + k] + 0.5 * M[0, np.abs(j - k)])


@pytest.mark.parametrize("family, n", [
    *(pytest.param(family, 4, id=family.value) for family in Family),
    *(pytest.param(family, n, id=f"{family.value}-{n}")
      for family in (Family.CHEBYSHEV, Family.LEGENDRE) for n in (33, 64, 200)),
    pytest.param(Family.MONOMIAL, 12, id="monomial-12"),
])
def test_path_equivalence_random_data(family, n):
    # every family's Grams are the Chebyshev ones, bit for bit
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 3, 500)
    s = SampleSet(x=x, w=rng.uniform(0.1, 1, 500),
                  f=np.sin(x), g=np.cos(x))
    domain = DomainMap(x.min(), x.max())
    direct = reference.direct_grams(s, BasisSpec(Family.CHEBYSHEV, n, domain), n)
    via = accumulate_grams(s, BasisSpec(family, n, domain), n)
    for other in Family:
        twin = accumulate_grams(s, BasisSpec(other, n, domain), n)
        for a, b in ((via.G, twin.G), (via.A_f, twin.A_f), (via.A_g, twin.A_g)):
            np.testing.assert_array_equal(a, b)
        # so are the oracle's
        twin = reference.direct_grams(s, BasisSpec(other, n, domain), n)
        for a, b in ((direct.G, twin.G), (direct.A_f, twin.A_f), (direct.A_g, twin.A_g)):
            np.testing.assert_array_equal(a, b)
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
    g2 = accumulate_grams(SampleSet(s.x, s.w * c, s.f, s.g), b, 3)
    (G1, A1, _), (G2, A2, _) = unscaled(g1), unscaled(g2)
    np.testing.assert_array_equal(G2, c * G1)
    np.testing.assert_array_equal(A2, c * A1)
    np.testing.assert_array_equal(G2[0], c * G1[0])
    assert g2.total_measure == c * g1.total_measure


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2**16))
def test_weight_scaling_general_factor(c, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, 20)
    s = SampleSet(x=x, w=rng.uniform(0.5, 1.5, 20), f=rng.standard_normal(20))
    b = monomial(3)
    g1 = accumulate_grams(s, b, 3)
    g2 = accumulate_grams(SampleSet(s.x, s.w * c, s.f, s.g), b, 3)
    (G1, A1, _), (G2, A2, _) = unscaled(g1), unscaled(g2)
    # Norm-wise, against the sum of absolute terms (for G its largest
    # entry): an entry that is a cancelling sum carries an elementwise
    # relative error far above the rounding of its terms.
    assert np.abs(G2 - c * G1).max() <= 1e-14 * np.abs(c * G1).max()
    assert np.abs(A2 - c * A1).max() <= 1e-14 * c * np.sum(s.w * np.abs(s.f))
    assert g2.total_measure == pytest.approx(c * g1.total_measure, rel=1e-14)


def test_broadcast_unit_weights_give_the_grams_of_their_dense_copy(scenario_samples):
    s = scenario_samples["spikes"]
    unit = SampleSet(x=s.x, w=np.broadcast_to(1.0, s.size), f=s.f, g=s.g)
    dense = SampleSet(x=s.x, w=np.ones(s.size), f=s.f, g=s.g)
    for n in (1, 8, 33):
        basis = BasisSpec(Family.CHEBYSHEV, n, DomainMap(-1.0, 1.0))
        grams, expected = accumulate_grams(unit, basis, n), accumulate_grams(dense, basis, n)
        for name in ("G", "A_f", "A_g"):
            np.testing.assert_array_equal(getattr(grams, name), getattr(expected, name))
        assert grams.exponents == expected.exponents


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


def test_spans_skip_zero_weights():
    # zero weights scattered, in one long run, and at the extremes of every column
    rng = np.random.default_rng(3)
    M = 200_000
    x, f, g = rng.standard_normal((3, M))
    w = rng.uniform(0.5, 1.5, M)
    w[rng.random(M) < 0.1] = 0.0
    w[70_000:140_000] = 0.0
    for arr in (x, f, g):
        arr[[5, 70_001, 150_000]] = (-1e300, 1e300, -1e300)
    w[[5, 150_000]] = 0.0
    s = SampleSet(x=x, w=w, f=f, g=g)
    positive = w > 0
    for name, arr in (("x", x), ("f", f), ("g", g)):
        assert s.spans[name] == (arr[positive].min(), arr[positive].max())
        # bit for bit the masked reductions
        masked = (np.min(arr, where=positive, initial=np.inf),
                  np.max(arr, where=positive, initial=-np.inf))
        assert [v.hex() for v in s.spans[name]] == [float(v).hex() for v in masked]
    assert s.spans["w"] == (w[positive].min(), w.max())


def test_gram_is_psd(scenario_samples):
    for samples in scenario_samples.values():
        b = BasisSpec(Family.CHEBYSHEV, 8, DomainMap(samples.x.min(), samples.x.max()))
        grams = accumulate_grams(samples, b, 8)
        ev = np.linalg.eigvalsh(grams.G)
        assert ev.min() >= -1e-12 * ev.max()
        assert np.array_equal(grams.G, grams.G.T)


def test_symmetry_is_bitwise(scenario_samples):
    samples = scenario_samples["smooth"]
    b = BasisSpec(Family.LEGENDRE, 6, DomainMap(samples.x.min(), samples.x.max()))
    grams = accumulate_grams(samples, b, 6)
    for M in (grams.G, grams.A_f, grams.A_g):
        assert np.array_equal(M, M.T)


def _pencil(n, seed):
    B = np.random.default_rng(seed).standard_normal((n, n))
    return B + B.T


@pytest.mark.parametrize("bad, match", [
    # G = I and A_f = diag(1, 2) are symmetric: only A_g is rejected
    (dict(G=np.eye(2), A_f=np.diag([1.0, 2.0]), A_g=np.array([[0.0, 1.0], [0.0, 0.0]])),
     "A_g is not symmetric"),
    (dict(A_g=_pencil(3, 1) + np.triu(np.full((3, 3), 1e-9), 1)), "A_g is not symmetric"),
    (dict(A_f=_pencil(2, 1)), "A_f has shape"),
    (dict(A_g=_pencil(4, 1)), "A_g has shape"),
    (dict(A_g=np.ones(3)), "A_g must be square"),
    (dict(G=np.diag([1.0, np.inf, 1.0])), "G has a non-finite entry"),
    (dict(A_f=np.full((3, 3), np.nan)), "A_f has a non-finite entry"),
    (dict(A_g=np.diag([1.0, -np.inf, 1.0])), "A_g has a non-finite entry"),
], ids=["A_g-asymmetric", "A_g-asymmetric-past-1e-10", "A_f-shape", "A_g-shape",
        "A_g-not-square", "G-inf", "A_f-nan", "A_g-inf"])
def test_gramset_checks_each_matrix_when_made(bad, match):
    grams = dict(G=np.eye(3) + 0.1 * _pencil(3, 2), A_f=_pencil(3, 3), A_g=_pencil(3, 4))
    with pytest.raises(InputDataError, match=match):
        GramSet(**{**grams, **bad})


def test_gramset_stores_each_matrix_symmetrized():
    rng = np.random.default_rng(5)
    raw = {name: _pencil(4, k) + 1e-12 * rng.standard_normal((4, 4))
           for k, name in enumerate(("G", "A_f", "A_g"))}
    grams = GramSet(**raw)
    for name, M in raw.items():
        stored = getattr(grams, name)
        assert not np.array_equal(M, M.T)
        np.testing.assert_array_equal(stored, 0.5 * M + 0.5 * M.T)


def test_configuration_errors(two_atom):
    with pytest.raises(ConfigurationError):
        accumulate_grams(two_atom, monomial(2), 3)
    with pytest.raises(ConfigurationError):
        accumulate_grams(two_atom, monomial(2), 0)


def _workspace_rows(n, measures):
    # the rows the chunk loop writes: h + 1 Chebyshev rows, the multipliers
    # T_{2h} .. T_{(P-1)h} and 2 T_h, and the (P measures) operand rows
    h, P = moments._split(n)
    return h + 1 + (P - 1 if P > 2 else 0) + P * measures


@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
@pytest.mark.parametrize("n", [1, 2, 8, 32, 128])
def test_gram_route_evaluates_h_plus_one_chebyshev_rows(monkeypatch, scenario_samples, family, n):
    specs = []
    evaluate = moments.evaluate_all

    def recorded(spec, x, out):
        specs.append(spec)
        return evaluate(spec, x, out)

    monkeypatch.setattr(moments, "evaluate_all", recorded)
    samples = scenario_samples["smooth"]
    domain = DomainMap(samples.x.min(), samples.x.max())
    accumulate_grams(samples, BasisSpec(family, n, domain), n)
    h, P = moments._split(n)
    assert h * P >= 2 * n - 2 and (h - 1) * P < 2 * n - 2
    assert h + 1 <= n or n < 4  # fewer rows than n basis rows, from P = 2 on
    measures = 3 if samples.has_g else 2
    chunk = max(moments._CHUNK_SAMPLES, moments._CHUNK_ELEMENTS // _workspace_rows(n, measures))
    assert specs == [BasisSpec(Family.CHEBYSHEV, h + 1, domain)] * -(-samples.size // chunk)


@pytest.mark.parametrize("n", [8, 32, 64, 1000])
def test_moment_blocks_fit_the_budget_or_sit_at_the_floor(monkeypatch, n):
    # the budget covers every row of a chunk's workspace: its h + 1
    # Chebyshev rows, its multiplier rows and its (P measures) operand
    lengths, workspaces = [], []
    evaluate, workspace = moments.evaluate_all, moments._workspace

    def recorded(spec, x, out):
        lengths.append(x.size)
        return evaluate(spec, x, out)

    def recorded_workspace(*args):
        workspaces.append(workspace(*args))
        return workspaces[-1]

    monkeypatch.setattr(moments, "evaluate_all", recorded)
    monkeypatch.setattr(moments, "_workspace", recorded_workspace)
    M = 40_000
    x = np.linspace(-1.0, 1.0, M)
    basis = BasisSpec(Family.CHEBYSHEV, n, DomainMap(-1, 1))
    for g, measures in ((None, 2), (x * x, 3)):
        lengths.clear()
        workspaces.clear()
        accumulate_grams(SampleSet(x=x, w=np.ones(M), f=x, g=g), basis, n)
        assert sum(lengths) == M and len(lengths) > 1
        *full, last = lengths
        assert len(set(full)) == 1 and 0 < last <= full[0]
        [views] = workspaces
        rows = sum(len(view) for view in views)
        assert rows == _workspace_rows(n, measures)
        for size in full:
            assert size == views[0].shape[1]
            assert rows * size <= moments._CHUNK_ELEMENTS or size == moments._CHUNK_SAMPLES
            assert size >= moments._CHUNK_SAMPLES


def test_moment_pass_memory_is_one_cache_sized_block():
    M, n, measures = 200_000, 32, 3
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
    # the workspace and the recurrence's one scratch row: a second block, or
    # numpy's 64 KiB ufunc buffer, would not fit in the slack
    row = 8 * moments._CHUNK_SAMPLES
    assert peak < (_workspace_rows(n, measures) + 1) * row + 16 * 2**10


@pytest.mark.parametrize("n, g", [(1, None), (8, "g"), (32, "g"), (64, None)])
def test_workspace_rows_start_on_cache_lines(monkeypatch, n, g):
    # one workspace per call: every chunk is evaluated into its block, and
    # each block, multiplier and operand row begins a cache line
    workspaces, blocks = [], []
    workspace, evaluate = moments._workspace, moments.evaluate_all

    def recorded_workspace(*args):
        workspaces.append(workspace(*args))
        return workspaces[-1]

    def recorded(spec, x, out):
        blocks.append(out)
        return evaluate(spec, x, out)

    monkeypatch.setattr(moments, "_workspace", recorded_workspace)
    monkeypatch.setattr(moments, "evaluate_all", recorded)
    M = 60_011  # the last chunk is shorter
    x = np.linspace(-1.0, 1.0, M)
    accumulate_grams(SampleSet(x=x, w=np.ones(M), f=x, g=None if g is None else x * x),
                     BasisSpec(Family.LEGENDRE, n, DomainMap(-1, 1)), n)
    [(block, multipliers, operand)] = workspaces
    h, P = moments._split(n)
    measures = 3 if g else 2
    assert block.shape[0] == h + 1 and operand.shape[0] == P * measures
    assert multipliers.shape[0] == (P - 1 if P > 2 else 0)
    assert block.base is multipliers.base is operand.base
    assert len(blocks) > 1
    assert all(out.ctypes.data == block.ctypes.data for out in blocks)
    for row in (*block, *multipliers, *operand):
        assert row.ctypes.data % moments._LINE == 0


def test_workspace_is_freed_before_the_grams_are_assembled(monkeypatch):
    # the n x n assembly must not run beside a chunk's workspace
    M, n = 200_000, 32
    x = np.linspace(-1.0, 1.0, M)
    s = SampleSet(x=x, w=np.ones(M), f=np.sin(x), g=np.cos(x))
    at_assembly = []
    assemble = moments._grams_from_moments

    def recorded(*args):
        at_assembly.append(tracemalloc.get_traced_memory()[0])
        return assemble(*args)

    monkeypatch.setattr(moments, "_grams_from_moments", recorded)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        accumulate_grams(s, BasisSpec(Family.CHEBYSHEV, n, DomainMap(-1, 1)), n)
    finally:
        tracemalloc.stop()
    workspace = _workspace_rows(n, 3) * 8 * moments._CHUNK_SAMPLES
    [held] = at_assembly
    assert held - before < workspace / 8


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_chebyshev_coefficients_reproduce_each_family(n):
    x = np.concatenate([[-1.0, 1.0], np.random.default_rng(4).uniform(-1.0, 1.0, 200)])
    T = evaluate_all(BasisSpec(Family.CHEBYSHEV, n, DomainMap(-1.0, 1.0)), x)
    vanders = {Family.CHEBYSHEV: npcheb.chebvander, Family.LEGENDRE: nplegendre.legvander,
               Family.MONOMIAL: nppoly.polyvander}
    for family, vander in vanders.items():
        C = _chebyshev_coefficients(family, n)
        # |Q_k| <= 1 on [-1, 1]; both sides round in each of their k steps
        np.testing.assert_allclose(C @ T, vander(x, n - 1).T,
                                   rtol=0, atol=4 * n * np.finfo(float).eps)
        # Q_k(1) = 1 with non-negative coefficients
        assert (C >= 0).all()
        np.testing.assert_allclose(C.sum(axis=1), 1.0, rtol=0, atol=n * np.finfo(float).eps)
    np.testing.assert_array_equal(_chebyshev_coefficients(Family.CHEBYSHEV, n), np.eye(n))


def _splits(n):
    # the rule's split, and splits with slack: h P > 2n - 2
    h, P = moments._split(n)
    return sorted({(h, P), (h + 1, P), (2 * n - 1, 1), (max(-(-(2 * n - 2) // 3), 1), 3),
                   (max(n - 1, 1), 2), (max(-(-(2 * n - 2) // 5), 1) + 1, 5)})


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64])
def test_recovered_moments_match_direct_sums(monkeypatch, n):
    rng = np.random.default_rng(n)
    M = 5000
    x = rng.uniform(-2.0, 3.0, M)
    s = SampleSet(x=x, w=rng.uniform(0.0, 1.0, M) * (rng.random(M) > 0.1),
                  f=np.sin(3 * x), g=np.cos(x) - 0.5)
    domain = DomainMap(-2.0, 3.0)
    T = evaluate_all(BasisSpec(Family.CHEBYSHEV, 2 * n - 1, domain), s.x)  # w > 0 only
    exponents = tuple(scale_exponent(*s.spans[name]) for name in "wfg")
    w, f, g = (np.ldexp(getattr(s, name), e) for name, e in zip("wfg", exponents))
    units = np.stack([w, w * f, w * g])
    direct = units @ T.T
    scale = np.abs(units).sum(axis=1, keepdims=True)  # |T_j| <= 1 on the domain
    for h, P in _splits(n):
        assert h * P >= 2 * n - 2
        monkeypatch.setattr(moments, "_split", lambda n, split=(h, P): split)
        m = moments._chebyshev_moments(s, domain, n, exponents)
        assert m.shape == (3, h * P + 1)
        assert (np.abs(m[:, :2 * n - 1] - direct) <= 1e-14 * scale).all(), (h, P)


def test_zero_weight_sample_far_outside_the_support_changes_nothing():
    # several chunks, with zero weights scattered through them; some zero-weight
    # rows sit at x = 1e10, where T_k overflows from k = 30 on (the n = 33 pass
    # forms T_48), or carry f and g of +-1e300, and 0 inf would be NaN in the sums
    rng = np.random.default_rng(11)
    M = 4 * moments._CHUNK_SAMPLES + 1234
    x = rng.uniform(-1.0, 1.0, M)
    w = rng.uniform(0.5, 1.5, M)
    f, g = np.cos(3 * x), np.sin(x)
    zero = rng.random(M) < 0.2
    w[zero] = 0.0
    far, huge = np.flatnonzero(zero)[::7], np.flatnonzero(zero)[3::7]
    x[far] = 1e10
    f[huge], g[huge] = 1e300, -1e300
    kept = SampleSet(x=x[~zero], w=w[~zero], f=f[~zero], g=g[~zero])
    s = SampleSet(x=x, w=w, f=f, g=g)
    for name in "xwfg":
        np.testing.assert_array_equal(getattr(s, name), getattr(kept, name))
    for n in (8, 33):
        for family in (Family.CHEBYSHEV, Family.LEGENDRE):
            r1, r2 = analyze(kept, n, family), analyze(s, n, family)
            for a, b in ((r1.quad_f.nodes, r2.quad_f.nodes),
                         (r1.quad_f.weights, r2.quad_f.weights),
                         (r1.quad_g.nodes, r2.quad_g.nodes),
                         (r1.quad_g.weights, r2.quad_g.weights),
                         (r1.projection(), r2.projection())):
                np.testing.assert_array_equal(a, b)
            docs = [dumps_json(result_document(r, DEFAULT_EPSILON, [r.correlation("value")]))
                    for r in (r1, r2)]
            assert docs[0] == docs[1]


def test_sampleset_validates_without_column_sized_temporaries():
    # each column is reduced to its min and max; masks are built only to
    # find the first bad record of a rejected input
    M = 2**20
    x, w, f, g = np.random.default_rng(5).uniform(0.5, 1.5, (4, M))
    tracemalloc.start()
    try:
        SampleSet(x=x, w=w, f=f, g=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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
        accumulate_grams(s, BasisSpec(Family.CHEBYSHEV, n, DomainMap(x.min(), x.max())), n)


@pytest.mark.parametrize("process", ["f", "g"])
def test_operator_below_the_float_minimum_solves_with_scaled_nodes(process):
    # every product w f is below the float minimum, but w and f are each
    # scaled to [1/2, 2) first: the nodes are 1e-300 times those of w = 1
    x = np.linspace(-1.0, 1.0, 50)
    values = {"f": np.cos(3 * x), "g": np.sin(x)}
    unit = analyze(SampleSet(x=x, w=np.ones(50), **values), 8)
    values[process] = 1e-300 * values[process]
    tiny = analyze(SampleSet(x=x, w=np.full(50, 1e-300), **values), 8)
    for name in "fg":
        got, want = getattr(tiny, f"quad_{name}").nodes, getattr(unit, f"quad_{name}").nodes
        if name == process:
            want = 1e-300 * want
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_operator_zero_by_cancellation_or_zero_process_is_kept(two_atom):
    # <f> = -1 + 1 = 0 at n = 1, and f vanishes where w > 0: both are exact zeros
    assert not accumulate_grams(two_atom, monomial(1), 1).A_f.any()
    x = np.linspace(-1.0, 1.0, 50)
    samples = SampleSet(x=x, w=(x > 0) * 1.0, f=(x <= 0) * 1.0, g=np.zeros(50))
    grams = accumulate_grams(samples, monomial(4), 4)
    assert not grams.A_f.any() and not grams.A_g.any()
