import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lebquad import ConfigurationError, InputDataError, analyze, datagen
from lebquad.datagen import _DRAW_CHUNK as CHUNK
from lebquad.datagen import Law, ScenarioSpec, generate, parse_scenario


def make_spec(**overrides):
    fields = dict(
        name="t", M=100, seed=5,
        x_law=Law("uniform_random"),
        f_law=Law("smooth"),
        g_law=Law("affine_of_x"),
        omega_law=Law("unit"),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def test_determinism_is_bit_exact():
    spec = make_spec(f_law=Law("spikes", {"rate": 0.01, "magnitude": 1000.0}),
                     omega_law=Law("random_positive"), M=5000)
    a = generate(spec)
    b = generate(spec)
    for col in ("x", "w", "f", "g"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col))


def test_different_seed_different_samples():
    a = generate(make_spec(seed=1))
    b = generate(make_spec(seed=2))
    assert not np.array_equal(a.x, b.x)


def test_smallest_grid_is_two_atom_fixture():
    spec = make_spec(M=2, x_law=Law("uniform_grid"), f_law=Law("affine_of_x"),
                     g_law=None)
    s = generate(spec)
    np.testing.assert_array_equal(s.x, [-1.0, 1.0])
    np.testing.assert_array_equal(s.w, [1.0, 1.0])
    np.testing.assert_array_equal(s.f, [-1.0, 1.0])


def test_weights_strictly_positive():
    s = generate(make_spec(omega_law=Law("random_positive"), M=2000))
    assert np.all(s.w > 0)


def test_student_t_mean_stabilizes_variance_grows():
    means, small_var, large_var = [], [], []
    for seed in range(12):
        spec_small = make_spec(seed=seed, M=2000, f_law=Law("student_t", {"nu": 1.5}))
        spec_large = make_spec(seed=seed, M=50000, f_law=Law("student_t", {"nu": 1.5}))
        small = generate(spec_small).f
        large = generate(spec_large).f
        means.append(large.mean())
        small_var.append(small.var())
        large_var.append(large.var())
    # finite mean: sample means stay bounded; infinite variance: it keeps growing
    assert np.median(np.abs(means)) < 1.0
    assert np.median(large_var) > np.median(small_var)


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        make_spec(M=0)
    with pytest.raises(ConfigurationError):
        make_spec(f_law=Law("student_t", {"nu": 1.0}))
    with pytest.raises(ConfigurationError):
        make_spec(f_law=Law("spikes", {"rate": 2.0}))
    with pytest.raises(ConfigurationError):
        make_spec(x_law=Law("bogus"))
    # each of these would otherwise fail inside numpy during generation
    for bad in (dict(seed=-1),
                dict(x_law=Law("uniform_random", {"lo": 1.0, "hi": 0.0})),
                dict(x_law=Law("uniform_random", {"lo": -1e308, "hi": 1e308})),
                dict(x_law=Law("clustered", {"centers": 0.0})),
                dict(x_law=Law("clustered", {"centers": 101.0})),
                dict(x_law=Law("clustered", {"centers": float("nan")})),
                dict(f_law=Law("smooth", {"freq": float("inf")}))):
        with pytest.raises(ConfigurationError):
            make_spec(**bad)


@pytest.mark.parametrize("bad, match", [
    (dict(f_law=Law("spikes", {"rat": 0.9, "magnitud": 5.0})), "'spikes' has no parameter 'rat'"),
    (dict(g_law=Law("smooth", {"frequency": 2.0})), "'smooth' has no parameter 'frequency'"),
    (dict(omega_law=Law("unit", {"bogus": 1.0})), "'unit' has no parameter 'bogus'"),
    (dict(x_law=Law("uniform_grid", {"centers": 2.0})), "'uniform_grid' has no parameter"),
    (dict(x_law=Law("clustered", {"centers": 2.9})), "'clustered' needs a whole number"),
], ids=["spikes-rat", "smooth-frequency", "unit-bogus", "uniform_grid-centers", "centers-2.9"])
def test_law_takes_only_its_declared_parameters(bad, match):
    with pytest.raises(ConfigurationError, match=match):
        make_spec(**bad)


def test_parse_scenario_roundtrip():
    text = """
    # comment
    name = demo
    M = 42
    seed = 99
    x_law = clustered(centers=2, width=0.1)
    f_law = spikes(rate=0.05, magnitude=100)
    g_law = smooth
    omega_law = unit
    """
    spec = parse_scenario(text)
    assert spec.name == "demo"
    assert spec.M == 42
    assert spec.x_law == Law("clustered", {"centers": 2.0, "width": 0.1})
    assert spec.f_law.params["magnitude"] == 100.0
    assert spec.g_law == Law("smooth")


def test_parse_scenario_errors():
    with pytest.raises(InputDataError, match="line 1"):
        parse_scenario("not a key value pair")
    with pytest.raises(InputDataError, match="missing"):
        parse_scenario("M = 3\nseed = 1")
    with pytest.raises(InputDataError):
        parse_scenario("M = 3\nseed = 1\nx_law = uniform_grid\n"
                       "f_law = smooth(freq=a)\nomega_law = unit")


def test_builtin_catalog_loads_and_runs():
    names = datagen.builtin_scenario_names()
    assert {"smooth", "spikes", "student_t", "clustered"} <= set(names)
    for name in names:
        spec = datagen.load_scenario(name)
        assert spec.M == 10000
        assert spec.g_law is not None


def test_unknown_scenario_reported():
    with pytest.raises(InputDataError, match="built-ins"):
        datagen.load_scenario("nope_not_here")


def test_pipeline_survives_all_scenarios_at_high_order(scenario_samples):
    for samples in scenario_samples.values():
        result = analyze(samples, n=12)
        assert result.quad_f.weights.sum() == pytest.approx(samples.w.sum(), rel=1e-8)


# The whole-column law expressions that generate() evaluates chunk by chunk:
# the reference its columns must equal bit for bit.
def _param(law, key, default):
    return float(law.params.get(key, default))


def reference_x(law, M, rng):
    lo, hi = _param(law, "lo", -1.0), _param(law, "hi", 1.0)
    if law.name == "uniform_grid":
        return np.linspace(lo, hi, M) if M > 1 else np.array([0.5 * (lo + hi)])
    if law.name == "uniform_random":
        return rng.uniform(lo, hi, M)
    k = int(_param(law, "centers", 3))
    width = _param(law, "width", 0.05)
    centers = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), k)
    x = rng.choice(centers, M) + width * rng.standard_normal(M)
    return np.clip(x, lo, hi)


def reference_values(law, x, rng):
    if law.name == "affine_of_x":
        return _param(law, "a", 1.0) * x + _param(law, "b", 0.0)
    if law.name == "smooth":
        freq = _param(law, "freq", 1.0)
        curvature = _param(law, "curvature", 0.3)
        return np.sin(np.pi * freq * x) + curvature * x * x
    if law.name == "spikes":
        rate = _param(law, "rate", 0.01)
        magnitude = _param(law, "magnitude", 1000.0)
        base = np.sin(np.pi * x)
        hit = rng.random(x.size) < rate
        return base + np.where(hit, magnitude * rng.standard_normal(x.size), 0.0)
    return _param(law, "scale", 1.0) * rng.standard_t(_param(law, "nu", 1.5), x.size)


def reference_generate(spec):
    rng = np.random.default_rng(spec.seed)
    x = reference_x(spec.x_law, spec.M, rng)
    w = np.ones(spec.M) if spec.omega_law.name == "unit" else rng.uniform(0.1, 1.0, spec.M)
    f = reference_values(spec.f_law, x, rng)
    return x, w, f, reference_values(spec.g_law, x, rng)


X_CASES = [Law("uniform_grid", {"lo": -2.0, "hi": 3.0}), Law("uniform_random"),
           Law("clustered", {"centers": 5, "width": 0.2})]
VALUE_CASES = [Law("affine_of_x", {"a": 2.0, "b": -1.0}), Law("smooth", {"freq": 3.0}),
               Law("spikes", {"rate": 0.1, "magnitude": 50.0}), Law("student_t", {"nu": 2.5})]


@pytest.mark.parametrize("M", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("x_law", X_CASES, ids=lambda law: law.name)
@pytest.mark.parametrize("value", range(len(VALUE_CASES)),
                         ids=[law.name for law in VALUE_CASES])
def test_chunked_laws_equal_whole_column_reference(M, x_law, value):
    # each value law as f, and as g after the next law's draws
    f_law, g_law = VALUE_CASES[value], VALUE_CASES[(value + 1) % len(VALUE_CASES)]
    for omega in ("unit", "random_positive"):
        spec = make_spec(M=M, x_law=x_law, f_law=f_law, g_law=g_law, omega_law=Law(omega))
        s = generate(spec)
        for name, expected in zip("xwfg", reference_generate(spec)):
            np.testing.assert_array_equal(getattr(s, name), expected, err_msg=name)


def test_generate_peak_is_the_columns_it_keeps():
    # measured 1.08x the owned columns; with the whole-column law expressions
    # and w a column of ones it was 1.28x the columns, ones included
    spec = replace(datagen.load_scenario("spikes"), M=2**18)
    tracemalloc.start()
    try:
        s = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.w.strides == (0,) and not s.w.flags.writeable  # unit weights: one value
    owned = sum(c.nbytes for c in (s.x, s.w, s.f, s.g) if c.flags.owndata)
    assert owned == 3 * 8 * spec.M
    assert peak <= 1.15 * owned


def test_memory_guard_counts_the_columns_generate_keeps(monkeypatch):
    # room for 3 columns of M = 1000 samples, not for 4
    monkeypatch.setattr(datagen, "physical_memory", lambda: 3 * 8 * 1000 + 4000)
    make_spec(M=1000, omega_law=Law("unit"))  # x, f and g
    with pytest.raises(ConfigurationError, match="physical memory"):
        make_spec(M=1000, omega_law=Law("random_positive"))  # and w
