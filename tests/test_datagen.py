import numpy as np
import pytest

from lebquad import ConfigurationError, InputDataError, analyze, datagen
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
