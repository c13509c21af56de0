"""The benchmark's per-layer tracer must keep hooking the real call path.

``perfbench/tracing.py`` rebinds module attributes by name; a renamed or
bypassed function would silently drop out of the traced run.
"""
import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from lebquad import SampleSet, cli, datagen, io, joint, moments, pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for module, attr, name in _load_tracing().TARGETS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


def test_analyze_goes_through_traced_gram_and_basis_layers(monkeypatch):
    calls = {"accumulate_grams": 0, "evaluate_all": 0}

    def counted(module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    counted(pipeline, "accumulate_grams")
    counted(moments, "evaluate_all")
    x = np.linspace(-1.0, 1.0, 50)
    pipeline.analyze(SampleSet(x=x, w=np.ones(50), f=x**2, g=np.sin(x)), n=4)
    assert calls["accumulate_grams"] == 1
    assert calls["evaluate_all"] >= 1


def test_cli_reads_csv_through_traced_io_attribute(monkeypatch, tmp_path):
    calls = []
    read = io.read_samples_csv
    monkeypatch.setattr(io, "read_samples_csv", lambda path: calls.append(path) or read(path))
    csv = tmp_path / "in.csv"
    csv.write_text("x,f,g\n-1,1,0\n0,2,1\n1,3,0\n")
    assert cli.main(["joint", "--input", str(csv), "--n", "2",
                     "--output", str(tmp_path / "out.json")]) == 0
    assert calls == [str(csv)]


def test_cli_joint_reaches_each_traced_estimator_once(monkeypatch, tmp_path):
    names = ("value_correlation", "probability_correlation",
             "density_matrix_correlation", "pure_squared_correlation")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(joint, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(joint, name, wrapper)

    for name in names:
        counted(name)
    csv = tmp_path / "in.csv"
    csv.write_text("x,f,g\n-1,1,0\n0,2,1\n1,3,0\n")
    assert cli.main(["joint", "--input", str(csv), "--n", "2",
                     "--kinds", "value,probability,density,pure_squared",
                     "--output", str(tmp_path / "out.json")]) == 0
    assert calls == dict.fromkeys(names, 1)


def test_benchmark_joint_path_passes_its_own_checks(monkeypatch):
    # the benchmark's in-memory op and its CLI output check, on a small input:
    # a change to what the joint layer returns breaks them here first
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py does `import tracing`
    workloads = importlib.import_module("workloads")
    samples = datagen.generate(replace(datagen.load_scenario("smooth"), M=2000))
    res = workloads.analyze_joint(samples, 8, "chebyshev", serialize=True)
    assert workloads.identity_failures(res.outputs()) == []
    # measure.py compares each op's digest with the warm-up's
    assert workloads.analyze_joint(samples, 8, "chebyshev", serialize=True).digest() == res.digest()
    cli_csv = workloads.CliCsv(seed=1, smoke=True)
    cli_csv.ref_nodes = (res.result.quad_f.nodes, res.result.quad_g.nodes)
    assert cli_csv.check(workloads.CliResult(0, res.text.encode(), b"", 0)) == []


def test_benchmark_gram_peak_calls_build_the_grams_of_analyze(monkeypatch, tmp_path):
    # perfbench/measure.gram_peak_mb makes these two calls on each case; only
    # traced runs reach it, and measure.py is not imported here (it imports scipy)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    bulk = workloads.Bulk(seed=1, smoke=True)
    bulk.setup_inputs(tmp_path)
    for samples, n, family in bulk.cases:
        basis = pipeline.basis_for_samples(samples, n, family)
        grams = moments.accumulate_grams(samples, basis, n)
        want = pipeline.analyze(samples, n=n, family=family).grams
        for name in ("G", "A_f", "A_g"):
            np.testing.assert_array_equal(getattr(grams, name), getattr(want, name))
