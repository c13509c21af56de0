"""The JSON and CSV writers against a naive per-entry formatter, and the
memory they take while writing."""
import io
import tracemalloc

import numpy as np
import pytest

from lebquad import SampleSet, analyze
from lebquad.cli import main
from lebquad.io import dumps_json, result_document, write_csv, write_json
from lebquad.joint import KINDS
from lebquad.pipeline import AnalysisResult

EPSILON = 1e-12


def _fmt(value) -> str:
    return "%.17g" % float(value)


def _naive_json(obj) -> str:
    """One entry at a time, each float through its own format."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_naive_json(str(k))}: {_naive_json(v)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_naive_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _naive_json(obj.tolist())
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return _fmt(obj)


def _naive_csv(result, matrices) -> str:
    lines = ["section,kind,i,j,a,b,value"]
    for name, quad in (("f", result.quad_f), ("g", result.quad_g)):
        if quad is None:
            continue
        for i in range(quad.n):
            lines.append(f"quadrature,{name},{i},,{_fmt(quad.nodes[i])},"
                         f"{_fmt(quad.weights[i])},{_fmt(quad.amplitudes[i])}")
    for mat in matrices:
        for i, j in np.ndindex(mat.W.shape):
            lines.append(f"joint,{mat.kind},{i},{j},{_fmt(result.quad_f.nodes[i])},"
                         f"{_fmt(result.quad_g.nodes[j])},{_fmt(mat.W[i, j])}")
    return "\n".join(lines) + "\n"


def _written(writer, *args) -> str:
    out = io.StringIO()
    writer(out, *args)
    return out.getvalue()


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("family", ["chebyshev", "legendre"])
@pytest.mark.parametrize("scenario", ["smooth", "spikes", "student_t", "clustered"])
def test_writers_match_the_naive_formatter(scenario_samples, scenario, family, n):
    samples = scenario_samples[scenario]
    result = analyze(samples, n=n, family=family)
    S = result.projection()
    matrices = [result.correlation(kind, S=S) for kind in KINDS]
    doc = result_document(result, EPSILON, matrices)
    expected = _naive_json(doc) + "\n"
    assert _written(write_json, doc) == expected
    assert dumps_json(doc) == expected
    assert _written(write_csv, result, matrices) == _naive_csv(result, matrices)

    # the quadrature output of samples without g
    result = analyze(SampleSet(x=samples.x, w=samples.w, f=samples.f), n=n, family=family)
    doc = result_document(result, EPSILON)
    assert "quadrature_g" not in doc
    assert _written(write_json, doc) == _naive_json(doc) + "\n"
    assert _written(write_csv, result) == _naive_csv(result, ())


def test_dumps_json_takes_a_parsed_document():
    doc = {"a": [[1.5, -2.0], [0.1, 3]], "b": "q\"\\", "c": (7, np.int64(-2), 1e300)}
    assert dumps_json(doc) == _naive_json(doc) + "\n"


SMOOTH_40K = """M = 40000
seed = 20180719
x_law = uniform_random(lo=-1, hi=1)
f_law = smooth(freq=1.0, curvature=0.3)
g_law = smooth(freq=2.0, curvature=-0.2)
omega_law = unit
"""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_write_peak_is_under_two_squares(tmp_path, monkeypatch, fmt):
    # measured: 0.1 (JSON) and 0.27 (CSV) n x n arrays written row by row;
    # 51.5 and 84.3 with the whole output formatted as one string first
    n = 200
    scenario = tmp_path / "smooth.scenario"
    scenario.write_text(SMOOTH_40K)
    held = []
    correlation = AnalysisResult.correlation

    def correlation_then_mark(self, *args, **kwargs):
        matrix = correlation(self, *args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return matrix

    monkeypatch.setattr(AnalysisResult, "correlation", correlation_then_mark)
    tracemalloc.start()
    try:
        code = main(["joint", "--scenario", str(scenario), "--n", str(n),
                     "--kinds", ",".join(KINDS), "--format", fmt,
                     "--output", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(held) == len(KINDS)
    assert (peak - held[-1]) / (8 * n * n) < 2
