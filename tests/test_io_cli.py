import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lebquad import InputDataError, SampleSet, analyze, datagen, selftest
from lebquad.cli import main
from lebquad.io import (
    dumps_json,
    read_samples_csv,
    read_spectral_rho,
    result_document,
    write_samples_csv,
)
from lebquad.joint import KINDS
from lebquad.moments import max_order

TWO_ATOM_CSV = "x,w,f,g\n-1,1,-1,1\n1,1,1,-1\n"


@pytest.fixture
def two_atom_csv(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(TWO_ATOM_CSV)
    return str(path)


def test_read_csv_full(two_atom_csv):
    s = read_samples_csv(two_atom_csv)
    np.testing.assert_array_equal(s.x, [-1.0, 1.0])
    assert s.has_g


def test_read_csv_optional_columns(tmp_path):
    path = tmp_path / "min.csv"
    path.write_text("# comment\nx,f\n0.5,2\n0.7,3\n")
    s = read_samples_csv(str(path))
    np.testing.assert_array_equal(s.w, [1.0, 1.0])
    assert not s.has_g


def test_read_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,w,f\n0,1,2\n1,-3,4\n")
    with pytest.raises(InputDataError, match="line 3"):
        read_samples_csv(str(path))
    path.write_text("x,w,f\n0,1,oops\n")
    with pytest.raises(InputDataError, match="line 2"):
        read_samples_csv(str(path))
    path.write_text("x,q,f\n0,1,2\n")
    with pytest.raises(InputDataError, match="line 1"):
        read_samples_csv(str(path))
    # the vectorized value checks map the record back to its file line
    path.write_text("# c\nx,w,f\n\n0,1,2\n# c\n1,1,nan\n2,1,3\n")
    with pytest.raises(InputDataError, match="line 6: non-finite value in column 'f'"):
        read_samples_csv(str(path))
    path.write_text("\n# c\nx,w,f\n0,1,2\n\n1,-3,4\n2,1,nan\n")
    with pytest.raises(InputDataError, match="line 6: negative weight -3.0"):
        read_samples_csv(str(path))
    # quoting is not supported: no record spans two lines
    path.write_text('x,f\n0.5,"1\n",2\n')
    with pytest.raises(InputDataError, match="line 2: non-numeric"):
        read_samples_csv(str(path))
    path.write_text("# c\nx,f\n\n")
    with pytest.raises(InputDataError, match="contains no data rows"):
        read_samples_csv(str(path))


@pytest.mark.parametrize("text, error", [
    # np.loadtxt reads plain decimals only; float() would take both
    ("x,f\n1_0,2\n", "line 2: non-numeric value '1_0' in column 'x'"),
    ("x,f\n\u0661,2\n", "line 2: non-numeric value '\u0661' in column 'x'"),
    # lines end at \r\n, \r and \n, and nowhere else
    ("x,f\r\n0,1\r\n\r\n1,abc\r\n", "line 4: non-numeric value 'abc' in column 'f'"),
    ("x,f\r0,1\r1,abc\r", "line 3: non-numeric value 'abc' in column 'f'"),
    ("x,f\n0,1\n0.5,2\x0c3\n1,4\n", "line 3: non-numeric value '2\\x0c3' in column 'f'"),
    # only empty lines and lines starting with '#' are skipped
    ("x,f\n0,1\n  \n1,2\n", "line 3: expected 2 fields, got 1"),
    ("x,f\n0,1\n  # c\n1,2\n", "line 3: expected 2 fields, got 1"),
    # every record has the header's width, the first one too
    ("x,w,f,g\n0,1,2\n1,1,3\n", "line 2: expected 4 fields, got 3"),
    ("x,w,f,g\n0,1,2\n1,1,abc\n", "line 2: expected 4 fields, got 3"),
    # an empty field is not a number either
    ("x,w,f\n0,,1\n", "line 2: non-numeric value '' in column 'w'"),
], ids=["underscore-digits", "arabic-indic-digit", "crlf", "cr", "form-feed-in-record",
        "whitespace-line", "indented-comment", "short-rows", "short-rows-then-text",
        "empty-field"])
def test_read_csv_rejects_record_at_its_line(tmp_path, text, error):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    with pytest.raises(InputDataError) as exc:
        read_samples_csv(str(path))
    assert str(exc.value) == error


@pytest.mark.parametrize("record, error", [
    ("1,abc", "non-numeric value 'abc' in column 'f'"),
    ("1,2,3", "expected 2 fields, got 3"),
], ids=["non-numeric", "extra-field"])
def test_read_csv_bad_record_after_skipped_lines(tmp_path, record, error):
    path = tmp_path / "in.csv"
    path.write_text(f"# c\nx,f\n0,1\n\n# c\n\n{record}\n2,3\n")
    with pytest.raises(InputDataError) as exc:
        read_samples_csv(str(path))
    assert str(exc.value) == f"line 7: {error}"


@pytest.mark.parametrize("header, row, skipped, record, error", [
    ("x,f", "0,1", "\n# c\n\n# c\n", "1,abc",
     "line 60006: non-numeric value 'abc' in column 'f'"),
    ("x,w,f", "0,1,1", "\n# c\n\n", "1,1,nan", "line 60005: non-finite value in column 'f'"),
], ids=["non-numeric", "non-finite"])
def test_read_csv_bad_record_past_loadtxt_chunk(tmp_path, header, row, skipped, record, error):
    # the bad record sits after loadtxt's 50 000-line read chunk, behind
    # blank and comment lines; the non-finite one is SampleSet's to find
    path = tmp_path / "in.csv"
    path.write_text(f"{header}\n" + f"{row}\n" * 60_000 + skipped + f"{record}\n{row}\n")
    with pytest.raises(InputDataError) as exc:
        read_samples_csv(str(path))
    assert str(exc.value) == error


def test_read_csv_trailing_comment(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("x,f\n0,1 # first\n1,2#second\n")
    s = read_samples_csv(str(path))
    np.testing.assert_array_equal(s.x, [0.0, 1.0])
    np.testing.assert_array_equal(s.f, [1.0, 2.0])


def test_read_csv_header_only_without_warning(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("x,f\n# c\n\n")
    with pytest.raises(InputDataError, match="contains no data rows"):
        read_samples_csv(str(path))


def test_csv_write_read_roundtrip(tmp_path, scenario_samples):
    samples = scenario_samples["smooth"]
    path = tmp_path / "rt.csv"
    write_samples_csv(str(path), samples)
    back = read_samples_csv(str(path))
    np.testing.assert_array_equal(back.x, samples.x)
    np.testing.assert_array_equal(back.f, samples.f)
    np.testing.assert_array_equal(back.g, samples.g)


def test_read_csv_peak_memory_is_near_its_arrays(tmp_path):
    M = 100_000
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, M)
    path = tmp_path / "big.csv"
    write_samples_csv(str(path), SampleSet(x=x, w=rng.uniform(0.5, 1.5, M), f=np.sin(x),
                                           g=np.cos(x)))
    tracemalloc.start()
    try:
        samples = read_samples_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in (samples.x, samples.w, samples.f, samples.g))
    assert peak < 2.5 * arrays


def test_spectral_rho_file(tmp_path):
    path = tmp_path / "rho.txt"
    path.write_text("2\n1.5 0.5\n1 0\n0 1\n")
    lam, vectors = read_spectral_rho(str(path))
    np.testing.assert_array_equal(lam, [1.5, 0.5])
    np.testing.assert_array_equal(vectors, np.eye(2))
    path.write_text("2\n1.5 0.5\n1 0\n")
    with pytest.raises(InputDataError):
        read_spectral_rho(str(path))


@pytest.mark.parametrize("text, error", [
    ("2\n# c\n1 1\n1 0 0\n0 1\n", "line 4: expected 2 fields, got 3"),
    ("2\n1 1\n1 x\n0 1\n", "line 3: non-numeric value 'x' in column 2"),
    ("2\n1 1\n1 0\n", "expected 4 content lines, got 3"),
    ("2\n", "expected 4 content lines, got 1"),
], ids=["ragged-row", "non-numeric", "too-few-rows", "order-only"])
def test_spectral_rho_file_rejected(tmp_path, text, error):
    path = tmp_path / "rho.txt"
    path.write_text(text)
    with pytest.raises(InputDataError) as exc:
        read_spectral_rho(str(path))
    assert str(exc.value) == error


def test_json_output_round_trips(two_atom_csv):
    s = read_samples_csv(two_atom_csv)
    result = analyze(s, n=2, family="monomial")
    S = result.projection()
    mats = [result.correlation("value", S=S)]
    doc = json.loads(dumps_json(result_document(result, 1e-12, mats)))
    # recompute the joint matrix from the stored alpha coefficients
    alpha_f = np.array(doc["quadrature_f"]["alpha"])
    alpha_g = np.array(doc["quadrature_g"]["alpha"])
    a_f = np.array(doc["quadrature_f"]["amplitudes"])
    a_g = np.array(doc["quadrature_g"]["amplitudes"])
    S_back = alpha_f.T @ result.grams.G @ alpha_g
    V_back = a_f[:, None] * S_back * a_g[None, :]
    np.testing.assert_allclose(V_back, np.array(doc["joint"][0]["matrix"]), atol=1e-12)
    assert doc["meta"]["n"] == 2
    assert doc["meta"]["total_measure"] == pytest.approx(2.0)


def test_cli_quadrature_json(two_atom_csv, tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["quadrature", "--input", two_atom_csv, "--n", "2",
                 "--basis", "monomial", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    np.testing.assert_allclose(doc["quadrature_f"]["nodes"], [-1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(doc["quadrature_f"]["weights"], [1.0, 1.0], atol=1e-9)


def test_cli_gauss_nodes(tmp_path):
    M = 20000
    x = -1 + (np.arange(M) + 0.5) * 2 / M
    path = tmp_path / "dense.csv"
    write_samples_csv(str(path), SampleSet(x=x, w=np.full(M, 2 / M), f=x))
    out = tmp_path / "out.json"
    assert main(["quadrature", "--input", str(path), "--n", "2",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    np.testing.assert_allclose(doc["quadrature_f"]["nodes"],
                               [-0.57735, 0.57735], atol=1e-4)


def test_cli_negative_weight_exit_2(tmp_path, capsys):
    path = tmp_path / "neg.csv"
    path.write_text("x,w,f\n0,1,1\n1,-2,3\n")
    assert main(["quadrature", "--input", str(path), "--n", "1"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_rho_vectors_overflow_exit_4_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rho.txt").write_text("2\n1 1\n1e200 0\n0 1\n")
    assert main(["joint", "--scenario", "smooth", "--n", "2", "--kinds", "density",
                 "--rho", "spectral:rho.txt"]) == 4
    err = capsys.readouterr().err
    assert err.splitlines() == ["rho mismatch: spectral vectors are not orthonormal"], err


def test_cli_joint_requires_g(tmp_path, capsys):
    path = tmp_path / "nog.csv"
    path.write_text("x,f\n0,1\n1,2\n0.5,3\n")
    assert main(["joint", "--input", str(path), "--n", "2"]) == 2
    assert "g column" in capsys.readouterr().err


def test_cli_conditioning_exit_3(tmp_path, capsys):
    path = tmp_path / "rank.csv"
    path.write_text("x,f,g\n0,1,1\n1,2,2\n0.5,3,3\n")
    assert main(["joint", "--input", str(path), "--n", "4"]) == 3
    assert "effective rank" in capsys.readouterr().err


def test_cli_rho_mismatch_exit_4(two_atom_csv, tmp_path, capsys):
    rho = tmp_path / "rho.txt"
    rho.write_text("3\n1 1 1\n1 0 0\n0 1 0\n0 0 1\n")
    assert main(["joint", "--input", two_atom_csv, "--n", "2",
                 "--basis", "monomial", "--rho", f"spectral:{rho}"]) == 4
    assert "order" in capsys.readouterr().err


def test_cli_density_unit_equals_value(two_atom_csv, tmp_path):
    out_v = tmp_path / "v.json"
    out_d = tmp_path / "d.json"
    base = ["joint", "--input", two_atom_csv, "--n", "2", "--basis", "monomial"]
    assert main(base + ["--kinds", "value", "--output", str(out_v)]) == 0
    assert main(base + ["--kinds", "density", "--rho", "unit",
                        "--output", str(out_d)]) == 0
    mat_v = json.loads(out_v.read_text())["joint"][0]["matrix"]
    mat_d = json.loads(out_d.read_text())["joint"][0]["matrix"]
    assert mat_v == mat_d


def test_cli_identity_rho_equals_probability(tmp_path):
    out_p = tmp_path / "p.json"
    out_d = tmp_path / "d.json"
    base = ["joint", "--scenario", "smooth", "--n", "4"]
    assert main(base + ["--kinds", "probability", "--output", str(out_p)]) == 0
    assert main(base + ["--kinds", "density", "--rho", "identity",
                        "--output", str(out_d)]) == 0
    mat_p = json.loads(out_p.read_text())["joint"][0]["matrix"]
    mat_d = json.loads(out_d.read_text())["joint"][0]["matrix"]
    assert mat_p == mat_d


def test_cli_deterministic_output(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["joint", "--scenario", "spikes", "--n", "6",
            "--kinds", "value,probability,density,pure_squared"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_csv_format(two_atom_csv, capsys):
    assert main(["joint", "--input", two_atom_csv, "--n", "2",
                 "--basis", "monomial", "--format", "csv",
                 "--kinds", "value"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "section,kind,i,j,a,b,value"
    assert any(line.startswith("joint,value,0,1,") for line in lines)


def test_cli_scenario_seed_override(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = ["quadrature", "--scenario", "smooth", "--n", "3"]
    assert main(base + ["--seed", "1", "--output", str(out1)]) == 0
    assert main(base + ["--seed", "2", "--output", str(out2)]) == 0
    assert out1.read_text() != out2.read_text()


LAWS = b"x_law = uniform_grid\nf_law = smooth\nomega_law = unit\n"


@pytest.mark.parametrize("files, args, line", [
    ({"in.csv": b"x,f,g\n0.1,1e308,1\n0.5,1.5e308,2\n0.9,1.7e308,3\n"},
     ["joint", "--input", "in.csv", "--n", "2"], None),
    ({"in.csv": b"x,f,g\n0.1,1,1\n0.5,\xff2,2\n"},
     ["joint", "--input", "in.csv", "--n", "1"], 3),
    ({"in.csv": b"# samples\nx,\xfef,g\n0.1,1,1\n"},
     ["joint", "--input", "in.csv", "--n", "1"], 2),
    ({"in.csv": b"x,f,g\n" + b"0.25,1,2\n" * 49_998 + b"0.5,\xff2,2\n"},
     ["joint", "--input", "in.csv", "--n", "1"], 50_000),
    ({"in.csv": TWO_ATOM_CSV.encode(), "rho.txt": b"2\n1 1\n1 0\n0 \xff1\n"},
     ["joint", "--input", "in.csv", "--n", "2", "--basis", "monomial",
      "--kinds", "density", "--rho", "spectral:rho.txt"], 4),
    ({"s.scenario": b"M = 10.5\nseed = 1\n" + LAWS},
     ["quadrature", "--scenario", "s.scenario", "--n", "2"], 1),
    ({"s.scenario": b"M = 10\nseed = 1.5\n" + LAWS},
     ["quadrature", "--scenario", "s.scenario", "--n", "2"], 2),
    ({"s.scenario": b"M = 10\n# \xfe\nseed = 1\n" + LAWS},
     ["quadrature", "--scenario", "s.scenario", "--n", "2"], 2),
    ({"s.scenario": b"M = 100000000000000\nseed = 1\n" + LAWS},
     ["quadrature", "--scenario", "s.scenario", "--n", "2"], None),
    ({"s.scenario": b"M = 100\nseed = 1\nx_law = clustered(lo=-5e305)\n"
                    b"f_law = smooth\ng_law = smooth\nomega_law = unit\n"},
     ["joint", "--scenario", "s.scenario", "--n", "2"], None),
    ({}, ["quadrature", "--scenario", "smooth", "--n", "2",
          "--output", "missing/out.json"], None),
    ({}, ["quadrature", "--input", "in\x00.csv", "--n", "1"], None),
    ({"in.csv": b"x,f\n0,1.7e308\n1,0\n"}, ["quadrature", "--input", "in.csv", "--n", "1"], None),
    *(({"in.csv": TWO_ATOM_CSV.encode()},
       ["quadrature", "--input", "in.csv", "--n", "1", f"--epsilon={eps}"], None)
      for eps in ("nan", "inf", "2", "-1")),
    *(({"in.csv": TWO_ATOM_CSV.encode(), "rho.txt": rho},
       ["joint", "--input", "in.csv", "--n", "2", "--basis", "monomial",
        "--kinds", "density", "--rho", "spectral:rho.txt"], line)
      for rho, line in ((b"-1\n", 1), (b"2\n1 1\n1 0\n0\n", 4), (b"# c\nabc\n", 2))),
    *(({"rho.txt": rho},
       ["joint", "--scenario", "smooth", "--n", "2", "--kinds", "density,pure_squared",
        "--rho", "spectral:rho.txt"], None)
      for rho in (b"2\nnan 1\n1 0\n0 1\n", b"2\n1e308 1e308\n1 0\n0 1\n")),
    ({"in.csv": b"x,w,f,g\n-1,1e200,1,0\n0,1e200,2,1\n1,1e200,3,0\n"},
     ["joint", "--input", "in.csv", "--n", "2", "--kinds", "pure_squared"], None),
], ids=["gram-overflow", "csv-not-utf8", "csv-header-not-utf8", "csv-not-utf8-line-50000",
        "rho-not-utf8", "scenario-M-not-int",
        "scenario-seed-not-int", "scenario-not-utf8", "scenario-huge-M",
        "scenario-law-overflow", "output-dir-missing", "input-path-nul",
        "operator-overflow", "epsilon-nan", "epsilon-inf", "epsilon-2", "epsilon-negative",
        "rho-order-negative", "rho-ragged-row", "rho-comment-then-text",
        "rho-nan", "rho-overflow", "joint-overflow"])
def test_cli_bad_input_exit_2(tmp_path, monkeypatch, capsys, files, args, line):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main(args) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err
    if line is not None:
        assert f"line {line}:" in err[0]
    assert captured.out == ""


def test_cli_unknown_kind_rejected(two_atom_csv):
    assert main(["joint", "--input", two_atom_csv, "--kinds", "bogus"]) == 2


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "all" in out


def test_selftest_fails_on_a_corrupted_result(monkeypatch, scenario_samples):
    def corrupt(result):
        quad_g = dataclasses.replace(result.quad_g, weights=result.quad_g.weights * (1 + 1e-6))
        return dataclasses.replace(result, quad_g=quad_g)

    result = corrupt(analyze(scenario_samples["smooth"], n=8))
    rows = {label: (err, tol) for label, err, tol in selftest.identity_rows(result)}
    err, tol = rows["value column sums = g-weights"]
    assert not err <= tol
    monkeypatch.setattr(selftest, "analyze",
                        lambda *args, **kwargs: corrupt(analyze(*args, **kwargs)))
    out = io.StringIO()
    assert selftest.run_selftest(out) == 1
    assert "FAIL  smooth: value column sums = g-weights" in out.getvalue()


_NOISE = st.one_of(st.binary(max_size=12),
                   st.sampled_from([b"", b"# c", b"abc", b"0.5,\"1", b"\",2", b"1,,2"]))


# values of a file: tame in half of the files, so that some runs get past
# the value checks, and any float in the other half
_VALUES = st.sampled_from([st.floats(0, 10), st.floats()])


def _numbers(count, sep, values):
    return st.lists(values, min_size=count, max_size=count).map(
        lambda v: sep.join(map(repr, v)).encode())


@st.composite
def _file(draw, lines):
    """The format's lines joined by newlines; in half of the files some are
    replaced by arbitrary bytes and noise lines are inserted."""
    if draw(st.booleans()):
        lines = [draw(_NOISE) if draw(st.integers(0, 4)) == 0 else line for line in lines]
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE))
    return b"\n".join(lines)


@st.composite
def _csv_file(draw):
    header = draw(st.sampled_from([b"x,w,f,g", b"x,f,g", b"x,f", b"X, F, G", b"x,q,f"]))
    width = header.count(b",") + 1
    rows = draw(st.lists(_numbers(width, ",", draw(_VALUES)), max_size=10))
    return draw(_file([header] + rows))


@st.composite
def _rho_file(draw):
    n = draw(st.integers(-1, 3))
    unit_rows = [" ".join("1" if j == i else "0" for j in range(n)).encode() for i in range(n)]
    values = draw(_VALUES)
    rows = [draw(st.one_of(_numbers(max(n, 0), " ", values),
                           st.sampled_from(unit_rows or [b""])))
            for _ in range(max(n, 0) + 1)]
    return draw(_file([str(n).encode()] + rows))


_LAW_PARAMS = ["lo", "hi", "centers", "width", "rate", "magnitude", "nu", "scale",
               "freq", "curvature", "a", "b"]


def _law_line(key, laws):
    return st.builds(
        lambda law, params: f"{key} = {law}({params})".encode(),
        st.sampled_from(laws),
        st.lists(st.builds("{}={!r}".format, st.sampled_from(_LAW_PARAMS), st.floats()),
                 max_size=2).map(", ".join))


@st.composite
def _scenario_file(draw):
    lines = [
        # generation materializes all M samples, so M stays small here
        draw(st.one_of(st.integers(1, 100), st.integers(-3, 10_000)).map(
            lambda m: f"M = {m}".encode())),
        draw(st.integers(-3, 2**70).map(lambda s: f"seed = {s}".encode())),
        draw(_law_line("x_law", datagen.X_LAWS)),
        draw(_law_line("f_law", datagen.VALUE_LAWS)),
        draw(_law_line("g_law", datagen.VALUE_LAWS)),
        draw(_law_line("omega_law", datagen.OMEGA_LAWS)),
    ]
    return draw(_file(draw(st.permutations(lines))))


def _finite(text):
    value = float(text)
    assert math.isfinite(value), text
    return value


def _not_a_number(name):
    raise AssertionError(f"{name} in the output")


@settings(max_examples=80, deadline=None)
@given(csv=_csv_file(), rho=_rho_file(), scenario=_scenario_file(),
       command=st.sampled_from(["quadrature", "joint"]),
       source=st.sampled_from(["--input", "--scenario"]),
       rho_source=st.sampled_from(["unit", "identity", "spectral"]),
       # orders above max_order() are rejected before anything n x n exists
       n=st.one_of(st.integers(-2, 5), st.integers(max_order() + 1, 2 * max_order())),
       epsilon=st.sampled_from(["1e-12", "0", "-1", "nan", "inf", "1"]))
def test_cli_exit_code_contract(csv, rho, scenario, command, source, rho_source, n, epsilon):
    """Whatever the input files and flags, the CLI returns 0, 2, 3 or 4 and
    raises nothing; on 0 its output is JSON whose numbers are all finite."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in (("in.csv", csv), ("rho.txt", rho), ("s.scenario", scenario)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(data)
        args = [command, source, paths["in.csv" if source == "--input" else "s.scenario"],
                f"--n={n}", f"--epsilon={epsilon}", "--output", os.path.join(tmp, "out")]
        if command == "joint":
            rho_arg = f"spectral:{paths['rho.txt']}" if rho_source == "spectral" else rho_source
            args += ["--kinds", ",".join(KINDS), "--rho", rho_arg]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        assert code in (0, 2, 3, 4)
        if code == 0:
            with open(os.path.join(tmp, "out"), encoding="utf-8") as fh:
                json.loads(fh.read(), parse_float=_finite, parse_constant=_not_a_number)
