import dataclasses
import io
import json

import numpy as np
import pytest

from lebquad import InputDataError, SampleSet, analyze, selftest
from lebquad.cli import main
from lebquad.io import (
    dumps_json,
    read_samples_csv,
    read_spectral_rho,
    result_document,
    write_samples_csv,
)

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


def test_csv_write_read_roundtrip(tmp_path, scenario_samples):
    samples = scenario_samples["smooth"]
    path = tmp_path / "rt.csv"
    write_samples_csv(str(path), samples)
    back = read_samples_csv(str(path))
    np.testing.assert_array_equal(back.x, samples.x)
    np.testing.assert_array_equal(back.f, samples.f)
    np.testing.assert_array_equal(back.g, samples.g)


def test_spectral_rho_file(tmp_path):
    path = tmp_path / "rho.txt"
    path.write_text("2\n1.5 0.5\n1 0\n0 1\n")
    lam, vectors = read_spectral_rho(str(path))
    np.testing.assert_array_equal(lam, [1.5, 0.5])
    np.testing.assert_array_equal(vectors, np.eye(2))
    path.write_text("2\n1.5 0.5\n1 0\n")
    with pytest.raises(InputDataError):
        read_spectral_rho(str(path))


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
    ({"in.csv": TWO_ATOM_CSV.encode(), "rho.txt": b"2\n1 1\n1 0\n0 \xff1\n"},
     ["joint", "--input", "in.csv", "--n", "2", "--basis", "monomial",
      "--kinds", "density", "--rho", "spectral:rho.txt"], 4),
    ({"s.scenario": b"M = 10.5\nseed = 1\n" + LAWS},
     ["quadrature", "--scenario", "s.scenario", "--n", "2"], 1),
    ({"s.scenario": b"M = 10\nseed = 1.5\n" + LAWS},
     ["quadrature", "--scenario", "s.scenario", "--n", "2"], 2),
    ({"s.scenario": b"M = 10\n# \xfe\nseed = 1\n" + LAWS},
     ["quadrature", "--scenario", "s.scenario", "--n", "2"], 2),
    ({}, ["quadrature", "--scenario", "smooth", "--n", "2",
          "--output", "missing/out.json"], None),
], ids=["gram-overflow", "csv-not-utf8", "rho-not-utf8", "scenario-M-not-int",
        "scenario-seed-not-int", "scenario-not-utf8", "output-dir-missing"])
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
