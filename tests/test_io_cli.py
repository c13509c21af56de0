import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legvander

from lebquad import Family, InputDataError, SampleSet, analyze, datagen, selftest
from lebquad.cli import main
from lebquad.io import (
    dumps_json,
    quadrature_payload,
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
    assert s.w.strides == (0,) and not s.w.flags.writeable  # one value, not a column
    assert not s.has_g


def test_cli_csv_without_w_equals_explicit_unit_weights(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.0, 1.0, 5000)
    rows = zip(x.tolist(), np.sin(3 * x).tolist(), np.cos(x).tolist())
    without, with_w = tmp_path / "xfg.csv", tmp_path / "xwfg.csv"
    without.write_text("x,f,g\n" + "".join("%r,%r,%r\n" % row for row in rows))
    write_samples_csv(str(with_w), read_samples_csv(str(without)))  # w = 1 written out
    outputs = []
    for path in (without, with_w):
        out = tmp_path / (path.stem + ".json")
        assert main(["joint", "--input", str(path), "--n", "8", "--kinds", ",".join(KINDS),
                     "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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
    # a repeated name is not read last-wins
    path.write_text("# c\nx,w,f,g,w\n0,1,2,3,5\n1,1,2,3,5\n")
    with pytest.raises(InputDataError) as exc:
        read_samples_csv(str(path))
    assert str(exc.value) == "line 2: repeated columns ['w']"
    path.write_text("x,f,f\n0,1,2\n")
    with pytest.raises(InputDataError) as exc:
        read_samples_csv(str(path))
    assert str(exc.value) == "line 1: repeated columns ['f']"
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


@pytest.mark.parametrize("M, with_g", [(10_000, True), (4097, False), (1, True)])
def test_write_samples_csv_bytes_equal_savetxt(tmp_path, M, with_g):
    rng = np.random.default_rng(M)
    x = rng.standard_normal(M)
    samples = SampleSet(x=x, w=rng.uniform(0.0, 2.0, M), f=np.sin(x) * 1e-300,
                        g=np.cos(x) * 1e300 if with_g else None)
    names = ["x", "w", "f"] + (["g"] if with_g else [])
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write_samples_csv(str(ours), samples)
    np.savetxt(str(theirs), np.column_stack([getattr(samples, c) for c in names]),
               fmt="%.17g", delimiter=",", header=",".join(names), comments="")
    assert ours.read_bytes() == theirs.read_bytes()


def _write_sample_csv(path, M: int) -> int:
    """Writes M rows x,w,f,g to path; returns the bytes of their parsed table."""
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, M)
    write_samples_csv(str(path), SampleSet(x=x, w=rng.uniform(0.5, 1.5, M), f=np.sin(x),
                                           g=np.cos(x)))
    return M * 4 * 8


def _traced_peak(call):
    """(result, tracemalloc peak in bytes) of call()."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_csv_peak_memory_is_near_its_arrays(tmp_path):
    path = tmp_path / "big.csv"
    _write_sample_csv(path, 100_000)
    samples, peak = _traced_peak(lambda: read_samples_csv(str(path)))
    arrays = sum(a.nbytes for a in (samples.x, samples.w, samples.f, samples.g))
    assert peak < 2.5 * arrays


def test_read_csv_holds_the_samples_once(tmp_path):
    # the columns are interleaved views of the parsed table, so their bounds
    # overlap though no element does; a copy of them would peak at twice the table
    path = tmp_path / "s.csv"
    table = _write_sample_csv(path, 20_000)
    samples, peak = _traced_peak(lambda: read_samples_csv(str(path)))
    assert peak < 1.5 * table
    assert np.may_share_memory(samples.x, samples.f)


def test_cli_joint_peak_is_one_table_plus_a_bounded_working_set(tmp_path):
    # measured: table + 1.3 MiB with the samples held once and 1 MiB moment
    # chunks, table + 2.2 MiB with a second copy of the samples
    path = tmp_path / "s.csv"
    table = _write_sample_csv(path, 50_000)
    code, peak = _traced_peak(lambda: main([
        "joint", "--input", str(path), "--n", "8", "--kinds", ",".join(KINDS),
        "--rho", "unit", "--format", "json", "--output", str(tmp_path / "out.json")]))
    assert code == 0
    assert peak < table + 1.75 * 2**20


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


def _dyadic(values):
    """(integers, e) with values[i] = integers[i] / 2^e exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    e = max(d.bit_length() - 1 for _, d in ratios)
    return [p << (e - d.bit_length() + 1) for p, d in ratios], e


def _monomial_values_exactly(alpha, t):
    """psi[l, i] = sum_k alpha[k, i] t_l^k, summed exactly by Horner's rule
    over the integers (every double is a dyadic rational), rounded once."""
    n = alpha.shape[0]
    T, s = _dyadic(t.tolist())
    psi = np.empty((len(T), alpha.shape[1]))
    for i, column in enumerate(alpha.T.tolist()):
        A, e = _dyadic(column)
        for l, tl in enumerate(T):
            acc = A[-1]
            for k in range(n - 2, -1, -1):
                acc = acc * tl + (A[k] << s * (n - 1 - k))
            psi[l, i] = acc / (1 << e + s * (n - 1))
    return psi


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("family", ["legendre", "monomial"])
def test_json_alpha_is_orthonormal_over_its_family(family, n):
    # JSON alpha is over Q_k of --basis: alpha_Q^T G_Q alpha_Q = I and
    # alpha_Qf^T G_Q alpha_Qg = S, G_Q the family's Gram as direct sums. For
    # monomials the sums are formed exactly over the eigenfunctions' values:
    # their alpha grows like cond(C), 6e9 at n = 32, and G_Q in doubles would
    # lose every digit. Doubles carry alpha_Q, and so psi, only to about
    # eps sum_k |alpha_Q[k]| (|Q_k| <= 1), which at n = 32 is above 1e-8.
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.0, 3.0, 300)
    samples = SampleSet(x=x, w=rng.uniform(0.1, 1.0, 300), f=np.sin(3 * x), g=np.cos(2 * x))
    result = analyze(samples, n=n, family=family)
    doc = json.loads(dumps_json(result_document(result, 1e-12)))
    assert doc["meta"]["basis"] == family
    alpha_f, alpha_g = (np.array(doc[f"quadrature_{p}"]["alpha"]) for p in "fg")
    if family == "monomial":
        t = result.basis.domain(samples.x)
        psi_f, psi_g = (_monomial_values_exactly(a, t) * np.sqrt(samples.w)[:, None]
                        for a in (alpha_f, alpha_g))
        forms = (psi_f.T @ psi_f, psi_g.T @ psi_g, psi_f.T @ psi_g)
    else:
        Q = legvander(result.basis.domain(samples.x), n - 1)
        G = (Q.T * samples.w) @ Q
        forms = (alpha_f.T @ G @ alpha_f, alpha_g.T @ G @ alpha_g, alpha_f.T @ G @ alpha_g)
    kappa = max(np.abs(alpha_f).sum(axis=0).max(), np.abs(alpha_g).sum(axis=0).max())
    # sum_l w_l |psi_l| <= sqrt(<1>) for a psi of unit norm
    tol = 1e-8 + 2 * np.finfo(float).eps * kappa * math.sqrt(samples.w.sum())
    for form, want in zip(forms, (np.eye(n), np.eye(n), result.projection())):
        assert np.abs(form - want).max() <= tol


def test_cli_basis_changes_only_json_alpha(tmp_path):
    # every solve is over the Chebyshev T_k: --basis selects only the family
    # that JSON alpha is written over
    outputs = {}
    for family in Family:
        for fmt in ("json", "csv"):
            out = tmp_path / f"{family.value}.{fmt}"
            assert main(["joint", "--scenario", "spikes", "--n", "16", "--basis", family.value,
                         "--kinds", ",".join(KINDS), "--format", fmt,
                         "--output", str(out)]) == 0
            outputs[family, fmt] = out.read_bytes()
    assert len({outputs[family, "csv"] for family in Family}) == 1
    docs = {}
    for family in Family:
        doc = json.loads(outputs[family, "json"])
        assert doc["meta"].pop("basis") == family.value
        alphas = [doc[f"quadrature_{p}"].pop("alpha") for p in "fg"]
        docs[family] = doc, alphas
    doc, alphas = docs.pop(Family.CHEBYSHEV)
    for other, other_alphas in docs.values():
        assert other == doc and other_alphas != alphas


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("name", datagen.builtin_scenario_names())
def test_cli_monomial_at_high_order_exit_0(scenario_samples, tmp_path, name, n):
    # the rank test reads the Chebyshev G whatever the family, so monomials
    # solve wherever Chebyshev does; JSON alpha over t^k stays finite here
    out = tmp_path / "out.json"
    assert main(["joint", "--scenario", name, "--n", str(n), "--basis", "monomial",
                 "--kinds", ",".join(KINDS), "--output", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=_not_a_number)
    result = analyze(scenario_samples[name], n=n, family="monomial")
    np.testing.assert_array_equal(doc["quadrature_f"]["nodes"], result.quad_f.nodes)
    np.testing.assert_array_equal(doc["joint"][0]["matrix"], result.correlation(KINDS[0]).W)
    failed = [(label, err) for label, err, tol in selftest.identity_rows(result)
              if not err <= tol]
    assert not failed


@pytest.mark.parametrize("command", ["quadrature", "joint"])
def test_cli_monomial_alpha_past_float_max_exit_2(tmp_path, capsys, command):
    # 700 Chebyshev points: the Chebyshev G of order 350 has condition 2, but
    # alpha over t^k grows about 4x a degree here (8e283 at n = 300), and
    # weights of 1e-300 make alpha_T about 1e150: at n = 350 it passes the
    # float maximum
    n, M = 350, 700
    x = np.cos(np.pi * (np.arange(M) + 0.5) / M)
    path, out = tmp_path / "in.csv", tmp_path / "out"
    write_samples_csv(str(path), SampleSet(x=x, w=np.full(M, 1e-300), f=np.sin(3 * x), g=x))
    out.write_text("kept\n")
    args = [command, "--input", str(path), "--n", str(n), "--basis", "monomial",
            "--output", str(out)] + (["--kinds", "value"] if command == "joint" else [])
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: alpha past the float maximum in the monomial basis"]
    assert out.read_text() == "kept\n"
    assert main(args + ["--format", "csv"]) == 0
    for line in out.read_text().splitlines()[1:]:
        for value in line.split(",")[4:]:
            _finite(value)


@pytest.mark.parametrize("n", [1076, 1077])
def test_monomial_alpha_where_c_is_singular_is_an_input_error(n):
    # the monomial C[k, k] = 2^(1-k) is 0 from k = 1076 on, where C^T has no
    # solve: alpha over t^k is past the float maximum, not a LinAlgError
    quad = types.SimpleNamespace(nodes=np.zeros(n), weights=np.ones(n), amplitudes=np.ones(n),
                                 eigensolution=types.SimpleNamespace(alpha=np.eye(n)))
    with pytest.raises(InputDataError) as exc:
        quadrature_payload(quad, Family.MONOMIAL)
    assert str(exc.value) == "alpha past the float maximum in the monomial basis"


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

# the 8 Chebyshev-Lobatto points with their discrete-orthogonality weights:
# lambda_max(G) = sum w = 1.4e308 in the Chebyshev basis, and <T_7 T_7> = 1.4e308
# too; the nodes are the 8 values of f
LOBATTO_NEAR_FLOAT_MAX = b"x,w,f\n" + b"".join(
    b"%r,%s,%r\n" % (math.cos(math.pi * k / 7), b"1e307" if k in (0, 7) else b"2e307",
                     0.01 * (k + 1)) for k in range(8))


@pytest.mark.parametrize("files, args, line", [
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
    *(({"s.scenario": b"M = 100\nseed = 1\nx_law = %s\nf_law = %s\nomega_law = %s\n" % laws},
       ["quadrature", "--scenario", "s.scenario", "--n", "2"], None)
      for laws in ((b"uniform_grid", b"spikes(rat=0.9, magnitud=5)", b"unit"),
                   (b"uniform_grid", b"smooth", b"unit(bogus=1)"),
                   (b"clustered(centers=2.9)", b"smooth", b"unit"))),
    ({"s.scenario": b"M = 100\nseed = 1\nx_law = clustered(lo=-5e305)\n"
                    b"f_law = smooth\ng_law = smooth\nomega_law = unit\n"},
     ["joint", "--scenario", "s.scenario", "--n", "2"], None),
    # the same overflows in each of several generator chunks
    *(({"s.scenario": b"M = %d\nseed = 1\nx_law = %s\nf_law = %s\ng_law = smooth\n"
                      b"omega_law = unit\n" % (3 * datagen._DRAW_CHUNK + 5, x_law, f_law)},
       ["joint", "--scenario", "s.scenario", "--n", "2"], None)
      for x_law, f_law in ((b"clustered(lo=-5e305)", b"smooth"),
                           (b"uniform_random", b"spikes(rate=0.5, magnitude=1e308)"))),
    ({}, ["quadrature", "--scenario", "smooth", "--n", "2",
          "--output", "missing/out.json"], None),
    ({}, ["quadrature", "--input", "in\x00.csv", "--n", "1"], None),
    ({}, ["quadrature", "--scenario", "smooth", "--n", "2", "--output", "out\x00.json"], None),
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
    ({"in.csv": b"x,w,f\n" + b"".join(b"%r,0.001,%r\n" % (x, np.finfo(float).max)
                                      for x in np.linspace(-1.0, 1.0, 10).tolist())},
     ["quadrature", "--input", "in.csv", "--n", "3"], None),
    # the total measure 2e308 is past the float maximum, though w and G are not
    *(({"in.csv": b"x,w,f,g\n0,1e308,1,1\n1,1e308,2,0\n"},
       [command, "--input", "in.csv", "--n", n, "--format", fmt, "--output", "out"], None)
      for command, n, fmt in (("quadrature", "1", "json"), ("quadrature", "1", "csv"),
                              ("joint", "1", "json"), ("quadrature", "2", "json"))),
    ({"in.csv": TWO_ATOM_CSV.encode()},
     ["joint", "--input", "in.csv", "--n", "2", "--seed", "5"], None),
    *(pytest.param({}, ["joint", "--scenario", "smooth", "--n", "8", "--format", fmt,
                        "--output", "/dev/full"], None,
                   marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                            reason="no /dev/full device"))
      for fmt in ("json", "csv")),
], ids=["csv-not-utf8", "csv-header-not-utf8", "csv-not-utf8-line-50000",
        "rho-not-utf8", "scenario-M-not-int",
        "scenario-seed-not-int", "scenario-not-utf8", "scenario-huge-M",
        "scenario-unknown-law-parameter", "scenario-omega-law-parameter",
        "scenario-centers-not-whole",
        "scenario-law-overflow", "scenario-x-overflow-chunks", "scenario-spikes-overflow-chunks",
        "output-dir-missing", "input-path-nul", "output-path-nul",
        "epsilon-nan", "epsilon-inf", "epsilon-2", "epsilon-negative",
        "rho-order-negative", "rho-ragged-row", "rho-comment-then-text",
        "rho-nan", "rho-overflow", "joint-overflow", "nodes-past-float-max",
        "weights-past-float-max-json", "weights-past-float-max-csv",
        "weights-past-float-max-joint", "weight-sum-past-float-max", "seed-with-input",
        "output-full-device-json", "output-full-device-csv"])
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


def _grid_csv(w, f, g=None, size=50):
    """CSV text of ``size`` grid x on [-1, 1], weight w, and f and g, each a
    function of the list of x."""
    x = np.linspace(-1.0, 1.0, size).tolist()
    columns = [x, [w] * size, f(x)] + ([g(x)] if g else [])
    header = b"x,w,f" + (b",g" if g else b"")
    return header + b"\n" + b"".join(
        b",".join(b"%r" % v for v in record) + b"\n" for record in zip(*columns))


def _cos3(scale):
    return lambda x: [scale * math.cos(3 * v) for v in x]


def _sin(x):
    return [math.sin(v) for v in x]


# the same file with its weights scaled by 2^-1020, to about 0.9 and 1.8
LOBATTO_UNIT = LOBATTO_NEAR_FLOAT_MAX.replace(
    b"1e307", b"%r" % math.ldexp(1e307, -1020)).replace(b"2e307", b"%r" % math.ldexp(2e307, -1020))


@pytest.mark.parametrize("csv, twin, args, scales", [
    # f near the float maximum: the nodes are 1e308 times those of f in [1, 1.7]
    (b"x,f,g\n0.1,1e308,1\n0.5,1.5e308,2\n0.9,1.7e308,3\n",
     b"x,f,g\n0.1,1,1\n0.5,1.5,2\n0.9,1.7,3\n", ["joint", "--n", "2"], (1e308, 1.0)),
    # every product w f is below the float minimum
    (_grid_csv(1e-300, _cos3(1e-300)), _grid_csv(1.0, _cos3(1.0)),
     ["quadrature", "--n", "8"], (1e-300,)),
    (_grid_csv(1e-300, _cos3(1e-20)), _grid_csv(1.0, _cos3(1.0)),
     ["quadrature", "--n", "8"], (1e-20,)),
    (_grid_csv(1e300, _cos3(1e10)), _grid_csv(1.0, _cos3(1.0)),
     ["quadrature", "--n", "8"], (1e10,)),
    # the smallest subnormal weight: scaled by 2^1074, it is 1
    *((_grid_csv(5e-324, _cos3(1.0), _sin), _grid_csv(1.0, _cos3(1.0), _sin),
       ["quadrature", "--n", n], (1.0, 1.0)) for n in ("8", "2", "16")),
    # every monomial Gram entry is finite, and so is lambda_max(G) once scaled
    (LOBATTO_NEAR_FLOAT_MAX, LOBATTO_UNIT, ["quadrature", "--n", "8", "--basis", "monomial"],
     (1.0,)),
    # 2 x and x_max - x_min are past the float maximum unless x is scaled first
    (b"x,f\n-1e308,1\n0,2\n1e308,3\n", b"x,f\n-1,1\n0,2\n1,3\n", ["quadrature", "--n", "3"],
     (1.0,)),
], ids=["gram-overflow", "operator-underflow", "tiny-w-small-f", "huge-w-large-f",
        "nodes-outside-range", "nodes-outside-range-order-2", "gram-subnormal-rank-deficient",
        "gram-spectrum-past-float-max", "x-near-float-max"])
def test_cli_extreme_scales_solve_as_their_twin(tmp_path, csv, twin, args, scales):
    # Inputs whose Gram sums would overflow or underflow unscaled: each
    # column is scaled by a power of two first, so that the nodes are those
    # of a twin at normal scale, times each process's scale.
    nodes = []
    for i, text in enumerate((csv, twin)):
        path, out = tmp_path / f"in{i}.csv", tmp_path / f"out{i}.json"
        path.write_bytes(text)
        assert main([*args, "--input", str(path), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        nodes.append([np.array(doc[key]["nodes"]) for key in ("quadrature_f", "quadrature_g")
                      if key in doc])
    assert len(nodes[0]) == len(nodes[1]) == len(scales)
    for got, want, scale in zip(*nodes, scales):
        want = scale * want
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (got, want)


@pytest.mark.parametrize("csv, args, nodes", [
    (b"x,w,f,g\n-1,4e307,0.01,0\n0,4e307,0.02,0.01\n1,4e307,0.03,0\n", ["joint", "--n", "2"],
     0.02 + 0.01 * math.sqrt(2 / 3) * np.array([-1.0, 1.0])),
    (b"x,f\n0,1.7e308\n1,0\n", ["quadrature", "--n", "1"], [8.5e307]),
    # g at the float maximum, scaled by 2^-1024 before its sums: no overflow warning
    (b"x,f,g\n0.0,0.0,1.7976931348623127e+308\n", ["quadrature", "--n", "1"], [0.0]),
    # the moments route at n = 8 (two multipliers) must not form 2 <T_7 T_7>
    # or m_14 + m_0 = 2.8e308, and C H C^T must not pass max |H|
    *((LOBATTO_NEAR_FLOAT_MAX, ["quadrature", "--n", "8", "--basis", basis],
       0.01 * np.arange(1, 9)) for basis in ("chebyshev", "legendre")),
], ids=["gram-near-float-max", "operator-overflow", "process-at-float-max",
        "chebyshev-moments-near-float-max", "chebyshev-moments-near-float-max-legendre"])
def test_cli_finite_grams_near_float_max_solve(tmp_path, csv, args, nodes):
    # symmetrizing such a Gram as 0.5 (G + G^T) would overflow to inf
    path, out = tmp_path / "in.csv", tmp_path / "out.json"
    path.write_bytes(csv)
    assert main([*args, "--input", str(path), "--output", str(out)]) == 0
    np.testing.assert_allclose(json.loads(out.read_text())["quadrature_f"]["nodes"], nodes,
                               rtol=1e-12)


def test_cli_operator_near_float_max_scales_exactly(tmp_path):
    # unscaled, Y^T A overflows on this file although its nodes are finite;
    # the nodes are 2^1019 times those of the same file with f = 1
    path, out = tmp_path / "in.csv", tmp_path / "out.json"
    nodes = []
    for f in (1.0, 2.0**1019):
        path.write_text("x,w,f\n-1,100,0\n-0.999,0.01,%r\n1,1,0\n" % f)
        assert main(["quadrature", "--n", "3", "--input", str(path), "--output", str(out)]) == 0
        nodes.append(np.array(json.loads(out.read_text())["quadrature_f"]["nodes"]))
    np.testing.assert_allclose(nodes[1], 2.0**1019 * nodes[0], rtol=0, atol=1e-15 * 2.0**1019)


def test_cli_zero_f_has_zero_nodes(tmp_path):
    # an all-zero operator of a zero process is exact, not an underflow
    x = np.linspace(-1.0, 1.0, 50)
    path, out = tmp_path / "in.csv", tmp_path / "out.json"
    write_samples_csv(str(path), SampleSet(x=x, w=np.full(50, 1e-300), f=np.zeros(50)))
    assert main(["quadrature", "--input", str(path), "--n", "8", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["quadrature_f"]["nodes"] == [0.0] * 8


@pytest.mark.parametrize("f, g, constant", [
    (lambda x: np.where(x > 0.1, 2.0, -1.0), lambda x: np.full(x.size, 3.0), "g"),
    (lambda x: np.full(x.size, -5.0), lambda x: x, "f"),
], ids=["two-valued-f-constant-g", "constant-f"])
def test_cli_constant_process_at_high_condition_exit_0(tmp_path, f, g, constant):
    # a Gaussian weight exp(-24 x^2) on a grid gives the Chebyshev G of order
    # 16, which every family solves in, cond(G) near 5e10, and every node of a
    # constant process sits on the edge of its range; rounding moves them past
    # it by about 4e-6 of the constant, which is no loss of precision
    x = np.linspace(-1.0, 1.0, 2000)
    path, out = tmp_path / "in.csv", tmp_path / "out.json"
    samples = SampleSet(x=x, w=np.exp(-24 * x * x), f=f(x), g=g(x))
    assert analyze(samples, n=16).quad_f.eigensolution.gram_condition > 1e10
    write_samples_csv(str(path), samples)
    assert main(["quadrature", "--input", str(path), "--n", "16", "--basis", "monomial",
                 "--output", str(out)]) == 0
    nodes = np.array(json.loads(out.read_text())[f"quadrature_{constant}"]["nodes"])
    value = {"f": -5.0, "g": 3.0}[constant]
    np.testing.assert_allclose(nodes, value, rtol=1e-4)


def test_cli_broken_stdout_exit_2_names_standard_output(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["joint", "--scenario", "smooth", "--n", "8"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot write standard output: [Errno 32] Broken pipe"]


def test_cli_unknown_kind_rejected(two_atom_csv):
    assert main(["joint", "--input", two_atom_csv, "--kinds", "bogus"]) == 2


def test_cli_repeated_kind_rejected(capsys):
    # each kind is one matrix and one meta residual; a repeat would give the
    # joint array an entry without its residual
    assert main(["joint", "--scenario", "smooth", "--n", "2", "--kinds", "value,value"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: correlation kind 'value' listed more than once"]


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
       epsilon=st.sampled_from(["1e-12", "0", "-1", "nan", "inf", "1"]),
       basis=st.sampled_from(["chebyshev", "legendre", "monomial"]),
       fmt=st.sampled_from(["json", "csv"]))
def test_cli_exit_code_contract(csv, rho, scenario, command, source, rho_source, n, epsilon,
                                basis, fmt):
    """Whatever the input files and flags, the CLI returns 0, 2, 3 or 4 and
    raises nothing; on 0 its output is JSON or CSV whose numbers are all finite."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in (("in.csv", csv), ("rho.txt", rho), ("s.scenario", scenario)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(data)
        args = [command, source, paths["in.csv" if source == "--input" else "s.scenario"],
                f"--n={n}", f"--epsilon={epsilon}", f"--basis={basis}", f"--format={fmt}",
                "--output", os.path.join(tmp, "out")]
        if command == "joint":
            rho_arg = f"spectral:{paths['rho.txt']}" if rho_source == "spectral" else rho_source
            args += ["--kinds", ",".join(KINDS), "--rho", rho_arg]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        assert code in (0, 2, 3, 4)
        if code == 0:
            with open(os.path.join(tmp, "out"), encoding="utf-8") as fh:
                text = fh.read()
            if fmt == "json":
                json.loads(text, parse_float=_finite, parse_constant=_not_a_number)
            else:
                lines = text.splitlines()
                assert lines[0] == "section,kind,i,j,a,b,value"
                for line in lines[1:]:
                    for value in line.split(",")[4:]:
                        _finite(value)
