"""File formats: CSV sample input, JSON/CSV result output, spectral rho files.

All floating-point output is printed with 17 significant digits so that
emitted files round-trip bit-exactly.
"""
from __future__ import annotations

import io as _io
from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

import numpy as np

from .errors import InputDataError
from .moments import SampleSet

FLOAT_FMT = "%.17g"


def _fmt(value: float) -> str:
    return FLOAT_FMT % float(value)


def read_text(path: str) -> str:
    """Whole file as UTF-8 text.

    An unreadable file, or one with bytes that are not UTF-8, raises
    InputDataError; the latter names the line of the first bad byte.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputDataError(f"cannot read {path!r}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputDataError(
            f"{path} is not UTF-8 text (byte {data[exc.start]:#04x})",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(file line number, stripped line) for each line of ``text`` that is
    neither blank nor a '#' comment; numbering counts every line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _table(lines: Iterable[tuple[int, str]], columns: Sequence, sep: str | None) -> np.ndarray:
    """One row of numbers per numbered line, as a (rows, len(columns)) array;
    a wrong field count or a non-numeric field names its line and column."""
    values = array("d")
    for lineno, line in lines:
        fields = line.split(sep)
        if len(fields) != len(columns):
            raise InputDataError(
                f"expected {len(columns)} fields, got {len(fields)}", line=lineno
            )
        try:
            values.extend(map(float, fields))
        except ValueError:
            for column, field in zip(columns, fields):
                try:
                    float(field)
                except ValueError:
                    raise InputDataError(
                        f"non-numeric value {field!r} in column {column!r}", line=lineno
                    ) from None
    return np.frombuffer(values).reshape(-1, len(columns))


def read_samples_csv(path: str) -> SampleSet:
    """Read samples from CSV with header x,w,f,g (w and g optional).

    One record per line, plain comma-separated decimals (no quoting); blank
    and '#' lines are skipped. Any malformed, non-finite or negative-weight
    record rejects the whole file with its line number.
    """
    text = read_text(path)
    lines = content_lines(text)
    lineno, line = next(lines, (None, ""))
    header = [h.strip().lower() for h in line.split(",")]
    if "x" not in header or "f" not in header:
        raise InputDataError("header must contain at least 'x' and 'f'", line=lineno)
    unknown = set(header) - {"x", "w", "f", "g"}
    if unknown:
        raise InputDataError(f"unknown columns {sorted(unknown)}", line=lineno)
    data = _table(lines, header, ",").T.copy()  # one contiguous row per column
    if not data.size:
        raise InputDataError(f"{path} contains no data rows")

    cols = dict(zip(header, data))
    finite = np.isfinite(data)
    bad = ~finite.all(axis=0) | (cols.get("w", 0.0) < 0)
    if bad.any():
        # the first offending record, checked in the order a row scan would
        row = int(bad.argmax())
        lineno = next(islice(content_lines(text), row + 1, None))[0]
        if not finite[:, row].all():
            name = header[int(finite[:, row].argmin())]
            raise InputDataError(f"non-finite value in column '{name}'", line=lineno)
        raise InputDataError(f"negative weight {cols['w'][row]}", line=lineno)
    return SampleSet(x=cols["x"], w=cols.get("w", np.ones(data.shape[1])),
                     f=cols["f"], g=cols.get("g"))


def write_samples_csv(path: str, samples: SampleSet) -> None:
    names = ["x", "w", "f"] + (["g"] if samples.has_g else [])
    np.savetxt(path, np.column_stack([getattr(samples, c) for c in names]),
               fmt=FLOAT_FMT, delimiter=",", header=",".join(names), comments="")


def read_spectral_rho(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Spectral rho file: first line n, then the eigenvalues, then one line
    of coefficients (in the f-eigenbasis) per eigenvector."""
    lines = list(content_lines(read_text(path)))
    lineno, first = lines[0] if lines else (None, "")
    try:
        n = int(first)
    except ValueError:
        raise InputDataError(f"expected the order n, got {first!r}", line=lineno) from None
    if n < 1:
        raise InputDataError(f"order n must be >= 1, got {n}", line=lineno)
    if len(lines) != n + 2:
        raise InputDataError(f"expected {n + 2} content lines, got {len(lines)}")
    table = _table(lines[1:], range(1, n + 1), None)
    # one vector per line after the eigenvalues; columns of the returned matrix are the vectors
    return table[0], table[1:].T


def _jsonify(obj) -> str:
    """Minimal JSON writer with fixed 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = ", ".join(f"{_jsonify(str(k))}: {_jsonify(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jsonify(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return _fmt(obj)


def quadrature_payload(quad) -> dict:
    return {
        "nodes": quad.nodes,
        "weights": quad.weights,
        "amplitudes": quad.amplitudes,
        "alpha": quad.eigensolution.alpha,
    }


def joint_payload(matrix) -> dict:
    return {
        "kind": matrix.kind,
        "normalization": matrix.normalization,
        "matrix": matrix.W,
        "row_nodes": matrix.row_nodes,
        "col_nodes": matrix.col_nodes,
    }


def result_document(result, epsilon: float, joint_matrices=()) -> dict:
    grams = result.grams
    residuals = {
        "weight_sum": abs(result.quad_f.weights.sum() - grams.total_measure)
        / grams.total_measure,
    }
    for mat in joint_matrices:
        residuals[f"joint_{mat.kind}"] = mat.residual
    doc = {
        "meta": {
            "n": grams.n,
            "basis": result.basis.family.value,
            "domain": [result.basis.domain.x_min, result.basis.domain.x_max],
            "total_measure": grams.total_measure,
            "epsilon": epsilon,
            "residuals": residuals,
        },
        "quadrature_f": quadrature_payload(result.quad_f),
    }
    if result.quad_g is not None:
        doc["quadrature_g"] = quadrature_payload(result.quad_g)
    if joint_matrices:
        doc["joint"] = [joint_payload(m) for m in joint_matrices]
    return doc


def dumps_json(doc: dict) -> str:
    return _jsonify(doc) + "\n"


def dumps_csv(result, joint_matrices=()) -> str:
    """Long-form CSV: quadrature rows then joint matrix entries."""
    out = _io.StringIO()
    out.write("section,kind,i,j,a,b,value\n")
    for name, quad in (("f", result.quad_f), ("g", result.quad_g)):
        if quad is None:
            continue
        for i in range(quad.n):
            out.write(
                f"quadrature,{name},{i},,{_fmt(quad.nodes[i])},"
                f"{_fmt(quad.weights[i])},{_fmt(quad.amplitudes[i])}\n"
            )
    for mat in joint_matrices:
        for i in range(mat.W.shape[0]):
            for j in range(mat.W.shape[1]):
                out.write(
                    f"joint,{mat.kind},{i},{j},{_fmt(mat.row_nodes[i])},"
                    f"{_fmt(mat.col_nodes[j])},{_fmt(mat.W[i, j])}\n"
                )
    return out.getvalue()
