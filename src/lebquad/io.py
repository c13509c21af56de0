"""File formats: CSV sample input, JSON/CSV result output, spectral rho files.

All floating-point output is printed with 17 significant digits so that
emitted files round-trip bit-exactly.
"""
from __future__ import annotations

import csv
import io as _io

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
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputDataError(
            f"{path} is not UTF-8 text (byte {data[exc.start]:#04x})",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None


def read_samples_csv(path: str) -> SampleSet:
    """Read samples from CSV with header x,w,f,g (w and g optional).

    '#' lines are skipped; any malformed or non-finite field rejects the
    whole file with its line number.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        read_text(path)  # raises, naming the line of the first bad byte
        raise

    header = None
    rows = []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = next(csv.reader([line]))
        if header is None:
            header = [h.strip().lower() for h in fields]
            if "x" not in header or "f" not in header:
                raise InputDataError("header must contain at least 'x' and 'f'", line=lineno)
            unknown = set(header) - {"x", "w", "f", "g"}
            if unknown:
                raise InputDataError(f"unknown columns {sorted(unknown)}", line=lineno)
            continue
        if len(fields) != len(header):
            raise InputDataError(
                f"expected {len(header)} fields, got {len(fields)}", line=lineno
            )
        rec = {}
        for name, field in zip(header, fields):
            try:
                rec[name] = float(field)
            except ValueError:
                raise InputDataError(
                    f"non-numeric value {field!r} in column '{name}'", line=lineno
                ) from None
            if not np.isfinite(rec[name]):
                raise InputDataError(f"non-finite value in column '{name}'", line=lineno)
        if "w" in rec and rec["w"] < 0:
            raise InputDataError(f"negative weight {rec['w']}", line=lineno)
        rows.append(rec)
    if header is None or not rows:
        raise InputDataError(f"{path} contains no data rows")

    x = np.array([r["x"] for r in rows])
    w = np.array([r.get("w", 1.0) for r in rows])
    f = np.array([r["f"] for r in rows])
    g = np.array([r["g"] for r in rows]) if "g" in header else None
    return SampleSet(x=x, w=w, f=f, g=g)


def write_samples_csv(path: str, samples: SampleSet) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        cols = ["x", "w", "f"] + (["g"] if samples.has_g else [])
        fh.write(",".join(cols) + "\n")
        for l in range(samples.size):
            row = [samples.x[l], samples.w[l], samples.f[l]]
            if samples.has_g:
                row.append(samples.g[l])
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_spectral_rho(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Spectral rho file: first line n, then the eigenvalues, then one line
    of coefficients (in the f-eigenbasis) per eigenvector."""
    lines = [ln.strip() for ln in read_text(path).splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise InputDataError(f"{path} is empty")
    try:
        n = int(lines[0])
    except ValueError:
        raise InputDataError("first line must be the order n", line=1) from None
    if len(lines) != n + 2:
        raise InputDataError(f"expected {n + 2} content lines, got {len(lines)}")
    try:
        lam = np.array([float(v) for v in lines[1].split()])
        vectors = np.array([[float(v) for v in line.split()] for line in lines[2:]])
    except ValueError:
        raise InputDataError("non-numeric value in spectral rho file") from None
    if lam.size != n or vectors.shape != (n, n):
        raise InputDataError(
            f"inconsistent sizes: {lam.size} eigenvalues, vectors {vectors.shape}"
        )
    # one vector per line; columns of the returned matrix are the vectors
    return lam, vectors.T


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
