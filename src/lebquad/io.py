"""File formats: CSV sample input, JSON/CSV result output, spectral rho files.

All floating-point output is printed with 17 significant digits so that
emitted files round-trip bit-exactly.
"""
from __future__ import annotations

import io as _io
import re
import warnings
from collections.abc import Iterator, Sequence
from itertools import islice

import numpy as np

from .errors import InputDataError
from .moments import SampleSet

FLOAT_FMT = "%.17g"

# Lines end at \r\n, \r or \n: Python's universal newlines, which np.loadtxt
# reads by. (str.splitlines also splits at \x0b, \x0c, \x1c-\x1e, \x85,
# \u2028 and \u2029; loadtxt does not.)
_LINE_END = re.compile(r"\r\n|\r|\n")
# np.loadtxt's two reports of a bad record: "could not convert string ... at
# row R, column C" (R counts data rows from 0, C columns from 1) and "the
# number of columns changed from A to B at row R" (R counts from 1).
_LOADTXT_ROW = re.compile(r"at row (\d+)(?:, column (\d+))?")


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
        ends = [data.count(end, 0, exc.start) for end in (b"\n", b"\r", b"\r\n")]
        raise InputDataError(
            f"{path} is not UTF-8 text (byte {data[exc.start]:#04x})",
            line=ends[0] + ends[1] - ends[2] + 1,
        ) from None


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` without their ends, one at a time."""
    start = 0
    for end in _LINE_END.finditer(text):
        yield text[start:end.start()]
        start = end.end()
    if start < len(text):
        yield text[start:]


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(file line number, stripped line) for each line of ``text`` that is
    neither blank nor a '#' comment; numbering counts every line."""
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _records(path: str, skiprows: int, sep: str | None) -> Iterator[tuple[int, list[str]]]:
    """(file line number, fields) of each line after the first ``skiprows``
    that np.loadtxt reads as a record: one whose text before any '#' splits
    at ``sep`` into at least one field. With sep None (whitespace) blank
    lines are skipped; with ',' only empty ones are."""
    lines = enumerate(_lines(read_text(path)), start=1)
    for lineno, raw in islice(lines, skiprows, None):
        body = raw.partition("#")[0]
        fields = body.split(sep) if body else []
        if fields:
            yield lineno, fields


def _bad_record(path: str, skiprows: int, sep: str | None, columns: Sequence,
                report: str | None = None) -> InputDataError:
    """The first record np.loadtxt rejected, as an error at its file line.

    loadtxt takes the width from the first record, so a first record whose
    width is not len(columns) is the fault; otherwise ``report``, loadtxt's
    message, names the record.
    """
    records = _records(path, skiprows, sep)
    lineno, fields = first = next(records)
    if len(fields) != len(columns):
        return InputDataError(f"expected {len(columns)} fields, got {len(fields)}", line=lineno)
    row, column = _LOADTXT_ROW.search(report).groups()
    index = int(row) if column else int(row) - 1  # 0-based
    lineno, fields = first if index == 0 else next(islice(records, index - 1, None))
    if not column:
        return InputDataError(f"expected {len(columns)} fields, got {len(fields)}", line=lineno)
    col = int(column) - 1
    return InputDataError(
        f"non-numeric value {fields[col]!r} in column {columns[col]!r}", line=lineno
    )


def _loadtxt(path: str, skiprows: int, sep: str | None, columns: Sequence) -> np.ndarray:
    """The records after the first ``skiprows`` lines of ``path`` as a
    (records, len(columns)) array, or an empty array if there are none.

    np.loadtxt alone decides what is accepted: plain decimals, nan and inf,
    a trailing '#' comment; each record on one line. A record of the wrong
    width, or with a non-numeric field, is reported at its file line.
    """
    # Read through an open file: given a name, numpy would pick a
    # decompressor by its suffix (.gz, .bz2, .xz) and fetch URLs.
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # no records is the caller's error to report, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(fh, delimiter=sep, skiprows=skiprows, ndmin=2)
    except ValueError as exc:
        raise _bad_record(path, skiprows, sep, columns, str(exc)) from None
    if table.size and table.shape[1] != len(columns):
        raise _bad_record(path, skiprows, sep, columns)
    return table


def read_samples_csv(path: str) -> SampleSet:
    """Read samples from CSV with header x,w,f,g (w and g optional).

    The header is the first line that is neither blank nor a '#' comment.
    Every later line is one record of comma-separated decimals (no quoting;
    a trailing '#' comment is allowed), except empty lines and lines that
    start with '#'. Lines end at LF, CR LF or CR. Any malformed, non-finite or
    negative-weight record rejects the whole file with its line number.
    """
    text = read_text(path)
    lineno, line = next(content_lines(text), (None, ""))
    del text  # the parse reads the file again; no copy of it is held meanwhile
    header = [h.strip().lower() for h in line.split(",")]
    if "x" not in header or "f" not in header:
        raise InputDataError("header must contain at least 'x' and 'f'", line=lineno)
    unknown = set(header) - {"x", "w", "f", "g"}
    if unknown:
        raise InputDataError(f"unknown columns {sorted(unknown)}", line=lineno)
    data = _loadtxt(path, lineno, ",", header).T.copy()  # one contiguous row per column
    if not data.size:
        raise InputDataError(f"{path} contains no data rows")

    cols = dict(zip(header, data))
    finite = np.isfinite(data)
    bad = ~finite.all(axis=0) | (cols.get("w", 0.0) < 0)
    if bad.any():
        # the first offending record, checked in the order a row scan would
        row = int(bad.argmax())
        lineno = next(islice(_records(path, lineno, ","), row, None))[0]
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
    lineno, first = next(content_lines(read_text(path)), (None, ""))
    try:
        n = int(first)
    except ValueError:
        raise InputDataError(f"expected the order n, got {first!r}", line=lineno) from None
    if n < 1:
        raise InputDataError(f"order n must be >= 1, got {n}", line=lineno)
    table = _loadtxt(path, lineno, None, range(1, n + 1))
    if len(table) != n + 1:
        raise InputDataError(f"expected {n + 2} content lines, got {len(table) + 1}")
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
