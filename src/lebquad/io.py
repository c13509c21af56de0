"""File formats: CSV sample input, JSON/CSV result output, spectral rho files.

All floating-point output is printed with 17 significant digits so that
emitted files round-trip bit-exactly.
"""
from __future__ import annotations

import io as _io
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice

import numpy as np

from .errors import InputDataError
from .moments import SampleSet

FLOAT_FMT = "%.17g"

def _fmt(value: float) -> str:
    return FLOAT_FMT % float(value)


def _open(path: str, mode: str, **kwargs):
    try:
        return open(path, mode, **kwargs)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputDataError(f"cannot read {path!r}: {exc}") from None


def read_text(path: str) -> str:
    """Whole file as UTF-8 text.

    An unreadable file, or one with bytes that are not UTF-8, raises
    InputDataError; the latter names the line of the first bad byte.
    """
    with _open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        ends = [data.count(end, 0, exc.start) for end in (b"\n", b"\r", b"\r\n")]
        raise InputDataError(
            f"{path} is not UTF-8 text (byte {data[exc.start]:#04x})",
            line=ends[0] + ends[1] - ends[2] + 1,
        ) from None


def _numbered_content(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(file line number, stripped line) for each line of ``text`` that is
    neither blank nor a '#' comment; numbering counts every line, and lines
    end at LF, CR LF or CR, as np.loadtxt reads them."""
    return _numbered_content(_io.StringIO(text, newline=None))


def _last_line_read(text: str, skiprows: int, sep: str | None,
                    max_rows: int | None = None) -> tuple[int, str]:
    """(file line number, line) of the last line np.loadtxt reads of
    ``text`` after its first ``skiprows`` lines. With ``max_rows`` that is
    the line of record ``max_rows``; without, the line of the first record
    loadtxt rejects."""
    last = (skiprows, "")

    def lines():
        nonlocal last
        for last in enumerate(islice(_io.StringIO(text, newline=None), skiprows, None),
                              start=skiprows + 1):
            yield last[1]

    with warnings.catch_warnings():
        # blank and comment lines do not count towards max_rows, as intended
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        try:
            np.loadtxt(lines(), delimiter=sep, max_rows=max_rows)
        except ValueError:
            pass
    return last


def _record_error(lineno: int, line: str, sep: str | None,
                  columns: Sequence) -> InputDataError | None:
    """The fault of one record line, if it has one: a width that is not
    len(columns), or a field that np.loadtxt does not read as a number."""
    fields = np.loadtxt([line], delimiter=sep, dtype=str, ndmin=1).tolist()
    if len(fields) != len(columns):
        return InputDataError(f"expected {len(columns)} fields, got {len(fields)}", line=lineno)
    for col, name in enumerate(columns):
        try:
            np.loadtxt([line], delimiter=sep, usecols=col)
        except ValueError:
            return InputDataError(f"non-numeric value {fields[col]!r} in column {name!r}",
                                  line=lineno)
    return None


def _bad_record(path: str, skiprows: int, sep: str | None, columns: Sequence) -> InputDataError:
    """The first record np.loadtxt rejected, as an error at its file line.

    loadtxt takes the width from the first record, so the first record is
    checked on its own before loadtxt is run again up to the one it rejects.
    """
    text = read_text(path)
    return (_record_error(*_last_line_read(text, skiprows, sep, max_rows=1), sep, columns)
            or _record_error(*_last_line_read(text, skiprows, sep), sep, columns))


def _read_table(path: str, sep: str | None, columns_of: Callable[[int | None, str], Sequence]
                ) -> tuple[int | None, Sequence, np.ndarray]:
    """(line number, columns, table) of ``path``: the table holds the records
    after its first content line as a (records, len(columns)) array, or is
    empty if there are none.

    The file is read once, as UTF-8 text. Its first line that is neither
    blank nor a '#' comment (numbered as by :func:`content_lines`; (None, "")
    if there is none) goes to ``columns_of``, which checks it and returns
    the column names. np.loadtxt then parses the rest of the same handle
    and alone decides what is accepted: plain decimals, nan and inf, a
    trailing '#' comment; each record on one line. A record of the wrong
    width, or with a non-numeric field, is reported at its file line, and
    a byte that is not UTF-8 at the line it is on.
    """
    with _open(path, "r", encoding="utf-8") as fh:
        try:
            lineno, line = next(_numbered_content(iter(fh.readline, "")), (None, ""))
            columns = columns_of(lineno, line)
            # Parse an open file: given a name, numpy would pick a
            # decompressor by its suffix (.gz, .bz2, .xz) and fetch URLs.
            with warnings.catch_warnings():
                # no records is the caller's error to report, not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, delimiter=sep, ndmin=2)
        except UnicodeDecodeError:  # a ValueError too, so caught first
            read_text(path)  # raises InputDataError at the line of the bad byte
            raise
        except ValueError:  # loadtxt rejected a record
            table = None
    if table is None or (table.size and table.shape[1] != len(columns)):
        raise _bad_record(path, lineno, sep, columns)
    return lineno, columns, table


def _sample_columns(lineno: int | None, line: str) -> list[str]:
    header = [h.strip().lower() for h in line.split(",")]
    if "x" not in header or "f" not in header:
        raise InputDataError("header must contain at least 'x' and 'f'", line=lineno)
    unknown = set(header) - {"x", "w", "f", "g"}
    if unknown:
        raise InputDataError(f"unknown columns {sorted(unknown)}", line=lineno)
    return header


def read_samples_csv(path: str) -> SampleSet:
    """Read samples from CSV with header x,w,f,g (w and g optional).

    The header is the first line that is neither blank nor a '#' comment.
    Every later line is one record of comma-separated decimals (no quoting;
    a trailing '#' comment is allowed), except empty lines and lines that
    start with '#'. Lines end at LF, CR LF or CR. A malformed record, or the
    record of SampleSet's first non-finite value or negative weight, rejects
    the whole file with its line number.
    """
    lineno, header, table = _read_table(path, ",", _sample_columns)
    data = table.T.copy()  # one contiguous row per column
    del table  # else SampleSet's checks would raise the parse's peak
    if not data.size:
        raise InputDataError(f"{path} contains no data rows")
    cols = dict(zip(header, data))
    try:
        return SampleSet(x=cols["x"], w=cols.get("w", np.ones(data.shape[1])),
                         f=cols["f"], g=cols.get("g"))
    except InputDataError as exc:
        if exc.record is None:
            raise
        line = _last_line_read(read_text(path), lineno, ",", max_rows=exc.record)[0]
        raise InputDataError(exc.reason, line=line) from None


def write_samples_csv(path: str, samples: SampleSet) -> None:
    names = ["x", "w", "f"] + (["g"] if samples.has_g else [])
    np.savetxt(path, np.column_stack([getattr(samples, c) for c in names]),
               fmt=FLOAT_FMT, delimiter=",", header=",".join(names), comments="")


def read_spectral_rho(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Spectral rho file: first line n, then the eigenvalues, then one line
    of coefficients (in the f-eigenbasis) per eigenvector."""
    _, columns, table = _read_table(path, None, _rho_columns)
    n = len(columns)
    if len(table) != n + 1:
        raise InputDataError(f"expected {n + 2} content lines, got {len(table) + 1}")
    # one vector per line after the eigenvalues; columns of the returned matrix are the vectors
    return table[0], table[1:].T


def _rho_columns(lineno: int | None, first: str) -> range:
    try:
        n = int(first)
    except ValueError:
        raise InputDataError(f"expected the order n, got {first!r}", line=lineno) from None
    if n < 1:
        raise InputDataError(f"order n must be >= 1, got {n}", line=lineno)
    return range(1, n + 1)


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
