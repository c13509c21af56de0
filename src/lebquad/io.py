"""File formats: CSV sample input, JSON/CSV result output, spectral rho files.

All floating-point output is printed with 17 significant digits, so that
emitted files round-trip bit-exactly, and written as it is formatted.
"""
from __future__ import annotations

import io as _io
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice

import numpy as np

from .basis import Family, _chebyshev_coefficients
from .errors import InputDataError
from .moments import SampleSet

FLOAT_FMT = "%.17g"
_SAMPLE_BLOCK = 4096  # rows of samples formatted at once by write_samples_csv


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
    if len(set(header)) < len(header):
        repeated = sorted({name for name in header if header.count(name) > 1})
        raise InputDataError(f"repeated columns {repeated}", line=lineno)
    return header


def read_samples_csv(path: str) -> SampleSet:
    """Read samples from CSV with header x,w,f,g (w and g optional).

    The header is the first line that is neither blank nor a '#' comment.
    Every later line is one record of comma-separated decimals (no quoting;
    a trailing '#' comment is allowed), except empty lines and lines that
    start with '#'. Lines end at LF, CR LF or CR. A malformed record, or the
    record of SampleSet's first non-finite value or negative weight, rejects
    the whole file with its line number.

    Without zero weights, SampleSet's columns are read-only strided views of
    the one table np.loadtxt parses, so ingest peaks at about 1.25 times that
    table; with them, they are copies of its rows of w > 0. Without a w
    column, w is ``np.broadcast_to(1.0, M)``, a view of one value.
    """
    lineno, header, table = _read_table(path, ",", _sample_columns)
    if not table.size:
        raise InputDataError(f"{path} contains no data rows")
    cols = dict(zip(header, table.T))
    try:
        return SampleSet(x=cols["x"], w=cols.get("w", np.broadcast_to(1.0, len(table))),
                         f=cols["f"], g=cols.get("g"))
    except InputDataError as exc:
        if exc.record is None:
            raise
        line = _last_line_read(read_text(path), lineno, ",", max_rows=exc.record)[0]
        raise InputDataError(exc.reason, line=line) from None


def write_samples_csv(path: str, samples: SampleSet) -> None:
    """np.savetxt's bytes (FLOAT_FMT, header x,w,f[,g]), one %-format per block."""
    names = ["x", "w", "f"] + (["g"] if samples.has_g else [])
    row = ",".join([FLOAT_FMT] * len(names)) + "\n"
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(names) + "\n")
        for start in range(0, samples.size, _SAMPLE_BLOCK):
            block = np.column_stack([getattr(samples, c)[start:start + _SAMPLE_BLOCK]
                                     for c in names])
            out.write(row * len(block) % tuple(block.ravel().tolist()))


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


def quadrature_payload(quad, family: Family) -> dict:
    """JSON fields of ``quad``, alpha over Q_k of ``family`` (C^-T alpha, C the
    Chebyshev coefficients of Q_k); past the float maximum, an InputDataError."""
    alpha = quad.eigensolution.alpha
    if family is not Family.CHEBYSHEV:
        C = _chebyshev_coefficients(family, len(alpha))
        # a monomial C[k, k] = 2^(1-k) is 0 from k = 1076 on, and alpha_Q past the float maximum
        alpha = np.linalg.solve(C.T, alpha) if C.diagonal().all() else np.inf
        if not np.isfinite(alpha).all():
            raise InputDataError(f"alpha past the float maximum in the {family.value} basis")
    return {
        "nodes": quad.nodes,
        "weights": quad.weights,
        "amplitudes": quad.amplitudes,
        "alpha": alpha,
    }


def joint_payload(matrix, result) -> dict:
    return {
        "kind": matrix.kind,
        "normalization": matrix.normalization,
        "matrix": matrix.W,
        "row_nodes": result.quad_f.nodes,
        "col_nodes": result.quad_g.nodes,
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
        "quadrature_f": quadrature_payload(result.quad_f, result.basis.family),
    }
    if result.quad_g is not None:
        doc["quadrature_g"] = quadrature_payload(result.quad_g, result.basis.family)
    if joint_matrices:
        doc["joint"] = [joint_payload(m, result) for m in joint_matrices]
    return doc


def _json_pieces(obj) -> Iterator[str]:
    """JSON text of ``obj`` (dicts, lists, arrays, strings and numbers) in
    pieces of at most one array row. Every number is printed with FLOAT_FMT,
    a 1-d array's with one %-format over its tolist()."""
    if isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield (", " if i else "") + "".join(_json_pieces(str(key))) + ": "
            yield from _json_pieces(value)
        yield "}"
    elif isinstance(obj, np.ndarray) and obj.ndim == 1:
        yield ("[" + ", ".join([FLOAT_FMT] * obj.size) + "]") % tuple(obj.tolist())
    elif isinstance(obj, (list, tuple, np.ndarray)):
        yield "["
        for i, item in enumerate(obj):
            yield ", " if i else ""
            yield from _json_pieces(item)
        yield "]"
    elif isinstance(obj, str):
        yield '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    else:
        yield FLOAT_FMT % obj


def write_json(out, doc: dict) -> None:
    """Writes ``doc`` to the text handle ``out`` as JSON, one array row at a time."""
    out.writelines(_json_pieces(doc))
    out.write("\n")


def dumps_json(doc: dict) -> str:
    return "".join(_json_pieces(doc)) + "\n"


def write_csv(out, result, joint_matrices=()) -> None:
    """Writes long-form CSV to the text handle ``out``, each matrix row with one
    %-format into a template of its kind, row and column nodes, formatted once."""
    out.write("section,kind,i,j,a,b,value\n")
    line = f"quadrature,%s,%d,,{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT}\n"
    for name, quad in (("f", result.quad_f), ("g", result.quad_g)):
        if quad is not None:
            columns = zip(quad.nodes.tolist(), quad.weights.tolist(), quad.amplitudes.tolist())
            for i, values in enumerate(columns):
                out.write(line % (name, i, *values))
    for mat in joint_matrices:
        row = "".join(f"joint,{mat.kind},{{i}},{j},{{a}},{FLOAT_FMT % b},{FLOAT_FMT}\n"
                      for j, b in enumerate(result.quad_g.nodes.tolist()))
        for i, (a, values) in enumerate(zip(result.quad_f.nodes.tolist(), mat.W)):
            out.write(row.format(i=i, a=FLOAT_FMT % a) % tuple(values.tolist()))
