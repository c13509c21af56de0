"""Spans around the calls into each lebquad layer, recorded from outside.

The tracer rebinds module attributes at the names the real call path looks
up (``pipeline.accumulate_grams``, ``moments.evaluate_all``, ``cli.analyze``,
...), so spans nest as the calls do. Wrappers are installed only while a
traced operation runs and removed afterwards; untraced operations run the
library untouched. Spans stay in memory and are written out at exit.

Run as a script, this file is the traced ``lebquad joint`` child:

    python perfbench/tracing.py SPANS_JSON -- <lebquad cli arguments>
"""
from __future__ import annotations

import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

from lebquad import cli, datagen, io, joint, moments, pipeline

# (module, attribute looked up by the caller, span name)
TARGETS = (
    (pipeline, "analyze", "pipeline.analyze"),
    (cli, "analyze", "pipeline.analyze"),
    (pipeline, "accumulate_grams", "moments.accumulate_grams"),
    (moments, "evaluate_all", "basis.evaluate_all"),
    (pipeline, "lebesgue_quadrature", "spectral.lebesgue_quadrature"),
    (pipeline, "lebesgue_quadrature_in_f_basis", "spectral.lebesgue_quadrature_in_f_basis"),
    (joint, "projection", "joint.projection"),
    (joint, "value_correlation", "joint.correlations"),
    (joint, "probability_correlation", "joint.correlations"),
    (joint, "density_matrix_correlation", "joint.correlations"),
    (joint, "pure_squared_correlation", "joint.correlations"),
    (joint, "pureness_estimate", "joint.correlations"),
    (io, "read_samples_csv", "io.read_samples_csv"),
    (io, "result_document", "io.serialize"),
    (io, "dumps_json", "io.serialize"),
    (datagen, "generate", "datagen.generate"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# span fields: name, start, end, parent index (or None), op id, raised
NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, perf_counter(), None, parent, self._op, False]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def recording(self, op):
        """Install the wrappers for the duration of one operation."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        self._op = op
        try:
            for (module, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(module, attr, self._wrap(fn, name))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            self._op = None

    def add(self, spans, op):
        """Append spans recorded by another process under operation ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _, error in spans:
            self.spans.append([name, start, end,
                               None if parent is None else parent + offset, op, error])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def per_op(spans):
    """{op: {span name: [self_s, calls, errors, inclusive_s]}} plus, per op,
    the summed duration of its top-level spans under the key None."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    ops: dict = {}
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        names = ops.setdefault(span[OP], {None: 0.0})
        row = names.setdefault(span[NAME], [0.0, 0, 0, 0.0])
        row[0] += duration - covered[index]
        row[1] += 1
        row[2] += span[ERROR]
        row[3] += duration
        if span[PARENT] is None:
            names[None] += duration
    return ops


def layer_metrics(spans, op_ids, setup_ids):
    """Median self time and calls per op, total errors, for every span name.

    ``datagen.generate`` runs during set-up, so it is taken over the
    set-up ids instead of the operations.
    """
    ops = per_op(spans)
    out = {}
    for name in SPAN_NAMES:
        ids = setup_ids if name == "datagen.generate" else op_ids
        rows = [ops.get(op, {}).get(name, [0.0, 0, 0, 0.0]) for op in ids]
        out[name] = {
            "self_s": statistics.median(r[0] for r in rows),
            "calls": statistics.median(r[1] for r in rows),
            "errors": sum(r[2] for r in rows),
            "inclusive_s": statistics.median(r[3] for r in rows),
        }
    return out


def top_level_s(spans, op):
    return per_op(spans).get(op, {None: 0.0})[None]


def _child(argv):
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_JSON -- <lebquad cli arguments>")
    tracer = Tracer()
    try:
        with tracer.recording(0):
            code = cli.main(cli_args)
    finally:
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
