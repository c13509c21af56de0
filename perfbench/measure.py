"""Set-up, the timed loop, the traced loop and the metrics they report.

Imported by run.py only after the BLAS thread count is pinned.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import nullcontext
from time import perf_counter

import numpy as np
import scipy

from lebquad import moments, pipeline

import tracing
from workloads import WORKLOADS, child_env

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_OPS = 11  # the tail percentile needs 10 operations beyond it
MIN_TRACED_OPS = 3  # of each kind, traced and untraced, in a traced run
IMPORT_RUNS = 3

END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "samples_per_s": "1/s",
    "peak_alloc_mb": "MB",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Layers reached on every workload; the io spans are in the printed table.
SPAN_LAYERS = (
    "moments.accumulate_grams", "basis.evaluate_all", "spectral.lebesgue_quadrature",
    "spectral.lebesgue_quadrature_in_f_basis", "joint.projection",
    "joint.correlations", "pipeline.analyze", "datagen.generate",
)
PER_LAYER = {
    **{f"{layer}.{field}": unit for layer in SPAN_LAYERS
       for field, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    "moments.accumulate_grams.peak_alloc_mb": "MB",
    "moments.samples_per_s": "1/s",
    "cli.import_s": "s",
    "untraced_s": "s",
    "trace.overhead": "ratio",
}
IO_LAYER = {
    **{f"{layer}.{field}": unit for layer in ("io.read_samples_csv", "io.serialize")
       for field, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    "io.read_samples_csv.rows_per_s": "1/s",
    "io.serialize.bytes": "bytes",
}


def environment(threads: int) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
            f"cpu={cpu!r} python={sys.version.split()[0]} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={threads} (OPENBLAS/OMP/MKL_NUM_THREADS)")


def tail(times):
    """Highest percentile with at least 10 operations beyond it."""
    ordered = sorted(times)
    index = len(ordered) - MIN_OPS
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_alloc_mb(call) -> float:
    """tracemalloc peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def import_seconds() -> float:
    """A fresh interpreter's time to run ``import lebquad.cli``."""
    code = ("import time; t = time.perf_counter(); import lebquad.cli; "
            "print(time.perf_counter() - t)")
    runs = [float(subprocess.run([sys.executable, "-c", code], env=child_env(),
                                 capture_output=True, check=True, text=True).stdout)
            for _ in range(IMPORT_RUNS)]
    return statistics.median(runs)


def gram_peak_mb(wl) -> float:
    """tracemalloc peak of accumulate_grams on the workload's own arguments."""
    peak = 0.0
    for samples, n, family in wl.cases:
        basis = pipeline.basis_for_samples(samples, n, family)
        peak = max(peak, peak_alloc_mb(lambda: moments.accumulate_grams(samples, basis, n)))
    return peak


class Tally:
    """Results attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 4:
                self.reasons.append("; ".join(problems))


class Loop:
    """The closed loop, run in chunks between set-ups so that its operations
    sample the host over the whole run; in a traced run every second
    operation is traced."""

    def __init__(self, wl, tracer, reference):
        self.wl, self.tracer, self.reference = wl, tracer, reference
        self.untraced, self.traced = [], []  # (op id, seconds)
        self.serialized, self.child_rss_kb = [], []
        self.wall = 0.0
        self.mismatches = 0
        self.tally = Tally()

    def _enough(self):
        if self.tracer is None:
            return len(self.untraced) >= MIN_OPS
        return min(len(self.untraced), len(self.traced)) >= MIN_TRACED_OPS

    def chunk(self, seconds, last):
        wl, tracer = self.wl, self.tracer
        start = perf_counter()
        while True:
            op_id = len(self.untraced) + len(self.traced)
            is_traced = tracer is not None and op_id % 2 == 1
            t0 = perf_counter()
            with tracer.recording(op_id) if is_traced else nullcontext():
                results = wl.op(tracer, op_id) if is_traced else wl.op()
            elapsed = perf_counter() - t0
            (self.traced if is_traced else self.untraced).append((op_id, elapsed))
            for res in results:
                self.tally.add(wl.check(res))
            if is_traced:
                self.mismatches += [r.digest() for r in results] != self.reference
            self.serialized.append(wl.serialized_bytes(results))
            self.child_rss_kb += [r.maxrss_kb for r in results if hasattr(r, "maxrss_kb")]
            if perf_counter() - start >= seconds and (not last or self._enough()):
                break
        self.wall += perf_counter() - start


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        threads: int, root: str) -> int:
    wl = WORKLOADS[name](seed, smoke)
    tracer = tracing.Tracer() if trace else None
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    try:
        setup_times = []
        for i in range(SETUPS):
            t0 = perf_counter()
            with tracer.recording(f"setup{i}") if tracer else nullcontext():
                wl.setup_inputs(workdir)
            warm = wl.op()
            setup_times.append(perf_counter() - t0)
            if i == 0:
                wl.prepare_checks()
                loop = Loop(wl, tracer, [r.digest() for r in warm])
            loop.chunk(seconds / SETUPS, last=i == SETUPS - 1)
            if i == 0:
                # untimed passes, between chunks like the set-ups
                if trace:
                    passes = {"moments.accumulate_grams.peak_alloc_mb": gram_peak_mb(wl),
                              "cli.import_s": import_seconds()}
                else:
                    passes = {"peak_alloc_mb": peak_alloc_mb(wl.op_in_process)}
        tally = loop.tally
        times = [t for _, t in loop.untraced]

        print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
              f"smoke={int(smoke)}")
        print(f"# env {environment(threads)}")
        print(f"# results attempted={tally.attempted} failed={tally.failed} "
              f"fail_ratio={tally.failed / tally.attempted:.4g} "
              f"({tally.failed}/{tally.attempted}) over {len(loop.untraced) + len(loop.traced)} ops")
        for reason in tally.reasons:
            print(f"# failure: {reason}")
        if trace:
            print(f"# traced outputs bit-identical to untraced: "
                  f"{'yes' if loop.mismatches == 0 else f'NO ({loop.mismatches} ops differ)'}")
            metrics, table = _layer_metrics(wl, tracer, loop, passes)
        else:
            # the child's peak where the op runs in a child, else this process's
            rss_kb = (statistics.median(loop.child_rss_kb) if loop.child_rss_kb
                      else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            tail_s, tail_pct = tail(times)
            print(f"# op_s.tail is p{tail_pct:.1f} of {len(times)} ops (10 ops beyond it)")
            values = {
                "op_s.p50": statistics.median(times),
                "op_s.tail": tail_s,
                "samples_per_s": wl.samples_per_op * len(times) / loop.wall,
                "peak_rss_mb": rss_kb * 1024 / 1e6,
                "setup_s": statistics.median(setup_times),
                **passes,
            }
            metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
            table = metrics
        for key, (value, unit) in table.items():
            print(f"{key} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": tally.failed == 0 and loop.mismatches == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        if trace:
            tracer.write(os.path.join(scratch, f"spans-{name}-seed{seed}.json"))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_metrics(wl, tracer, loop, passes):
    op_ids = [op for op, _ in loop.traced]
    layers = tracing.layer_metrics(tracer.spans, op_ids, [f"setup{i}" for i in range(SETUPS)])
    values = {}
    for layer, row in layers.items():
        for field in ("self_s", "calls", "errors"):
            values[f"{layer}.{field}"] = row[field]
    grams = layers["moments.accumulate_grams"]["inclusive_s"]
    reads = layers["io.read_samples_csv"]["inclusive_s"]
    traced_wall = dict(loop.traced)
    values.update(passes)
    values.update({
        "moments.samples_per_s": wl.samples_per_op / grams if grams else 0.0,
        "untraced_s": statistics.median(
            traced_wall[op] - tracing.top_level_s(tracer.spans, op) for op in op_ids),
        "trace.overhead": statistics.median(traced_wall.values())
                          / statistics.median(t for _, t in loop.untraced),
        "io.read_samples_csv.rows_per_s": wl.samples_per_op / reads if reads else 0.0,
        "io.serialize.bytes": statistics.median(loop.serialized),
    })
    metrics = {k: (values[k], unit) for k, unit in PER_LAYER.items()}
    table = {**metrics, **{k: (values[k], unit) for k, unit in IO_LAYER.items()}}
    return metrics, table
