"""The benchmark's workloads: inputs from a seed, one operation, its check.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. Library calls go
through module attributes (``pipeline.analyze``, ``joint.pureness_estimate``)
so that the tracer's rebinding sees them.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np

from lebquad import cli, datagen, io, joint, pipeline
from lebquad.errors import LebquadError
from lebquad.spectral import DEFAULT_EPSILON

import tracing

KINDS = (joint.VALUE, joint.PROBABILITY, joint.DENSITY, joint.PURE_SQUARED)

# Tolerances of selftest.py and tests/test_acceptance.py.
SUM_RULE_TOL = 1e-8
EXACT_TOL = 1e-10


@dataclass
class Outputs:
    """What the identities are checked on, from objects or parsed JSON."""

    total: float
    n: int
    f_nodes: np.ndarray
    f_weights: np.ndarray
    g_nodes: np.ndarray
    g_weights: np.ndarray
    V: np.ndarray
    P: np.ndarray
    D_unit: np.ndarray
    squared: np.ndarray
    pureness: float
    D_ident: np.ndarray | None = None


def identity_failures(o: Outputs) -> list[str]:
    """Names of the paper's identities that ``o`` violates (empty: correct)."""
    T, n = o.total, o.n
    expected_sq = np.outer(o.f_weights, o.g_weights)
    errors = [
        ("value total", abs(o.V.sum() - T) / T, SUM_RULE_TOL),
        ("value row sums", np.abs(o.V.sum(axis=1) - o.f_weights).max() / T, SUM_RULE_TOL),
        ("value column sums", np.abs(o.V.sum(axis=0) - o.g_weights).max() / T, SUM_RULE_TOL),
        ("probability total", abs(o.P.sum() - n) / n, SUM_RULE_TOL),
        ("probability doubly stochastic",
         max(np.abs(o.P.sum(axis=0) - 1).max(), np.abs(o.P.sum(axis=1) - 1).max()),
         SUM_RULE_TOL),
        ("density(unit) = value",
         np.abs(o.D_unit - o.V).max() / max(np.abs(o.V).max(), 1.0), EXACT_TOL),
        ("squared(unit) = weight product",
         np.abs(o.squared - expected_sq).max() / expected_sq.max(), EXACT_TOL),
        ("squared(unit) total", abs(o.squared.sum() - T**2) / T**2, SUM_RULE_TOL),
        ("pureness of pure state", o.pureness, SUM_RULE_TOL),
    ]
    if o.D_ident is not None:
        errors.append(("density(identity) = probability",
                       np.abs(o.D_ident - o.P).max(), EXACT_TOL))
    # "not err <= tol" also catches NaN
    return [f"{name}: {err:.2e} > {tol:.0e}" for name, err, tol in errors
            if not err <= tol]


@dataclass
class InMemoryResult:
    """One analysis with its joint estimates, kept for checking."""

    result: pipeline.AnalysisResult
    S: joint.ProjectionMatrix
    matrices: list
    pureness: float
    text: str = ""

    def outputs(self) -> Outputs:
        r = self.result
        V, P, D, sq = (m.W for m in self.matrices)
        D_ident = joint.density_matrix_correlation(self.S, joint.density_identity(r.n)).W
        return Outputs(
            total=r.grams.total_measure, n=r.n,
            f_nodes=r.quad_f.nodes, f_weights=r.quad_f.weights,
            g_nodes=r.quad_g.nodes, g_weights=r.quad_g.weights,
            V=V, P=P, D_unit=D, squared=sq, pureness=self.pureness, D_ident=D_ident,
        )

    def digest(self) -> bytes:
        h = hashlib.sha256()
        for quad in (self.result.quad_f, self.result.quad_g):
            for arr in (quad.nodes, quad.weights, quad.amplitudes, quad.eigensolution.alpha):
                h.update(arr.tobytes())
        for m in self.matrices:
            h.update(m.W.tobytes())
        h.update(repr(self.pureness).encode())
        h.update(self.text.encode())
        return h.digest()


@dataclass
class Failed:
    """A result whose computation raised a library error."""

    reason: str

    def digest(self) -> bytes:
        return self.reason.encode()


def analyze_joint(samples, n, family, serialize) -> InMemoryResult | Failed:
    """analyze, projection, the four kinds with rho = |1><1|, pureness,
    and optionally the JSON document."""
    try:
        result = pipeline.analyze(samples, n=n, family=family)
        S = result.projection()
        rho = joint.density_from_pure_unit(result.quad_f)
        matrices = [result.correlation(kind, rho=rho, S=S) for kind in KINDS]
        pureness = joint.pureness_estimate(S, rho)
        text = ""
        if serialize:
            text = io.dumps_json(io.result_document(result, DEFAULT_EPSILON, matrices))
    except LebquadError as exc:
        return Failed(f"{type(exc).__name__}: {exc}")
    return InMemoryResult(result, S, matrices, pureness, text)


def child_env() -> dict:
    """Environment for a child interpreter: this lebquad, same BLAS threads."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pipeline.__file__)))


class InProcess:
    """Base for workloads that call the library in the benchmark process."""

    serialize = False

    def setup_inputs(self, workdir):
        self.cases = [(datagen.generate(spec), n, family) for spec, n, family in self.specs]

    def prepare_checks(self):
        pass

    def op(self, tracer=None, op_id=None):
        """One operation. The tracer's wrappers are already installed when it
        is traced; ``tracer`` and ``op_id`` serve child-process workloads."""
        return [analyze_joint(s, n, family, self.serialize) for s, n, family in self.cases]

    op_in_process = op

    def check(self, res) -> list[str]:
        if isinstance(res, Failed):
            return [res.reason]
        return identity_failures(res.outputs())

    def serialized_bytes(self, results) -> int:
        return sum(len(r.text.encode()) for r in results if isinstance(r, InMemoryResult))


class Bulk(InProcess):
    """spikes laws, M = 1e6 unit weights, Chebyshev n = 32."""

    name = "bulk"

    def __init__(self, seed, smoke):
        spec = replace(datagen.load_scenario("spikes"),
                       M=20_000 if smoke else 1_000_000, seed=seed)
        self.specs = [(spec, 32, "chebyshev")]
        self.samples_per_op = spec.M


class Sweep(InProcess):
    """The four shipped scenarios x {chebyshev, legendre} at n = 64."""

    name = "sweep"
    serialize = True

    def __init__(self, seed, smoke):
        self.specs = []
        for name in datagen.builtin_scenario_names():
            spec = datagen.load_scenario(name)
            spec = replace(spec, seed=spec.seed + seed)
            for family in ("chebyshev", "legendre"):
                self.specs.append((spec, 64, family))
        self.samples_per_op = sum(spec.M for spec, _, _ in self.specs)


@dataclass
class CliResult:
    """Exit code, output file, stderr and peak RSS of one CLI process."""

    code: int
    text: bytes
    stderr: bytes
    maxrss_kb: int

    def digest(self) -> bytes:
        return hashlib.sha256(self.text).digest()


def _parse_cli_document(doc) -> Outputs:
    mats = {m["kind"]: np.array(m["matrix"]) for m in doc["joint"]}
    sq = mats[joint.PURE_SQUARED]
    # joint.pureness_estimate, on the parsed squared correlation
    Wn = sq / sq.sum()
    pureness = float(np.linalg.norm(Wn - np.outer(Wn.sum(axis=1), Wn.sum(axis=0))))
    qf, qg = doc["quadrature_f"], doc["quadrature_g"]
    return Outputs(
        total=doc["meta"]["total_measure"], n=doc["meta"]["n"],
        f_nodes=np.array(qf["nodes"]), f_weights=np.array(qf["weights"]),
        g_nodes=np.array(qg["nodes"]), g_weights=np.array(qg["weights"]),
        V=mats[joint.VALUE], P=mats[joint.PROBABILITY], D_unit=mats[joint.DENSITY],
        squared=sq, pureness=pureness,
    )


# Linux carries a process's peak RSS across fork and exec, so a CLI process
# spawned straight from the benchmark would report the benchmark's own peak.
# A small launcher forks it instead and prints its exit code and peak RSS.
_LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


class CliCsv:
    """A fresh ``lebquad joint`` process on a CSV of spikes laws.

    100 000 rows keep an operation near 1.5 s, so that one run holds a few
    dozen operations and its median and tail are steady on a shared host.
    """

    name = "cli-csv"
    n = 8

    def __init__(self, seed, smoke):
        self.spec = replace(datagen.load_scenario("spikes"),
                            M=5_000 if smoke else 100_000, seed=seed)
        self.samples_per_op = self.spec.M

    def setup_inputs(self, workdir):
        self.workdir = workdir
        self.csv = os.path.join(workdir, "samples.csv")
        self.out = os.path.join(workdir, "joint.json")
        io.write_samples_csv(self.csv, datagen.generate(self.spec))

    def _cli_args(self):
        return ["joint", "--input", self.csv, "--n", str(self.n),
                "--kinds", ",".join(KINDS), "--rho", "unit",
                "--format", "json", "--output", self.out]

    def prepare_checks(self):
        """In-process analyze of the same CSV, for the node comparison."""
        samples = io.read_samples_csv(self.csv)
        ref = pipeline.analyze(samples, n=self.n)
        self.ref_nodes = (ref.quad_f.nodes, ref.quad_g.nodes)
        self.cases = [(samples, self.n, "chebyshev")]

    def op(self, tracer=None, op_id=None):
        if os.path.exists(self.out):
            os.remove(self.out)
        if tracer is None:
            argv = [sys.executable, "-m", "lebquad.cli", *self._cli_args()]
        else:
            spans_path = os.path.join(self.workdir, "child-spans.json")
            argv = [sys.executable, tracing.__file__, spans_path, "--", *self._cli_args()]
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", _LAUNCHER, *argv],
                              env=child_env(), capture_output=True)
        code, maxrss_kb = map(int, proc.stdout.split()[-2:])
        text = b""
        if os.path.exists(self.out):
            with open(self.out, "rb") as fh:
                text = fh.read()
        if tracer is not None:
            with open(spans_path, encoding="utf-8") as fh:
                tracer.add(json.load(fh), op_id)
        return [CliResult(code, text, proc.stderr, maxrss_kb)]

    def op_in_process(self):
        code = cli.main(self._cli_args())
        with open(self.out, "rb") as fh:
            return [CliResult(code, fh.read(), b"", 0)]

    def check(self, res) -> list[str]:
        if res.code != 0:
            return [f"exit code {res.code}: {res.stderr.decode(errors='replace').strip()}"]
        try:
            outputs = _parse_cli_document(json.loads(res.text))
            failures = identity_failures(outputs)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        for label, got, want in zip(("f", "g"), (outputs.f_nodes, outputs.g_nodes),
                                    self.ref_nodes):
            if got.shape != want.shape:
                failures.append(f"{label} nodes: shape {got.shape}, expected {want.shape}")
                continue
            err = np.abs(got - want).max() / max(np.abs(want).max(), 1.0)
            if not err <= EXACT_TOL:
                failures.append(f"{label} nodes differ from in-process analyze: {err:.2e}")
        return failures

    def serialized_bytes(self, results) -> int:
        return sum(len(r.text) for r in results)


WORKLOADS = {cls.name: cls for cls in (Bulk, Sweep, CliCsv)}
