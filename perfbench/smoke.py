"""Self-test of the benchmark at reduced input sizes.

    python3 perfbench/smoke.py

Runs every workload, untraced and traced, and checks that each prints all
its metrics with units and ends with the result line; that a second seed
gives the same metric set; that a perturbed result is counted as failed;
and that without the lebquad sources the benchmark exits non-zero without
a result. Exits 0 when all of that holds.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import workloads  # noqa: E402
from lebquad import datagen, io  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _check_run(workload, seed, trace):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0), result
    expected = measure.PER_LAYER if trace else measure.END_TO_END
    assert result["metrics"].keys() == expected.keys(), result["metrics"].keys()
    for name, m in result["metrics"].items():
        assert m == {"value": m["value"], "unit": expected[name]}, (name, m)
        assert isinstance(m["value"], (int, float)), (name, m)
    printed = {ln.split(" = ")[0]: ln.rsplit(" ", 1)[1] for ln in lines if " = " in ln}
    for name, unit in {**expected, **(measure.IO_LAYER if trace else {})}.items():
        assert printed.get(name) == unit, f"{workload}: {name} not printed with unit {unit}"
    if trace:
        assert "bit-identical to untraced: yes" in proc.stdout, proc.stdout
    print(f"ok  {workload} seed={seed} trace={trace}: "
          f"{result['failed']}/{result['attempted']} results failed")
    return result


def _check_perturbation():
    samples = datagen.generate(dataclasses.replace(datagen.load_scenario("smooth"), M=2000))
    res = workloads.analyze_joint(samples, 8, "chebyshev", serialize=True)
    good = res.outputs()
    assert workloads.identity_failures(good) == [], workloads.identity_failures(good)
    V = good.V.copy()
    V[0, 0] += 1e-6 * good.total
    tally = measure.Tally()
    tally.add(workloads.identity_failures(good))
    tally.add(workloads.identity_failures(dataclasses.replace(good, V=V)))
    assert (tally.attempted, tally.failed) == (2, 1), (tally.attempted, tally.failed)

    cli = workloads.CliCsv(seed=1, smoke=True)
    cli.ref_nodes = (good.f_nodes, good.g_nodes)
    doc = json.loads(res.text)
    assert cli.check(workloads.CliResult(0, res.text.encode(), b"", 0)) == []
    doc["joint"][1]["matrix"][0][0] += 1e-6
    bad_doc = io.dumps_json(doc).encode()
    assert cli.check(workloads.CliResult(0, bad_doc, b"", 0)), "perturbed P passed"
    assert cli.check(workloads.CliResult(2, res.text.encode(), b"", 0)), "exit 2 passed"
    assert cli.check(workloads.CliResult(0, b"{", b"", 0)), "broken JSON passed"
    print("ok  perturbed results are counted as failures")


def _check_without_sources():
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if (ROOT / "BENCHMARK.json").exists():
            shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("--workload", "bulk", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok  without sources: exit code", proc.returncode, "and no result")


def _check_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == measure.END_TO_END, declared
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == measure.PER_LAYER, declared
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    print("ok  BENCHMARK.json declares the metrics run.py prints")


def main() -> int:
    _check_benchmark_json()
    _check_perturbation()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            _check_run(workload, 1, trace)
    _check_run("bulk", 2, 0)  # a second seed prints the same metric set
    _check_without_sources()
    print("smoke: all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
