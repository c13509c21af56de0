"""lebquad benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one process):

  bulk     in-memory spikes laws, M = 1e6, Chebyshev n = 32: analyze,
           projection, the four correlation kinds with rho = |1><1|,
           pureness. BLAS on every usable CPU, as users get it.
  sweep    the four shipped scenarios (M = 1e4, seeds offset by --seed) x
           {chebyshev, legendre} at n = 64, each also serialized to JSON.
           One BLAS thread. Eight results per operation. Not listed in
           BENCHMARK.json: both clustered results fail the probability
           sum rules at n = 64 (a known defect, reported as 2/8 failed),
           and listed workloads must have no failing operation.
  cli-csv  a fresh `python -m lebquad.cli joint` process on a 100 000-row
           CSV of spikes laws written during set-up, n = 8, JSON output.
           One BLAS thread. A small launcher forks the CLI process, so that
           its peak RSS is its own; its start (~13 ms on a 2-vCPU Xeon VM)
           is part of the op.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced operations and prints per-layer metrics.
The timed loop runs in chunks between the set-ups (setup_s is their median)
and the untimed passes, so its operations sample the host over the whole
run. peak_rss_mb is the CLI process's peak on cli-csv and the benchmark
process's own peak on the in-process workloads.
Every result is checked against the paper's identities; the last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
The BLAS thread count is pinned before numpy is imported, because default
threading turns small solves into scheduler-bound outliers.

`python3 perfbench/smoke.py` runs every workload at reduced size and checks
the output contract.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS threads per workload; None means every CPU this process may use.
THREADS = {"bulk": None, "sweep": 1, "cli-csv": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for perfbench/smoke.py")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lebquad" / "__init__.py").is_file():
        print(f"error: no lebquad sources under {src}", file=sys.stderr)
        return 2
    threads = THREADS[args.workload] or len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))

    import measure  # imports numpy, so only after the pinning above

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.smoke, threads, str(ROOT))


if __name__ == "__main__":
    sys.exit(main())
