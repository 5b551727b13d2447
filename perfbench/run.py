"""Run one workload of the benchmark and print its result as JSON.

    python3 perfbench/run.py --workload condense --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of that checkout, and scratch files go to ``.bench_work/`` there (removed
at exit).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Progress and failures go to standard error.
"""

from __future__ import annotations

import os
import sys

#: Set before numpy loads, and inherited by every process the benchmark
#: starts: single-threaded BLAS/OpenMP on a 2-vCPU host, and a fixed hash
#: seed so set and dict iteration orders repeat from run to run.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

if hasattr(os, "sched_setaffinity"):
    # Everything runs on one vCPU, children included (affinity survives
    # exec and fork).  On a 2-vCPU virtual machine, waking a thread or
    # process that sleeps on the other, idle vCPU costs a hypervisor
    # round trip whose price drifted by 2x from minute to minute; on one
    # vCPU each hop is a local context switch, and the kernel cannot
    # overlap measured work.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as error:
        print(f"running unpinned: {error}", file=sys.stderr)

if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
    # PYTHONHASHSEED only takes effect at interpreter start: start again
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
              + sys.argv[1:], {**os.environ, **PINNED_ENV})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("condense", "original-stream",
                                 "synthetic-gateway"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)  # temp files stay in the checkout
    try:
        from workloads import WORKLOADS, Run

        run = Run(args.seed, args.seconds, bool(args.trace), work)
        WORKLOADS[args.workload](run, SRC)
        result = run.result()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # left in place while another run uses it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
