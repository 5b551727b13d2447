"""Steadiness check: run each workload N times and show how far it moves.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads condense --runs 5 --first-seed 11

Each run is a fresh ``perfbench/run.py`` process with its own seed.  For
every end-to-end metric the table gives the median, the quartiles, the
min/max, the quartile distance as a share of the median (``iqr``) and the
min-max range as a share of the median (``range``), next to the metric's
bound from ``BENCHMARK.json``.  A metric whose ``iqr`` exceeds a third of
its bound is flagged: bounds are set from these figures, and a metric or
workload that cannot be made steady is dropped in the open.  Every run
lasts ``run_seconds`` of ``BENCHMARK.json``, the length the bounds hold
for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path,
                        help="also write every run's result here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    everything = {}
    unsteady = 0
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr, flush=True)
        everything[workload] = results
        print(f"\n{workload} ({args.runs} runs, "
              f"{spec['run_seconds']} s each)")
        print(f"  {'metric':<32}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'min':>12}{'max':>12}{'iqr':>7}{'range':>7}{'bound':>7}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            figures = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and figures["iqr_share"] > bound / 3:
                flag = "  <- over a third of its bound"
                unsteady += 1
            print(f"  {name:<32}" + "".join(
                f"{figures[key]:>12.5g}"
                for key in ("median", "q1", "q3", "min", "max"))
                + f"{figures['iqr_share']:>7.3f}{figures['range_share']:>7.3f}"
                + (f"{bound:>7.2f}" if bound is not None else "")
                + flag)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share of attempted: {sorted(shares)}; "
              f"all correct: {all(r['correct'] for r in results)}")
    if args.json:
        args.json.write_text(json.dumps(everything, indent=1))
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
