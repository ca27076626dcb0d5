"""Run workloads several times, one seed each, and summarise every metric.

    python3 tierbench/repeat.py --workload all --runs 10 --first-seed 1

Runs ``run.py`` untraced, at the benchmark's run length, once per seed
(``first-seed``, ``first-seed + 1``, ...), one run at a time, and prints
for each metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median.  The bounds in
``BENCHMARK.json`` are set from these spreads.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(workload: str, results: list[dict]) -> None:
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"== {workload}: {len(results)} runs, failed share "
          f"{sorted(shares)}, all correct "
          f"{all(r['correct'] for r in results)}")
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s}  unit")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) \
            if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.2%}  {first['unit']}")


def main(argv=None) -> int:
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from harness import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *sorted(WORKLOADS)])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in names:
        results = []
        for i in range(args.runs):
            results.append(run_once(workload, args.first_seed + i,
                                    RUN_SECONDS))
        summarise(workload, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
