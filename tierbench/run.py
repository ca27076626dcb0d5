"""Run one benchmark workload against the tierheap in this checkout.

    python3 tierbench/run.py --workload zipf-read-hashmap --seed 1 \\
        --seconds 10 --trace 0

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
wraps the runtime's layer functions and prints the per-layer metrics, and
writes the spans under ``tierbench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    if not (SRC / "tierheap" / "__init__.py").is_file():
        print(f"error: no tierheap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import RUN_SECONDS, WORKLOADS, Run
    from tracer import Tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    tracer = Tracer() if args.trace else None
    result = Run(WORKLOADS[args.workload], args.seed, args.seconds,
                 tracer).execute()
    metrics = result["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    info = result["info"]
    if not args.trace:
        for name in ("get_p99_us", "set_p99_us"):
            print(f"{name:34s} {info[name]:>16.6g} us (not gated)")
    print(f"{'oracle_footprint_bytes':34s} "
          f"{info['oracle_footprint_bytes']:>16d} B")
    print(f"{'speed_factor':34s} {info['speed_factor']:>16.6g} "
          f"(run phase, median over segments)")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
