"""Mutator ops/s of the untiered baseline store on each workload's op mix.

    python3 tierbench/baseline.py --seed 1

Runs the same pre-generated operations as ``run.py`` (at the benchmark's
run length) against ``make_store(..., baseline=True)``, the store without
guides, regions or a collector, and checks every result against the same
model.  Its ops/s is taken like ``mutator_ops_s`` and is the base of the
tiered store's throughput ratio (acceptance criterion 7).
Times are scaled to the nominal host speed like every other time here.
"""
from __future__ import annotations

import argparse
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from harness import RUN_SECONDS, WORKLOADS, Run, speed_factor
    from tierheap import TierRuntime, make_store
    from tierheap.workload import make_key, make_value

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS.values():
        run = Run(workload, args.seed, RUN_SECONDS)
        run.runtime = TierRuntime(track_access_log=False)
        run.store = make_store(run.runtime, workload.structure,
                               baseline=True)
        for key_id in range(workload.keys):
            run.store.set(make_key(key_id, workload.key_size),
                          make_value(key_id, 0, workload.value_size))
        run.model = dict.fromkeys(range(workload.keys), 0)
        samples = array("q")
        run_ns = run._segment(0, run.n_ops, samples)
        ops_s = run.n_ops / (run_ns * speed_factor(samples) / 1e9)
        print(f"{workload.name:26s} baseline {ops_s:12.1f} ops/s  "
              f"failed {run.failed}/{run.n_ops}")
        for text in run.failures:
            print(text, file=sys.stderr)
        status |= run.failed > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
