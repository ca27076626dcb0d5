"""Print the top allocation sites of one benchmark workload before teardown.

    python3 tools/mem_sites.py --workload zipf-read-hashmap --seed 1 --top 15
    python3 tools/mem_sites.py --workload churn-concurrent-hashmap \\
        --keys 2000 --seconds 1

Runs ``tierbench/harness.py``'s ``Run`` for the workload (untraced, as
``tierbench/run.py --trace 0`` runs it) with ``tracemalloc`` on from the
start, and takes one snapshot just before the teardown deletes every key,
when the store, the regions and the run phase's state are all still live.
Prints the ``--top`` source lines holding the most traced bytes (bytes,
blocks, and the line), then the total traced at the snapshot, then how many
objects the cyclic garbage collector tracks at it (``len(gc.get_objects())``:
container objects, such as any per-key object a store keeps).  Paths under
the checkout are printed relative to it.

``--keys`` shrinks the workload's key count through ``dataclasses.replace``;
``--seconds`` shortens its run phase, as ``run.py``'s option does.  Traced
allocation makes the run several times slower than an untraced one, so its
timing metrics mean nothing here; only the byte counts do.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "tierbench"), str(ROOT / "src")]
    from harness import RUN_SECONDS, WORKLOADS, Run

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--keys", type=int, default=None,
                        help="the workload's key count (default: its own)")
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.keys is not None and args.keys < 1:
        parser.error("--keys must be at least 1")
    if args.top < 1:
        parser.error("--top must be at least 1")

    workload = WORKLOADS[args.workload]
    if args.keys is not None:
        workload = dataclasses.replace(workload, keys=args.keys)

    class SnapshotRun(Run):
        snapshot = None
        gc_tracked = None

        def _teardown(self):
            self.snapshot = tracemalloc.take_snapshot()
            self.gc_tracked = len(gc.get_objects())
            return super()._teardown()

    tracemalloc.start()
    try:
        run = SnapshotRun(workload, args.seed, args.seconds)
        result = run.execute()
    finally:
        tracemalloc.stop()
    stats = run.snapshot.statistics("lineno")
    prefix = str(ROOT) + "/"
    print(f"{'bytes':>12s} {'blocks':>9s}  site  "
          f"({workload.name}, {workload.keys} keys, seed {args.seed})")
    for stat in stats[:args.top]:
        frame = stat.traceback[0]
        path = frame.filename.removeprefix(prefix)
        print(f"{stat.size:>12d} {stat.count:>9d}  {path}:{frame.lineno}")
    print(f"{sum(s.size for s in stats):>12d} "
          f"{sum(s.count for s in stats):>9d}  total traced")
    print(f"gc-tracked objects: {run.gc_tracked}")
    if not result["correct"]:
        print("error: the run failed its correctness checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
