"""Compare the benchmark at a git revision against the working tree, in pairs.

    python3 tools/ab_pairs.py --rev HEAD --workload churn-concurrent-hashmap \\
        --pairs 10 --first-seed 1

``--workload`` may be given more than once; without it, every workload of
``BENCHMARK.json`` runs.  Each name is checked against ``BENCHMARK.json``
before the revision is extracted.

Extracts ``--rev`` with ``git archive`` into a temporary directory, then
runs ``tierbench/run.py`` (untraced, at the benchmark's run length) there
and in the working tree, in ``--pairs`` alternating pairs per workload:
pair i runs seed ``first-seed + i`` on both sides, the revision first in
even pairs and the working tree first in odd ones.  For each metric it
prints the revision's median and quartiles
(``statistics.quantiles(values, n=4)``), the working tree's median, and in
how many pairs the working tree read better, in the direction that
``BENCHMARK.json`` gives the metric (``better``: lower or higher); then
every pair's two values.  A row ends ``claim-ok`` when the working tree
was better in at least 9 of 10 pairs and its median is further from the
revision's, in the better direction, than the revision's quartiles are
apart; and ``worse>bound`` when its median is worse than the revision's by
more than the metric's ``bound`` (a fraction of the revision's median).
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict[str, dict]:
    """Each end-to-end metric's entry in BENCHMARK.json, by name."""
    return {metric["name"]: metric for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@dataclass
class Row:
    metric: str
    unit: str
    parent: list[float]  # one value per pair, in pair order
    change: list[float]
    better: str = "lower"  # or "higher"
    bound: float | None = None  # the worst allowed relative regression

    @property
    def parent_median(self) -> float:
        return statistics.median(self.parent)

    @property
    def change_median(self) -> float:
        return statistics.median(self.change)

    @property
    def parent_quartiles(self) -> tuple[float, float]:
        if len(self.parent) < 2:
            return self.parent_median, self.parent_median
        q1, _, q3 = statistics.quantiles(self.parent, n=4)
        return q1, q3

    @property
    def wins(self) -> int:
        """Pairs in which the change read better than the parent."""
        if self.better == "higher":
            return sum(c > p for p, c in zip(self.parent, self.change))
        return sum(c < p for p, c in zip(self.parent, self.change))

    @property
    def gain(self) -> float:
        """How far the change's median is better than the parent's."""
        gap = self.parent_median - self.change_median
        return -gap if self.better == "higher" else gap

    @property
    def verdict(self) -> str:
        q1, q3 = self.parent_quartiles
        if 10 * self.wins >= 9 * len(self.parent) and self.gain > q3 - q1:
            return "claim-ok"
        if self.bound is not None \
                and -self.gain > self.bound * abs(self.parent_median):
            return "worse>bound"
        return ""

    def format(self) -> str:
        parent, change = self.parent_median, self.change_median
        q1, q3 = self.parent_quartiles
        delta = (change - parent) / parent if parent else 0.0
        return (f"{self.metric:22s} {parent:>13.6g} {change:>13.6g} "
                f"{q1:>11.6g} {q3:>11.6g} "
                f"{self.wins:>3d}/{len(self.parent):<3d} {delta:>+8.2%}  "
                f"{self.unit:6s} {self.verdict}").rstrip()

    def format_pairs(self) -> str:
        return f"{self.metric:22s} " + ", ".join(
            f"{p:.6g}->{c:.6g}" for p, c in zip(self.parent, self.change))


HEADER = (f"{'metric':22s} {'parent median':>13s} {'change median':>13s} "
          f"{'parent q1':>11s} {'parent q3':>11s} {'better':>7s} "
          f"{'change':>8s}  unit")


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of a `run.py` run's output."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarise(pairs: list[tuple[dict, dict]],
              spec: dict[str, dict] | None = None) -> list[Row]:
    """One row per metric of the first parent result, over (parent,
    change) result pairs.  `spec` (by default BENCHMARK.json's end-to-end
    metrics) gives each metric's direction and bound; a metric it does not
    name is lower-is-better, with no bound."""
    spec = load_spec() if spec is None else spec
    return [Row(name, first["unit"],
                [p["metrics"][name]["value"] for p, _ in pairs],
                [c["metrics"][name]["value"] for _, c in pairs],
                spec.get(name, {}).get("better", "lower"),
                spec.get(name, {}).get("bound"))
            for name, first in pairs[0][0]["metrics"].items()]


def run_once(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(tree / "tierbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed}: exit "
                         f"{proc.returncode}")
    return parse_result(proc.stdout)


def extract(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into)


def main(argv=None) -> int:
    known = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--workload", action="append",
                        choices=[*known, "all"],
                        help="a workload name, or all of BENCHMARK.json's "
                        "(the default); may be given more than once")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    named = args.workload or ["all"]
    workloads = known if "all" in named else list(dict.fromkeys(named))
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        parent_tree = Path(tmp)
        extract(args.rev, parent_tree)
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                trees = [parent_tree, ROOT] if i % 2 == 0 else \
                    [ROOT, parent_tree]
                results = {tree: run_once(tree, workload, seed)
                           for tree in trees}
                pairs.append((results[parent_tree], results[ROOT]))
            print(f"== {workload}: {args.pairs} pairs, seeds "
                  f"{args.first_seed}-{args.first_seed + args.pairs - 1}, "
                  f"{args.rev} vs the working tree")
            rows = summarise(pairs)
            print(HEADER)
            for row in rows:
                print(row.format())
            print("pairs, parent->change:")
            for row in rows:
                print(row.format_pairs())
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
