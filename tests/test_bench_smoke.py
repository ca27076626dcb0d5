"""The benchmark's entry point still runs against this checkout.

`tierbench/` calls into the runtime by name (the region calls its tracer
wraps, the guide-word methods it wraps on the `GuideCell` class, the
registry's `soda.indices()` walk in traced runs, the runtime's options), so a
one-second run of each mode keeps that surface from breaking unnoticed.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload,trace",
    [("zipf-update-skiplist", "0"), ("zipf-update-skiplist", "1"),
     # The only run whose mutator scopes race the collector's convergence
     # wait: its scan windows run on a second thread.  Traced, it is also
     # the only one whose tracked scopes the tracer's wrappers see.
     ("churn-concurrent-hashmap", "0"), ("churn-concurrent-hashmap", "1")],
    ids=["0", "1", "churn-concurrent-hashmap-0",
         "churn-concurrent-hashmap-1"])
def test_benchmark_runs_and_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tierbench" / "run.py"),
         "--workload", workload, "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    if trace == "1":
        # Zero when the mutator stops calling the methods the tracer wraps.
        metrics = last["metrics"]
        assert metrics["guideword.deref_ns"]["value"] > 0
        assert metrics["guideword.cas_calls"]["value"] > 0
