"""Benchmark driver: load a store, run a workload or trace, emit reports.

A run has two phases.  The load phase populates the store with every key in
allocation order; the run phase executes the configured operation mix (or
replays a trace) while the collector fires one scan window per interval —
explicitly in logical-clock mode, on a timer in realtime mode.  Reports:
a JSON-lines stream of per-window collector output, a summary JSON, a page
utilization CDF CSV, and the hint-event log.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import sys
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

from .collector import CT_MAX, CT_MIN
from .guideword import ACCESSED_BIT, DEREF_BITS, LOCATOR_MASK, HeapId, pack
from .metrics import page_utilization, write_cdf_csv
from .regions import SIZE_CLASSES, write_hint_log
from .runtime import TierRuntime
from .store import make_store
from .workload import (OpStream, TraceParseError, WorkloadSpec, make_key,
                       make_value, read_trace, replay_trace)

SUMMARY_FIELDS = (
    "aggregateUtilizationBefore", "aggregateUtilizationAfter",
    "utilizationImprovement", "coldBytesFraction", "residentBytesFinal",
    "prSeries", "ctSeries", "migrationCounts", "derefOverheadNs",
    "throughputOpsPerSec",
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    keys: int = 100_000
    key_size: int = 30
    value_size: int = 1024
    zipf_alpha: float = 0.99
    read_pct: float = 100.0
    update_pct: float = 0.0
    insert_pct: float = 0.0
    delete_pct: float = 0.0
    ops: int = 1_000_000
    threads: int = 1
    windows: int = 8
    scan_interval: float = 120.0
    pr_target: float = 0.01
    ct_init: int = 3
    hinted: bool = False
    trace: str | None = None
    report: str | None = None
    clock: str = "logical"
    seed: int = 42
    baseline: bool = False
    structure: str = "hashmap"

    def validate(self) -> None:
        if self.clock not in ("logical", "realtime"):
            raise ConfigError(f"unknown clock mode {self.clock!r}")
        if self.structure not in ("hashmap", "skiplist"):
            raise ConfigError(f"unknown structure {self.structure!r}")
        if self.windows <= 0 or self.threads <= 0:
            raise ConfigError("windows and threads must be positive")
        if not 0 < self.scan_interval < math.inf:
            raise ConfigError("scan interval must be positive and finite")
        if not 0 <= self.pr_target < math.inf:
            raise ConfigError("pr-target must be non-negative and finite")
        if not CT_MIN <= self.ct_init <= CT_MAX:
            raise ConfigError(f"ct-init must lie in [{CT_MIN}, {CT_MAX}]")
        largest = SIZE_CLASSES[-1]
        if not (1 <= self.key_size <= largest
                and 1 <= self.value_size <= largest):
            raise ConfigError(
                f"key and value sizes must lie in [1, {largest}] bytes")
        self.workload_spec()  # validates sizes and percentages

    def workload_spec(self) -> WorkloadSpec:
        try:
            return WorkloadSpec(
                keys=self.keys, key_size=self.key_size,
                value_size=self.value_size, zipf_alpha=self.zipf_alpha,
                read_pct=self.read_pct, update_pct=self.update_pct,
                insert_pct=self.insert_pct, delete_pct=self.delete_pct,
                ops=self.ops, threads=self.threads, seed=self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class BenchmarkResult:
    summary: dict
    runtime: TierRuntime
    store: object
    reports: list = field(default_factory=list)
    access_windows: list[int] = field(default_factory=list)
    replay_counts: dict | None = None


def measure_deref_ns(samples: int = 64, batch: int = 2000) -> float:
    """Median cost of the stores' inline dereference, in nanoseconds.

    Times the word load and plain-load test that `tierheap.store` runs on
    each guide, net of the same loop left empty.
    """
    words = array("Q", [pack(0x1000, heap=HeapId.HOT, accessed=True)])
    guide = 0
    perf = time.perf_counter_ns
    medians = []
    for _ in range(samples):
        t0 = perf()
        for _ in range(batch):
            pass
        t1 = perf()
        for _ in range(batch):
            word = words[guide]
            if word & DEREF_BITS == ACCESSED_BIT:
                locator = word & LOCATOR_MASK  # noqa: F841 - the store's use
        medians.append((perf() - 2 * t1 + t0) / batch)
    return statistics.median(medians)


def _apply_op(store, op: str, key_id: int, spec: WorkloadSpec,
              version: int) -> None:
    key = make_key(key_id, spec.key_size)
    if op == "get":
        store.get(key)
    elif op == "set":
        store.set(key, make_value(key_id, version, spec.value_size))
    else:
        store.delete(key)


def _drain(stream_iter, count, store, spec: WorkloadSpec) -> int:
    executed = 0
    for op, key_id in itertools.islice(stream_iter, count):
        _apply_op(store, op, key_id, spec, executed)
        executed += 1
    return executed


class _Workers:
    """One thread per op stream, each draining `count` ops into the store.

    A worker's exception is kept and re-raised by join(), after every
    worker has finished, so a fault in any thread fails the run.
    """

    def __init__(self, streams, count: int, store, spec: WorkloadSpec):
        self.tally = [0] * len(streams)
        self.errors: list[Exception] = []
        self._threads = [
            threading.Thread(target=self._body,
                             args=(i, stream, count, store, spec))
            for i, stream in enumerate(streams)]
        for thread in self._threads:
            thread.start()

    def _body(self, i, stream, count, store, spec) -> None:
        try:
            self.tally[i] = _drain(stream, count, store, spec)
        except Exception as exc:
            self.errors.append(exc)

    def join(self) -> int:
        """Wait for every worker; returns the ops they executed."""
        for thread in self._threads:
            thread.join()
        if self.errors:
            raise self.errors[0]
        return sum(self.tally)


def run_benchmark(config: RunConfig) -> BenchmarkResult:
    config.validate()
    spec = config.workload_spec()
    runtime = TierRuntime(
        scan_interval_s=config.scan_interval,
        pr_target=config.pr_target,
        ct_init=config.ct_init,
        hinted=config.hinted,
        track_access_log=not config.baseline,
    )
    store = make_store(runtime, config.structure, baseline=config.baseline)

    # Load phase: every key in id order, so popularity rank (a seeded
    # permutation of ids) is decorrelated from address-space placement.
    for key_id in range(spec.keys):
        store.set(make_key(key_id, spec.key_size),
                  make_value(key_id, 0, spec.value_size))
    if runtime.access_log is not None:
        runtime.access_log.advance()  # measurement starts after the load

    collector = runtime.collector
    access_windows: list[int] = []
    replay_counts = None

    def fire_window() -> None:
        if runtime.access_log is not None:
            access_windows.append(runtime.access_log.window)
        collector.run_scan_window()

    run_started = time.perf_counter()
    executed = 0
    if config.trace is not None:
        records = read_trace(config.trace)
        window_ms = max(1, int(config.scan_interval * 1000))
        replay_counts = replay_trace(
            records, store, window_ms=window_ms,
            on_window=lambda _k: fire_window(),
            value_size=spec.value_size)
        executed = sum(replay_counts.values())
    elif config.clock == "logical":
        streams = [iter(OpStream(spec, worker))
                   for worker in range(spec.threads)]
        per_window = (spec.ops // spec.threads) // config.windows
        for _ in range(config.windows):
            if spec.threads == 1:
                executed += _drain(streams[0], per_window, store, spec)
            else:
                executed += _Workers(streams, per_window, store,
                                     spec).join()
            fire_window()
    else:  # realtime: workers free-run, windows fire on a timer
        streams = [iter(OpStream(spec, worker))
                   for worker in range(spec.threads)]
        workers = _Workers(streams, spec.ops // spec.threads, store, spec)
        for _ in range(config.windows):
            time.sleep(config.scan_interval)
            fire_window()
        executed = workers.join()
    elapsed = time.perf_counter() - run_started

    summary = _build_summary(config, runtime, access_windows,
                             executed, elapsed)
    result = BenchmarkResult(summary, runtime, store,
                             reports=list(collector.reports),
                             access_windows=access_windows,
                             replay_counts=replay_counts)
    if config.report is not None:
        _write_reports(config, result)
    return result


def layout_digest(config: RunConfig) -> str:
    """sha256 of the layout a logical-clock run of `config` leaves: its
    `windows.jsonl`, `utilization_cdf.csv` and `hints.log`, every
    `access_log.entries()` row and the final word arena, and no timing."""
    import hashlib  # loading OpenSSL costs every importer about 3.5 MB RSS

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        result = run_benchmark(replace(config, clock="logical", report=out))
        for name in ("windows.jsonl", "utilization_cdf.csv", "hints.log"):
            digest.update(Path(out, name).read_bytes())
    runtime = result.runtime
    if runtime.access_log is not None:
        for row in runtime.access_log.entries():
            digest.update(b"%d %d %d\n" % (row.window, row.page,
                                           row.line_mask))
    digest.update(runtime.registry.words.tobytes())
    return digest.hexdigest()


def _utilization_for(runtime: TierRuntime, access_window: int):
    return page_utilization(runtime.access_log.entries(access_window))


def _build_summary(config: RunConfig, runtime: TierRuntime,
                   access_windows: list[int], executed: int,
                   elapsed: float) -> dict:
    controller = runtime.collector.controller
    reports = runtime.collector.reports
    migration_counts = {
        "promotedToHot": sum(r.promoted_to_hot for r in reports),
        "demotedToCold": sum(r.demoted_to_cold for r in reports),
        "newToHot": sum(r.new_to_hot for r in reports),
        "aborted": sum(r.aborted_migrations for r in reports),
        "skipped": sum(r.skipped_migrations for r in reports),
    }

    before = after = 0.0
    after_report = None
    if runtime.access_log is not None and access_windows:
        before = _utilization_for(runtime, access_windows[0]).aggregate
        # "After" is the first window with PR below target whose access log
        # was recorded after some demotion.  Access window i is recorded
        # before scan window i demotes, so only earlier windows' demotions
        # count; a below-target PR before any demotion is vacuous (nothing
        # is COLD yet).  When the signal never settles below target the
        # last window stands in for it.
        pick = len(access_windows) - 1
        demoted = 0
        for i, report in enumerate(reports[:len(access_windows)]):
            if demoted and report.pr_actual < controller.pr_target:
                pick = i
                break
            demoted += report.demoted_to_cold
        after_report = _utilization_for(runtime, access_windows[pick])
        after = after_report.aggregate

    live = {heap: runtime.regions.region(heap).live_bytes
            for heap in (HeapId.NEW, HeapId.HOT, HeapId.COLD)}
    total_live = sum(live.values())
    resident = sum(runtime.regions.region(h).resident_bytes()
                   for h in (HeapId.NEW, HeapId.HOT, HeapId.COLD))

    summary = {
        "aggregateUtilizationBefore": before,
        "aggregateUtilizationAfter": after,
        "utilizationImprovement": (after / before) if before > 0 else 0.0,
        "coldBytesFraction":
            (live[HeapId.COLD] / total_live) if total_live else 0.0,
        "residentBytesFinal": resident,
        "prSeries": [r.pr_actual for r in reports],
        "ctSeries": [r.cold_threshold_after for r in reports],
        "migrationCounts": migration_counts,
        "derefOverheadNs": measure_deref_ns(),
        "throughputOpsPerSec": (executed / elapsed) if elapsed > 0 else 0.0,
    }
    summary["_afterUtilizationReport"] = after_report  # internal, not dumped
    return summary


def _write_reports(config: RunConfig, result: BenchmarkResult) -> None:
    out = Path(config.report)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "windows.jsonl", "w") as fh:
        for report in result.reports:
            fh.write(report.to_json() + "\n")
    dumpable = {k: v for k, v in result.summary.items()
                if not k.startswith("_")}
    with open(out / "summary.json", "w") as fh:
        json.dump(dumpable, fh, indent=2, sort_keys=True)
        fh.write("\n")
    after_report = result.summary.get("_afterUtilizationReport")
    if after_report is not None:
        write_cdf_csv(after_report, out / "utilization_cdf.csv")
    else:
        write_cdf_csv(page_utilization([]), out / "utilization_cdf.csv")
    write_hint_log(result.runtime.collector.hint_events, out / "hints.log")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tierheap",
        description="Memory-tiering KV benchmark: guide-managed store, "
                    "NEW/HOT/COLD heaps, adaptive collector.")
    add = parser.add_argument
    add("--keys", type=int, default=100_000)
    add("--key-size", type=int, default=30)
    add("--value-size", type=int, default=1024)
    add("--zipf-alpha", type=float, default=0.99)
    add("--read-pct", type=float, default=100.0)
    add("--update-pct", type=float, default=0.0)
    add("--insert-pct", type=float, default=0.0)
    add("--delete-pct", type=float, default=0.0)
    add("--ops", type=int, default=1_000_000)
    add("--threads", type=int, default=1)
    add("--windows", type=int, default=8)
    add("--scan-interval", type=float, default=120.0)
    add("--pr-target", type=float, default=0.01)
    add("--ct-init", type=int, default=3)
    add("--hinted", action="store_true")
    add("--trace", type=str, default=None)
    add("--report", type=str, default=None)
    add("--clock", choices=("logical", "realtime"), default="logical")
    add("--seed", type=int, default=42)
    add("--baseline", action="store_true")
    add("--structure", choices=("hashmap", "skiplist"), default="hashmap")
    add("--digest", action="store_true",
        help="print the layout digest of a logical-clock run of these "
             "arguments (see layout_digest) instead of its summary")
    return parser


def _parse(argv) -> tuple[RunConfig, bool]:
    args = vars(build_parser().parse_args(argv))
    digest = args.pop("digest")
    return RunConfig(**args), digest


def config_from_args(argv=None) -> RunConfig:
    return _parse(argv)[0]


def main(argv=None) -> int:
    try:
        config, digest = _parse(argv)
        config.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if digest:
            print(layout_digest(config))
            return 0
        result = run_benchmark(config)
    except (ConfigError, TraceParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime fault
        print(f"fatal: {exc}", file=sys.stderr)
        return 1
    dumpable = {k: v for k, v in result.summary.items()
                if not k.startswith("_")}
    print(json.dumps(dumpable, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
