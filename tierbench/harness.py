"""Workloads, the timed runner and the correctness model of the benchmark.

A run follows the sequence of ``tierheap.cli.run_benchmark``: build a
``TierRuntime`` and a store, load every key in id order, advance the access
log, then alternate fixed op-count segments with collector scan windows.  It
times the load, each operation and each window separately, checks every
result against a dict model of its own, and at the end audits the runtime,
sweeps every key, and deletes every key again (the teardown).

``--seconds`` sets the run-phase length as a number of operations, at a
fixed nominal rate per workload, so a given set of arguments always does the
same work and the time metrics compare equal amounts of it.

Times are reported at a nominal host speed.  Beside every timed phase the
benchmark times a fixed pure-Python loop in thread CPU time: every 256 ops
of the run phase and of each load, and every 64 deletes of the teardown;
the samples' own wall time is taken out of the set-up and mutator times.
Times are scaled by the loop's nominal duration over the median of the
samples of their phase: each load, the teardown, and each run-phase segment
(which also scales the scan window started after it).  Only samples taken
while the collector is idle count, so a slowdown the collector causes is
not divided out.  A shared host whose CPU speed drifts by up to 1.8x for
minutes at a time then still gives steady figures.
"""
from __future__ import annotations

import gc
import math
import queue
import resource
import sys
import threading
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from tierheap import OpStream, TierRuntime, WorkloadSpec, make_store
from tierheap.guideword import HeapId
from tierheap.metrics import page_utilization
from tierheap.workload import make_key, make_value

GET, SET, DEL = 0, 1, 2
_OP_CODES = {"get": GET, "set": SET, "del": DEL}
WINDOWS = 8          # scan windows per run, as in the paper's YCSB runs
RUN_SECONDS = 10     # BENCHMARK.json's run_seconds
SETUP_REPEATS = 3    # untraced runs report the median set-up time of these
HEAPS = (HeapId.NEW, HeapId.HOT, HeapId.COLD)
CALIBRATION_NOMINAL_NS = 75_000  # the loop alone on a quiet 2-CPU VM
TIME_UNITS = {"s", "ms", "us", "ns"}
OUT_DIR = Path(__file__).resolve().parent / "out"  # traced runs' spans


@dataclass(frozen=True)
class Workload:
    name: str
    structure: str
    keys: int
    mix: tuple[float, float, float, float]  # read, update, insert, delete %
    ops_per_second: int  # nominal rate: run-phase ops per --seconds
    concurrent: bool = False
    key_size: int = 30
    value_size: int = 1024
    zipf_alpha: float = 0.99


WORKLOADS = {w.name: w for w in (
    # YCSB-C: the get path and a scan of 200k guides dominate; the mutator
    # neither allocates nor frees.
    Workload("zipf-read-hashmap", "hashmap", 100_000,
             (100.0, 0.0, 0.0, 0.0), 32_000),
    # Every update allocates, CAS-swings and frees a value slot, so regions
    # and the skip list's ordered traversal dominate and writes re-scatter
    # the layout.
    Workload("zipf-update-skiplist", "skiplist", 20_000,
             (50.0, 50.0, 0.0, 0.0), 25_000),
    # The only workload with ATC tracking, convergence waits, migration
    # aborts, registry retire and mutator/collector lock contention.
    Workload("churn-concurrent-hashmap", "hashmap", 20_000,
             (80.0, 10.0, 5.0, 5.0), 20_000, concurrent=True),
)}


class _Probe:
    __slots__ = ("value", "table", "lock")

    def __init__(self, value: int):
        self.value = value
        self.table: dict[int, tuple[int, int]] = {}
        self.lock = threading.Lock()

    def lookup(self, key: int) -> tuple[int, int]:
        with self.lock:
            entry = self.table.get(key)
            if entry is None:
                entry = self.table[key] = (key, self.value)
            return entry


class Calibrator:
    """A fixed pure-Python loop, timed in thread CPU time.

    It mixes arithmetic, bytes slicing, dict building and locked method
    calls, the kinds of work the mutator does, because a shared host slows
    these by different amounts; it calls no tierheap code.
    """

    def __init__(self):
        self._probes = [_Probe(i) for i in range(64)]
        self._blob = bytes(range(256)) * 8

    def sample(self) -> int:
        probes, blob = self._probes, self._blob
        t0 = time.thread_time_ns()
        total = 0
        for i in range(250):
            total += i * i
        for i in range(60):
            chunk = blob[i:i + 1024]
            total += len(chunk + chunk[:32]) + len({chunk[:8]: i,
                                                    chunk[8:16]: i})
        for i in range(80):
            total += probes[i & 63].lookup(i & 255)[0]
        return time.thread_time_ns() - t0


def speed_factor(samples) -> float:
    """Nominal over measured calibration time; scales measured times."""
    return CALIBRATION_NOMINAL_NS / median(samples)


def at_nominal_speed(metrics: dict, factor: float) -> dict:
    """Scale time metrics (and rates inversely) by the host speed factor."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in TIME_UNITS:
            value *= factor
        elif unit == "ops/s":
            value /= factor
        out[name] = (value, unit)
    return out


def _scaled(samples: array, factor: float) -> np.ndarray:
    return np.frombuffer(samples, dtype=np.int64) * factor


def _us(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) / 1000.0


class _CollectorThread:
    """Runs queued scan windows one at a time beside the mutator."""

    def __init__(self, fire):
        self._fire = fire
        self._queue: queue.Queue = queue.Queue()
        self.error: str | None = None
        self._thread = threading.Thread(target=self._loop,
                                        name="collector", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                if self.error is None:
                    self._fire(item)
            except Exception:  # reported by the main thread as a failed check
                self.error = traceback.format_exc()
            finally:
                self._queue.task_done()

    def trigger(self, speed: float) -> None:
        self._queue.put(speed)

    def wait_idle(self) -> None:
        self._queue.join()

    def stop(self) -> None:
        self._queue.put(None)
        self._thread.join(timeout=120)
        if self._thread.is_alive():
            raise RuntimeError("collector thread did not stop")


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: int,
                 tracer=None):
        self.w = workload
        self.tracer = tracer
        ops = seconds * workload.ops_per_second
        self.n_ops = ops - ops % WINDOWS
        read, update, insert, delete = workload.mix
        spec = WorkloadSpec(
            keys=workload.keys, key_size=workload.key_size,
            value_size=workload.value_size, zipf_alpha=workload.zipf_alpha,
            read_pct=read, update_pct=update, insert_pct=insert,
            delete_pct=delete, ops=self.n_ops, threads=1, seed=seed)
        self.codes = array("b")
        self.ids = array("q")
        for op, key_id in OpStream(spec, 0):
            self.codes.append(_OP_CODES[op])
            self.ids.append(key_id)
        self.model: dict[int, int] = {}  # key id -> value version
        self.touched: set[int] = set()   # live keys touched this segment
        self.lat = {GET: array("q"), SET: array("q"), DEL: array("q")}
        self.failed = 0
        self.failures: list[str] = []
        self.check_failures: list[str] = []
        # Run-phase times at nominal speed: the windows' wall time, and the
        # segments' wall time minus calibration.
        self.collector_s = 0.0
        self.mutator_ns = 0.0
        # Per segment: its speed factor and the get, set and delete counts
        # at its end.
        self.segments: list[tuple[float, int, int, int]] = []
        self.soda_walk = [0, 0]  # ns, guides (traced runs only)
        self.calibrator = Calibrator()

    # -- failures ------------------------------------------------------------

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def _check(self, ok: bool, what: str) -> None:
        if not ok:
            self.check_failures.append(what)

    # -- phases --------------------------------------------------------------

    def _setup(self):
        """Runtime + store construction and the load.

        Returns its seconds, the runtime, the store, the per-set latencies
        and the speed factor of the calibration samples taken during it,
        whose own time is not counted.
        """
        w = self.w
        perf = time.perf_counter_ns
        sample = self.calibrator.sample
        calibration = array("q")
        calibrating_ns = 0
        started = time.perf_counter()
        runtime = TierRuntime()
        store = make_store(runtime, w.structure)
        if self.tracer is not None:
            self.tracer.install(runtime, store)
        put = store.set
        lat = array("q")
        for key_id in range(w.keys):
            if not key_id & 255:
                t0 = perf()
                calibration.append(sample())
                calibrating_ns += perf() - t0
            key = make_key(key_id, w.key_size)
            value = make_value(key_id, 0, w.value_size)
            t0 = perf()
            put(key, value)
            lat.append(perf() - t0)
        runtime.access_log.advance()  # measurement starts after the load
        elapsed = time.perf_counter() - started - calibrating_ns / 1e9
        return elapsed, runtime, store, lat, speed_factor(calibration)

    def _fire_window(self, speed: float) -> None:
        collector = self.runtime.collector
        if self.tracer is not None:
            perf = time.perf_counter_ns
            t0 = perf()
            walked = sum(1 for _ in self.runtime.registry.soda.indices())
            self.soda_walk[0] += perf() - t0
            self.soda_walk[1] += walked
        t0 = time.perf_counter()
        collector.run_scan_window()
        self.collector_s += (time.perf_counter() - t0) * speed

    def _end_segment(self, wall_ns: int, speed: float) -> None:
        self.mutator_ns += wall_ns * speed
        self.segments.append((speed, *(len(self.lat[c])
                                       for c in (GET, SET, DEL))))

    def _run_latencies(self, code: int) -> np.ndarray:
        """One op type's run-phase latencies, each at its segment's speed."""
        lat = np.frombuffer(self.lat[code], dtype=np.int64).astype(float)
        start = 0
        for speed, *ends in self.segments:
            lat[start:ends[code]] *= speed
            start = ends[code]
        return lat

    def _segment(self, lo: int, hi: int, calibration: array) -> int:
        """Run ops lo..hi; returns their wall time minus the calibration's."""
        w = self.w
        ks, vs = w.key_size, w.value_size
        store = self.store
        get, put, delete = store.get, store.set, store.delete
        codes, ids, model, touched = self.codes, self.ids, self.model, \
            self.touched
        lat_get, lat_set, lat_del = self.lat[GET], self.lat[SET], \
            self.lat[DEL]
        sample = self.calibrator.sample
        perf = time.perf_counter_ns
        calibrating_ns = 0
        started = perf()
        for i in range(lo, hi):
            if not i & 255:
                t0 = perf()
                calibration.append(sample())
                calibrating_ns += perf() - t0
            key_id = ids[i]
            code = codes[i]
            key = make_key(key_id, ks)
            try:
                if code == GET:
                    t0 = perf()
                    got = get(key)
                    lat_get.append(perf() - t0)
                    version = model.get(key_id)
                    if version is None:
                        ok = got is None
                    else:
                        ok = got == make_value(key_id, version, vs)
                        touched.add(key_id)
                elif code == SET:
                    version = i + 1
                    value = make_value(key_id, version, vs)
                    t0 = perf()
                    put(key, value)
                    lat_set.append(perf() - t0)
                    model[key_id] = version
                    touched.add(key_id)
                    ok = True
                else:
                    t0 = perf()
                    got = delete(key)
                    lat_del.append(perf() - t0)
                    ok = got is (model.pop(key_id, None) is not None)
                    touched.discard(key_id)
            except Exception:
                self._fail(f"op {i} ({code}, key {key_id}):\n"
                           + traceback.format_exc())
                continue
            if not ok:
                self._fail(f"op {i} ({code}, key {key_id}): result differs "
                           f"from the model")
        return perf() - started - calibrating_ns

    def _run_phase(self) -> int:
        """Segments and windows; returns the access window of the last one."""
        per = self.n_ops // WINDOWS
        log = self.runtime.access_log
        if not self.w.concurrent:
            for k in range(WINDOWS):
                self.touched.clear()
                samples = array("q")
                wall = self._segment(k * per, (k + 1) * per, samples)
                speed = speed_factor(samples)
                self._end_segment(wall, speed)
                last_window = log.window
                self._fire_window(speed)
            return last_window
        # Window k starts on a second thread halfway through segment k+1,
        # and the mutator waits for it at the segment's end, so every window
        # meets the same ops whatever the speed; the wait is not mutator
        # time.  A segment's speed factor comes from the samples taken while
        # the collector is idle: its first half, or all of the first and the
        # last segment.  Window W-1 runs before the last segment: the access
        # window that the last scan closes holds exactly that segment's ops.
        collector = _CollectorThread(self._fire_window)
        try:
            for k in range(WINDOWS):
                lo, hi = k * per, (k + 1) * per
                self.touched.clear()
                samples = array("q")
                if 0 < k < WINDOWS - 1:
                    mid = lo + per // 2
                    wall = self._segment(lo, mid, samples)
                    speed = speed_factor(samples)
                    collector.trigger(speed)
                    wall += self._segment(mid, hi, array("q"))
                else:
                    if k:
                        collector.trigger(speed)
                        collector.wait_idle()
                    wall = self._segment(lo, hi, samples)
                    speed = speed_factor(samples)
                self._end_segment(wall, speed)
                collector.wait_idle()
            last_window = log.window
            collector.trigger(speed)
            collector.wait_idle()
        finally:
            collector.stop()
        if collector.error is not None:
            self._check(False, "collector thread raised:\n" + collector.error)
        return last_window

    def _end_checks(self, last_window: int) -> dict:
        """Layout figures of the last window and the end-of-run checks."""
        w, runtime, store, model = self.w, self.runtime, self.store, \
            self.model
        page_size = runtime.regions.page_size
        util = page_utilization(runtime.access_log.entries(last_window),
                                page_size)
        touched_pages = len(util.per_page)
        object_bytes = w.key_size + w.value_size
        oracle_pages = math.ceil(len(self.touched) * object_bytes / page_size)
        self._check(touched_pages >= oracle_pages,
                    f"last window touched {touched_pages} pages, fewer than "
                    f"the {oracle_pages} its objects fill when packed")
        live = sum(runtime.regions.region(h).live_bytes for h in HEAPS)
        self._check(live == len(model) * object_bytes,
                    f"live bytes {live} != model {len(model) * object_bytes}")
        cold_bytes = runtime.regions.region(HeapId.COLD).live_bytes
        try:
            runtime.audit()
        except Exception:
            self._check(False, "audit failed:\n" + traceback.format_exc())
        self._check(len(store) == len(model),
                    f"store holds {len(store)} keys, model {len(model)}")
        # The sweep also reads keys the run deleted: they must be absent.
        swept = set(model) | {int(k) for k in self.ids}
        mismatched = 0
        for key_id in sorted(swept):
            got = store.get(make_key(key_id, w.key_size))
            version = model.get(key_id)
            want = None if version is None else \
                make_value(key_id, version, w.value_size)
            mismatched += got != want
        self._check(mismatched == 0, f"sweep: {mismatched} keys differ")
        return {"touched_pages": touched_pages, "oracle_pages": oracle_pages,
                "utilization": util.aggregate, "cold_bytes": cold_bytes}

    def _teardown(self) -> tuple[array, float]:
        """Delete every live key; returns the latencies and speed factor."""
        w, runtime, store = self.w, self.runtime, self.store
        perf = time.perf_counter_ns
        delete = store.delete
        lat = array("q")
        calibration = array("q")
        refused = 0
        for n, key_id in enumerate(sorted(self.model)):
            if not n & 63:
                calibration.append(self.calibrator.sample())
            key = make_key(key_id, w.key_size)
            t0 = perf()
            gone = delete(key)
            lat.append(perf() - t0)
            refused += gone is not True
        self._check(refused == 0, f"teardown: {refused} deletes refused")
        self.model.clear()
        live = sum(runtime.regions.region(h).live_bytes for h in HEAPS)
        self._check(len(store) == 0 and live == 0,
                    f"after teardown: {len(store)} keys, {live} live bytes")
        try:
            runtime.audit()
        except Exception:
            self._check(False, "audit after teardown failed:\n"
                        + traceback.format_exc())
        return lat, speed_factor(calibration)

    # -- the whole run -------------------------------------------------------

    def execute(self) -> dict:
        tracer = self.tracer
        setups, load_ns = [], []
        for _ in range(1 if tracer is not None else SETUP_REPEATS):
            self.runtime = self.store = None
            gc.collect()
            elapsed, self.runtime, self.store, load_lat, load_speed = \
                self._setup()
            setups.append(elapsed * load_speed)
            load_ns.append(_scaled(load_lat, load_speed))
        self.model = dict.fromkeys(range(self.w.keys), 0)
        if tracer is not None:
            main = tracer.buffer()
            run_spans = [len(main.names)]
        last_window = self._run_phase()
        if tracer is not None:
            run_spans.append(len(main.names))
            tracer.uninstall()  # the checks below are not traced
        layout = self._end_checks(last_window)
        if tracer is not None:
            tracer.install(self.runtime, self.store)
        teardown_lat, teardown_speed = self._teardown()
        if tracer is not None:
            tracer.uninstall()
        reports = list(self.runtime.collector.reports)
        self._check(len(reports) == WINDOWS,
                    f"{len(reports)} scan windows ran, expected {WINDOWS}")

        lat = self.lat
        speed = median(segment[0] for segment in self.segments)
        # A workload whose mix lacks sets or deletes reports those types
        # over its load (inserts) and its teardown, so every workload
        # prints every metric.
        get_ns = self._run_latencies(GET)
        # The first load in a process also pays for fresh memory; the set
        # latencies of a workload without run-phase sets come from the rest.
        set_ns = self._run_latencies(SET) if len(lat[SET]) \
            else np.concatenate(load_ns[1:] or load_ns)
        del_ns = self._run_latencies(DEL) if len(lat[DEL]) \
            else _scaled(teardown_lat, teardown_speed)
        page_size = self.runtime.regions.page_size
        metrics = {
            "setup_s": (median(setups), "s"),
            "mutator_ops_s": (self.n_ops / (self.mutator_ns / 1e9), "ops/s"),
            "get_p50_us": (_us(get_ns, 50), "us"),
            "set_p50_us": (_us(set_ns, 50), "us"),
            "del_p50_us": (_us(del_ns, 50), "us"),
            "collector_s": (self.collector_s, "s"),
            "hot_footprint_bytes": (layout["touched_pages"] * page_size, "B"),
            "cold_bytes": (layout["cold_bytes"], "B"),
            "peak_rss_bytes": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024, "B"),
        }
        # The p99s are printed but not gated: their quartile spread across
        # seeds reached 25 %, the widest bound the benchmark format allows.
        info = {"oracle_footprint_bytes": layout["oracle_pages"] * page_size,
                "get_p99_us": _us(get_ns, 99), "set_p99_us": _us(set_ns, 99),
                "reports": reports}
        if tracer is not None:
            metrics = at_nominal_speed(
                self._layer_metrics(main, run_spans, reports,
                                    layout["utilization"]), speed)
            metrics["trace.mutator_ops_s"] = (
                self.n_ops / (self.mutator_ns / 1e9), "ops/s")
        for text in self.failures + self.check_failures:
            print(text, file=sys.stderr)
        info["speed_factor"] = speed
        return {"correct": not self.check_failures and not self.failed,
                "attempted": self.n_ops, "failed": self.failed,
                "metrics": metrics, "info": info}

    def _layer_metrics(self, main, run_spans, reports, utilization) -> dict:
        """Per-layer figures of a traced run.

        Per-call timings are medians over every recorded call (load, run
        phase and teardown); calls per op count the run phase only.
        """
        tracer = self.tracer
        spans = tracer.spans()
        names = spans["name"]
        ids = {n: i for i, n in enumerate(tracer.names)}

        def pick(name, field="duration"):
            return spans[field][names == ids[name]]

        def ns(name, q=50, field="duration"):
            values = pick(name, field)
            return (float(np.percentile(values, q)) if len(values) else 0.0,
                    "ns")

        lo, hi = run_spans
        in_run = np.bincount(np.frombuffer(main.names, dtype=np.uint16)[lo:hi],
                             minlength=len(tracer.names))

        def per_op(name):
            return (float(in_run[ids[name]]) / self.n_ops, "1/op")

        moved = sum(r.promoted_to_hot + r.new_to_hot + r.demoted_to_cold
                    for r in reports)
        aborted = sum(r.aborted_migrations for r in reports)
        skipped = sum(r.skipped_migrations for r in reports)
        attempted = moved + aborted + skipped
        scanned = sum(r.scanned_guides for r in reports)
        walk_ns, walked = self.soda_walk
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"{self.w.name}-spans.npz", spans)
        with open(OUT_DIR / f"{self.w.name}-windows.jsonl", "w") as fh:
            for report in reports:
                fh.write(report.to_json() + "\n")
        return {
            "store.get_self_ns": ns("store.get", field="self"),
            "store.set_self_ns": ns("store.set", field="self"),
            "scope.enter_ns": ns("scope.enter"),
            "scope.exit_ns": ns("scope.exit"),
            "scope.record_use_ns": ns("scope.record_use"),
            "scope.record_use_calls": per_op("scope.record_use"),
            "scope.atc_increments": (
                len(pick("guideword.atc_increment")), "count"),
            "guideword.deref_ns": ns("guideword.deref"),
            "guideword.cas_ns": ns("guideword.cas"),
            "guideword.cas_calls": per_op("guideword.cas"),
            "guideword.cas_failures": (tracer.cas_failures, "count"),
            "regions.read_ns": ns("regions.read"),
            "regions.write_ns": ns("regions.write"),
            "regions.allocate_ns": ns("regions.allocate"),
            "regions.allocate_p99_ns": ns("regions.allocate", 99),
            "regions.free_ns": ns("regions.free"),
            "regions.free_p99_ns": ns("regions.free", 99),
            "metrics.access_log_record_ns": ns("metrics.access_log_record"),
            "metrics.access_log_records": per_op("metrics.access_log_record"),
            "runtime.registry_create_ns": ns("runtime.registry_create"),
            "runtime.registry_retire_ns": ns("runtime.registry_retire"),
            "soda.walk_ns_per_guide": (walk_ns / walked, "ns"),
            # A window's self time is the scan: the window minus migration,
            # convergence wait, graveyard reclaim and hints.
            "collector.scan_ns_per_guide": (
                float(pick("collector.window", "self").sum()) / scanned, "ns"),
            "collector.migrate_us": (
                ns("collector.migrate")[0] / 1000.0, "us"),
            "collector.bytes_moved": (tracer.bytes_moved, "B"),
            "collector.moved": (moved, "count"),
            "collector.aborted": (aborted, "count"),
            "collector.skipped": (skipped, "count"),
            "collector.migrate_useful_ratio": (
                moved / attempted if attempted else 0.0, "ratio"),
            "collector.convergence_wait_ms": (
                float(pick("collector.convergence").sum()) / 1e6, "ms"),
            "collector.touched_pages": (
                reports[-1].working_set_pages, "count"),
            "collector.utilization": (utilization, "ratio"),
            "collector.new_to_hot": (
                sum(r.new_to_hot for r in reports), "count"),
            "collector.demoted": (
                sum(r.demoted_to_cold for r in reports), "count"),
            "collector.pr_per_min": (reports[-1].pr_actual, "1/min"),
        }
