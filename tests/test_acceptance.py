"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints an `ACCEPTANCE n: PASS/FAIL` line directly to the terminal
(bypassing capture) and then asserts, so the verdicts are always visible in
the run log.  Criteria 1 and 7 target hardware-scale effects (packing gains
under a heavy-tailed synthetic workload, sub-20 ns dereference); they are
implemented faithfully and their measured shortfall on a pure-Python
runtime is reported honestly rather than weakened.
"""
import math
import random
import sys
import threading
import time
import zlib
from fractions import Fraction

import pytest

from tierheap.cli import RunConfig, measure_deref_ns, run_benchmark
from tierheap.collector import compute_promotion_rate
from tierheap.guideword import (ACCESSED_BIT, LOCATOR_MASK, LOCK_BIT,
                                GuideWord, HeapId, pack_fields, unpack)
from tierheap.metrics import page_utilization, simulate_reclaim
from tierheap.regions import RegionError
from tierheap.runtime import TierRuntime
from tierheap.scope import BaseDeltaSet
from tierheap.store import GuideHashMap, make_store
from tierheap.workload import synthesize_phase_shift_trace, write_trace

from conftest import add_entry
from test_metrics import brute_force_utilization, log_of
from test_races import dereference, migrate_one


RESULTS: list[str] = []  # re-emitted by conftest in the terminal summary


def announce(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {verdict} — {detail}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


# -- criteria 1 & 2: the shared desk-scale Zipfian run -----------------------

ZIPF_RUN = dict(keys=100_000, key_size=30, value_size=1024, zipf_alpha=0.99,
                read_pct=100.0, clock="logical", seed=42)


@pytest.fixture(scope="module")
def zipf_run_12_hinted():
    """Criterion 2 config: the same workload with reclaim advice enabled,
    extended so 4 windows follow the convergence point.  Windows are kept
    short relative to the key population so inactivity accumulates and the
    long tail actually tiers out."""
    return run_benchmark(RunConfig(ops=120_000, windows=12, hinted=True,
                                   **ZIPF_RUN))


def test_criterion_1_page_utilization_improvement():
    started = time.monotonic()
    result = run_benchmark(RunConfig(ops=320_000, windows=8, **ZIPF_RUN))
    elapsed = time.monotonic() - started
    summary = result.summary
    before = summary["aggregateUtilizationBefore"]
    after = summary["aggregateUtilizationAfter"]
    ratio = summary["utilizationImprovement"]
    ok = ratio >= 2.0 and before > 0 and elapsed < 120
    announce(1, ok,
             f"utilization before={before:.3f} after={after:.3f} "
             f"ratio={ratio:.2f} (need >= 2.0) in {elapsed:.0f}s")
    assert before > 0
    assert elapsed < 120
    assert ratio >= 2.0, (
        "A replay of this op stream (ROADMAP.md, state measured at the "
        "re-anchor) found 27-65% of each window's unique keys to be first "
        "touches, which land one object per page in both layouts; a "
        "layout built from earlier windows' access counts reached "
        "1.21-1.30x and only an offline oracle reached 3.67x under the "
        "touched-pages utilization definition.")


def test_criterion_2_cold_segregation_and_refault(zipf_run_12_hinted):
    result = zipf_run_12_hinted
    cold_fraction = result.summary["coldBytesFraction"]
    runtime = result.runtime
    hinted_pages = runtime.collector.hinted_cold_pages()
    # Replay the 4 windows following the last hint (or the last 4 windows
    # when advice never fired) against the advised page set.
    tail_windows = result.access_windows[-4:]
    entries = []
    for w in tail_windows:
        entries.extend(runtime.access_log.entries(w))
    reclaim = simulate_reclaim(hinted_pages, entries,
                               runtime.collector.controller.scan_interval_s)
    refault_ok = reclaim["refault_rate_per_min"] <= \
        2 * runtime.collector.controller.pr_target
    ok = cold_fraction >= 0.55 and refault_ok
    announce(2, ok,
             f"cold bytes={cold_fraction:.1%} (need >= 55%), "
             f"{len(hinted_pages)} advised pages, refault rate="
             f"{reclaim['refault_rate_per_min']:.4f}/min "
             f"(limit {2 * runtime.collector.controller.pr_target})")
    assert cold_fraction >= 0.55
    assert refault_ok


def test_criterion_3_controller_convergence(tmp_path):
    def run_once():
        records = synthesize_phase_shift_trace(
            2000, 30, hot_fraction=0.5, windows=40, shift_window=10,
            ops_per_window=8000, window_ms=120_000, value_size=1024, seed=7)
        path = tmp_path / "phase-shift.csv"
        write_trace(records, path)
        config = RunConfig(keys=2000, key_size=30, value_size=1024,
                           trace=str(path), scan_interval=120.0,
                           clock="logical", seed=7)
        return run_benchmark(config).summary

    summary = run_once()
    pr, ct = summary["prSeries"], summary["ctSeries"]
    target = 0.01
    spike_window = next((i for i in range(9, len(pr)) if pr[i] > target),
                        None)
    assert spike_window is not None, "hotset rotation produced no PR spike"
    recovery = next((i for i in range(spike_window + 1, len(pr))
                     if pr[i] < target), None)
    recovered = recovery is not None and recovery - spike_window <= 20
    steps_ok = all(abs(b - a) <= 1 for a, b in zip(ct, ct[1:]))
    clamp_ok = all(1 <= c <= 32 for c in ct)
    deterministic = run_once()["prSeries"] == pr
    ok = recovered and steps_ok and clamp_ok and deterministic
    announce(3, ok,
             f"PR spike {pr[spike_window]:.2f}/min at window "
             f"{spike_window + 1}, back under {target}/min after "
             f"{recovery - spike_window} window(s); C_t steps +-1 in "
             f"[1,32]: {steps_ok and clamp_ok}; deterministic: "
             f"{deterministic}")
    assert ok


def test_criterion_4_race_table_fidelity():
    """Each row drives the collector's chunked migration of one guide to
    HOT (`migrate_one`) and observes it through the HOT region's
    `allocate_batch`, which runs between the lock pass and the commit
    pass."""
    payload = b"race-table-object" * 3
    outcomes = {}

    def fresh():
        """One entry; each row migrates its key guide, `index`."""
        runtime = TierRuntime(region_length=1 << 22)
        index = add_entry(runtime, payload)
        loc = runtime.registry.words[index] & LOCATOR_MASK
        return runtime, runtime.registry, index, loc

    # Row: lock-set CAS succeeds from {atc=0, lock=0}.
    runtime, registry, index, loc = fresh()
    word = registry.words[index]
    _, locked, _ = migrate_one(runtime, index)
    outcomes["lock-set"] = locked == word | LOCK_BIT

    # Row: intervening dereference clears the lock; commit CAS fails and
    # the old object stays authoritative with nothing freed.
    runtime, registry, index, loc = fresh()
    counts, _, _ = migrate_one(runtime, index, dereference)
    commit = counts.moved == 1
    outcomes["deref-aborts-commit"] = (
        not commit
        and registry.words[index] & LOCATOR_MASK == loc
        and bool(registry.words[index] & ACCESSED_BIT)
        and runtime.regions.read(loc) == payload)

    # Row: no intervention — both CAS operations succeed, old slot freed.
    runtime, registry, index, loc = fresh()
    counts, _, new_loc = migrate_one(runtime, index)
    commit = counts.moved == 1
    freed = False
    if commit:
        try:
            runtime.regions.read(loc)
        except RegionError:
            freed = True
    outcomes["no-intervention-commits"] = (
        commit and freed
        and runtime.regions.read(new_loc) == payload
        and unpack(registry.words[index]).heap is HeapId.HOT)

    ok = all(outcomes.values())
    announce(4, ok, "race table rows: " + ", ".join(
        f"{name}={'ok' if good else 'VIOLATED'}"
        for name, good in outcomes.items()))
    assert ok


# -- criterion 5: safety stress ----------------------------------------------

def _checksummed(i: int) -> bytes:
    body = b"%012d" % i
    return body + zlib.crc32(body).to_bytes(4, "big")


def _valid(value: bytes) -> bool:
    return zlib.crc32(value[:-4]).to_bytes(4, "big") == value[-4:]


def test_criterion_5_safety_stress():
    total_ops = 10_000_000
    n_threads, n_keys, segments = 8, 50_000, 5
    runtime = TierRuntime(region_length=1 << 25, scan_interval_s=120.0,
                          track_access_log=False)
    store = GuideHashMap(runtime)
    keys = [b"stress-%07d" % i for i in range(n_keys)]
    for i, key in enumerate(keys):
        store.set(key, _checksummed(i))

    checksum_failures = []
    errors = []
    executed = [0] * n_threads
    scan_lock = threading.Lock()
    stop_collector = threading.Event()
    windows_run = [0]

    def collector_loop():
        while not stop_collector.is_set():
            with scan_lock:
                runtime.collector.run_scan_window()
            windows_run[0] += 1
            time.sleep(0.002)

    def mutator(worker: int, n_ops: int):
        rng = random.Random(9000 + worker)
        rnd, choice = rng.random, rng.choice
        get, set_, delete = store.get, store.set, store.delete
        done = 0
        try:
            while done < n_ops:
                key = choice(keys)
                r = rnd()
                if r < 0.80:
                    value = get(key)
                    if value is not None and not _valid(value):
                        checksum_failures.append((key, value))
                    done += 1
                elif r < 0.95:
                    set_(key, _checksummed(done))
                    done += 1
                else:
                    if delete(key):
                        set_(key, _checksummed(done))
                        done += 2
                    else:
                        done += 1
        except Exception as exc:  # double frees, protocol faults
            errors.append(repr(exc))
        executed[worker] += done

    collector = threading.Thread(target=collector_loop, daemon=True)
    collector.start()
    per_thread = total_ops // n_threads
    per_segment = per_thread // segments
    audits_ok = True
    for _ in range(segments):
        workers = [threading.Thread(target=mutator, args=(w, per_segment))
                   for w in range(n_threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        with scan_lock:  # application quiesced: conservation audit
            runtime.registry.reclaim_retired()
            runtime.audit()
            live_guides = runtime.registry.live_count
            audits_ok &= live_guides == 2 * len(store)
            audits_ok &= runtime.regions.live_slot_count() == live_guides
    stop_collector.set()
    collector.join()

    migrated = sum(r.promoted_to_hot + r.demoted_to_cold + r.new_to_hot
                   for r in runtime.collector.reports)
    ran = sum(executed)
    ok = (not checksum_failures and not errors and audits_ok
          and ran >= total_ops * 0.99 and migrated > 0
          and windows_run[0] > 0)
    announce(5, ok,
             f"{ran} ops / 8 threads, {windows_run[0]} concurrent scan "
             f"windows, {migrated} migrations, "
             f"{len(checksum_failures)} checksum failures, "
             f"{len(errors)} faults, conservation audits "
             f"{'clean' if audits_ok else 'VIOLATED'}")
    assert not checksum_failures
    assert not errors
    assert audits_ok
    assert migrated > 0


def _keyed_value(key_id: int, writer: int, seq: int) -> bytes:
    # 23 B, the size class of the 23 B keys below, so a slot that held a
    # key and is reused under a stale word would read as a value.
    body = b"%06d|%d|%09d|" % (key_id, writer, seq)
    return body + zlib.crc32(body).to_bytes(4, "big")


def _key_of_value(value: bytes):
    """The key id a value was written for, with its writer and sequence
    number, or None if it is not a whole value."""
    body = value[:-4]
    if len(value) != 23 or zlib.crc32(body).to_bytes(4, "big") != value[-4:]:
        return None
    key_id, writer, seq, _ = body.split(b"|")
    return int(key_id), int(writer), int(seq)


@pytest.mark.parametrize("structure", ["hashmap", "skiplist"])
def test_gets_return_their_own_keys_values_while_slots_are_reused(structure):
    """Beside criterion 5, whose values carry no key: two mutators and a
    collector looping scan windows, at a 10 µs switch interval, while freed
    slots are handed out again.  Every get returns a value written for its
    own key, and never one that writer wrote before a value of that key it
    already returned to the same reader."""
    n_keys, seconds, n_mutators = 2000, 1.5, 2
    runtime = TierRuntime(region_length=1 << 25, scan_interval_s=120.0,
                          track_access_log=False)
    # Count the slots handed out again: a locator a region returned before
    # came from its free slots, since the bump pointer never goes back.
    handed_out, reused = set(), [0, 0]  # installs, batch allocations

    def count_reuse(region, name, index):
        method = getattr(region, name)

        def wrapper(arg):
            got = method(arg)
            for locator in (got if index else (got,)):
                if locator is not None:
                    reused[index] += locator in handed_out
                    handed_out.add(locator)
            return got
        setattr(region, name, wrapper)

    for region in runtime.regions.heaps:
        count_reuse(region, "install", 0)
        count_reuse(region, "allocate_batch", 1)
    store = make_store(runtime, structure)
    keys = [b"wrong-key-stress-%06d" % i for i in range(n_keys)]
    for i, key in enumerate(keys):
        store.set(key, _keyed_value(i, 9, 0))

    wrong, errors, ops, windows = [], [], [0] * n_mutators, [0]
    mutators_done = threading.Event()

    def collector_loop():
        try:
            while not mutators_done.is_set():
                runtime.collector.run_scan_window()
                windows[0] += 1
        except Exception as exc:
            errors.append(repr(exc))

    def mutator(worker: int):
        rng = random.Random(31 + worker)
        seen = {}  # (key id, writer) -> the newest sequence number read
        seq, done = 0, 0
        deadline = time.monotonic() + seconds
        try:
            while time.monotonic() < deadline:
                key_id = rng.randrange(n_keys)
                key = keys[key_id]
                r = rng.random()
                if r < 0.7:
                    value = store.get(key)
                    if value is not None:
                        got = _key_of_value(value)
                        if got is None or got[0] != key_id:
                            wrong.append((key_id, value))
                        elif seen.get(got[:2], -1) > got[2]:
                            wrong.append((key_id, value, "stale"))
                        else:
                            seen[got[:2]] = got[2]
                else:
                    seq += 1
                    if r < 0.9 or store.delete(key):
                        store.set(key, _keyed_value(key_id, worker, seq))
                done += 1
        except Exception as exc:  # double frees, protocol faults
            errors.append(repr(exc))
        ops[worker] = done

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        collector = threading.Thread(target=collector_loop, daemon=True)
        workers = [threading.Thread(target=mutator, args=(w,))
                   for w in range(n_mutators)]
        collector.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
        mutators_done.set()
        collector.join(timeout=60)
    finally:
        mutators_done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in (*workers, collector))

    migrated = sum(r.promoted_to_hot + r.demoted_to_cold + r.new_to_hot
                   for r in runtime.collector.reports)
    print(f"{structure}: {sum(ops)} ops, {windows[0]} windows, {migrated} "
          f"migrations, {reused[0]} installs and {reused[1]} batch slots "
          f"took a freed slot")
    assert not errors
    assert not wrong, wrong[:5]
    runtime.registry.reclaim_retired()
    runtime.audit()
    assert len(store) == n_keys
    assert runtime.regions.live_slot_count() == 2 * n_keys
    assert windows[0] > 0 and migrated > 0
    assert reused[0] > 0


def test_criterion_6_encoding_suite():
    rng = random.Random(17)
    mismatches = 0
    for _ in range(1_000_000):
        fields = GuideWord(
            locator=rng.getrandbits(48),
            atc=rng.getrandbits(7),
            ciw=rng.getrandbits(5),
            heap=HeapId(rng.getrandbits(2)),
            accessed=bool(rng.getrandbits(1)),
            migration_lock=bool(rng.getrandbits(1)),
        )
        if unpack(pack_fields(fields)) != fields:
            mismatches += 1
    delta_ok = True
    bds, reference = BaseDeltaSet(), set()
    for _ in range(100_000):
        if rng.random() < 0.6:
            value = rng.randrange(0, 1 << 16)
        else:
            value = rng.getrandbits(48)
        delta_ok &= bds.add(value) == (value not in reference)
        reference.add(value)
    delta_ok &= set(bds) == reference and len(bds) == len(reference)
    ok = mismatches == 0 and delta_ok
    announce(6, ok,
             f"10^6 pack/unpack roundtrips: {mismatches} mismatches; "
             f"base+delta set vs reference on 10^5 inserts: "
             f"{'exact' if delta_ok else 'DIVERGED'}")
    assert ok


def test_criterion_7_overhead_bound():
    deref_ns = measure_deref_ns()
    base = dict(keys=5000, key_size=20, value_size=64, ops=120_000,
                windows=2, clock="logical", seed=3)

    def throughput_ratio(threads, baseline_first=False):
        through = {}
        for baseline in (baseline_first, not baseline_first):
            through[baseline] = run_benchmark(RunConfig(
                baseline=baseline, threads=threads,
                **base)).summary["throughputOpsPerSec"]
        through_i, through_b = through[False], through[True]
        return through_i, through_b, \
            through_i / through_b if through_b else 0.0

    # The 8-thread ratio is gated on the median of 3 pairs that alternate
    # which store runs first: on a 2-core box a single 8-thread pair spread
    # 16-53 %, and the 8-thread baseline alone fell to about 105k ops/s in
    # 3 of 8 runs, while the 1-thread ratio held at 23-26 %.  The 1-thread
    # ratio is gated too, on one pair: it tracks the per-operation cost,
    # which a collapsed 8-thread baseline can hide.
    pairs = sorted((throughput_ratio(8, baseline_first=bool(i % 2))
                    for i in range(3)), key=lambda pair: pair[2])
    through_i, through_b, ratio = pairs[1]
    one_i, one_b, one_ratio = throughput_ratio(1)
    throughput = (f"instrumented {through_i:,.0f} ops/s vs baseline "
                  f"{through_b:,.0f} ops/s = {ratio:.1%} at 8 threads, the "
                  f"median of 3 alternating pairs ("
                  + ", ".join(f"{r:.1%}" for _, _, r in pairs)
                  + f"; need >= 90%); {one_i:,.0f} vs {one_b:,.0f} ops/s = "
                  f"{one_ratio:.1%} at 1 thread")
    ok = deref_ns < 20.0 and ratio >= 0.90 and one_ratio >= 0.90
    announce(7, ok,
             f"dereference median {deref_ns:.0f} ns (need < 20 ns); "
             f"{throughput}")
    assert deref_ns < 20.0, (
        "An interpreted dereference costs ~100 ns of bytecode dispatch "
        "before any memory access; the 20 ns bound presumes a compiled "
        f"single-load fast path.  Throughput: {throughput}.")
    assert ratio >= 0.90, (
        f"{throughput}.  The 1-thread ratio is the per-operation cost of "
        "the guided path; the 8-thread ratio also carries interpreter-lock "
        "hand-offs between the worker threads.")
    assert one_ratio >= 0.90, (
        f"{throughput}.  The 1-thread ratio is the per-operation cost of "
        "the guided path against a locked dict.")


def test_criterion_8_formula_oracles():
    rng = random.Random(23)
    # Promotion rate vs exact rational recomputation.  Intervals are chosen
    # so 60/interval is a power of two and float rounding is identical.
    intervals = [7.5, 15.0, 30.0, 60.0, 120.0, 240.0]
    pr_exact = 0
    for _ in range(10_000):
        ws = rng.randrange(0, 10_000)
        cold = rng.randrange(0, ws + 1) if ws else 0
        interval = rng.choice(intervals)
        got = compute_promotion_rate(cold, ws, interval)
        want = 0.0 if ws == 0 else float(
            Fraction(cold, ws) * Fraction(60) / Fraction(interval))
        pr_exact += got == want
    # Page utilization vs per-byte brute force, 10^4 randomized accesses.
    util_exact = logs_tested = total_entries = 0
    while total_entries < 10_000:
        accesses = [(rng.randrange(0, 64 * 4096), rng.randrange(1, 512))
                    for _ in range(rng.randrange(1, 40))]
        total_entries += len(accesses)
        logs_tested += 1
        report = page_utilization(log_of(accesses))
        per_page, aggregate = brute_force_utilization(accesses)
        util_exact += (report.per_page == per_page
                       and report.aggregate == aggregate)
    ok = pr_exact == 10_000 and util_exact == logs_tested
    announce(8, ok,
             f"promotion-rate formula exact on {pr_exact}/10000 inputs; "
             f"page utilization exact on {util_exact}/{logs_tested} "
             f"randomized logs ({total_entries} entries)")
    assert pr_exact == 10_000
    assert util_exact == logs_tested
    assert math.isfinite(compute_promotion_rate(1, 3, 90.0))
