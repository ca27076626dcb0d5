"""Collector: scans, classification, AIAD controller, epochs, migration."""
import random
import threading

import pytest

from tierheap.collector import (CT_MAX, CT_MIN, MIGRATE_CHUNK,
                                CollectorError, ControllerState,
                                compute_promotion_rate, next_cold_threshold)
from tierheap.guideword import (ACCESSED_BIT, ATC_FIELD, HEAP_FIELD,
                                LOCATOR_MASK, LOCK_BIT, HeapId, pack, unpack,
                                word_heap)
from tierheap.regions import HintKind, RegionError, RegionExhausted
from tierheap.runtime import TierRuntime
from tierheap.scope import Phase
from tierheap.store import make_store

from conftest import add_entry
from test_races import tombstone_and_free


def make_runtime(**kwargs):
    kwargs.setdefault("region_length", 1 << 22)
    kwargs.setdefault("scan_interval_s", 120.0)
    return TierRuntime(**kwargs)


class TestControllerMath:
    def test_promotion_rate_hand_example(self):
        assert compute_promotion_rate(50, 1000, 120.0) == 0.025

    def test_promotion_rate_zero_numerator(self):
        assert compute_promotion_rate(0, 500, 120.0) == 0.0

    def test_promotion_rate_identity_scaling(self):
        assert compute_promotion_rate(7, 7, 60.0) == 1.0

    def test_promotion_rate_empty_working_set(self):
        assert compute_promotion_rate(5, 0, 120.0) == 0.0

    def test_aiad_steps(self):
        assert next_cold_threshold(3, 0.025, 0.01) == 4
        assert next_cold_threshold(3, 0.005, 0.01) == 2
        assert next_cold_threshold(3, 0.01, 0.01) == 3  # exact tie: unchanged

    def test_aiad_clamps(self):
        assert next_cold_threshold(CT_MAX, 1.0, 0.01) == CT_MAX
        assert next_cold_threshold(CT_MIN, 0.0, 0.01) == CT_MIN

    def test_controller_state_validates_threshold(self):
        with pytest.raises(CollectorError):
            ControllerState(cold_threshold=0)
        with pytest.raises(CollectorError):
            ControllerState(cold_threshold=33)

    def test_controller_is_pure_replay(self):
        runtime = make_runtime(ct_init=3)
        for i in range(30):
            add_entry(runtime, accessed=(i % 3 == 0))
        for _ in range(6):
            runtime.collector.run_scan_window()
        ctl = runtime.collector.controller
        reports = runtime.collector.reports
        ct = 3
        replayed = []
        for report in reports:
            ct = next_cold_threshold(ct, report.pr_actual, ctl.pr_target)
            replayed.append(ct)
        assert replayed == [r.cold_threshold_after for r in reports]


class TestEpochMachine:
    def test_cycle(self):
        runtime = make_runtime()
        col, state = runtime.collector, runtime.epoch_state
        col.begin_epoch()
        assert state.phase == Phase.PREPARE
        assert state.tracking_enabled
        assert col.await_convergence()
        assert state.phase == Phase.ACTIVE
        col.end_epoch()
        assert state.phase == Phase.INACTIVE
        assert not state.tracking_enabled

    def test_double_begin_faults(self):
        runtime = make_runtime()
        runtime.collector.begin_epoch()
        with pytest.raises(CollectorError):
            runtime.collector.begin_epoch()

    def test_migrate_outside_active_faults(self):
        runtime = make_runtime()
        index = add_entry(runtime)
        with pytest.raises(CollectorError):
            runtime.collector.migrate(index, HeapId.HOT)

    def test_stale_tai_slot_times_out(self):
        runtime = make_runtime()
        # A scope that never exits, so never re-registers.
        runtime.tai.slots[1].append(runtime.epoch_state.epoch)
        col = runtime.collector
        col.begin_epoch()
        assert not col.await_convergence(timeout_s=0.05)
        assert runtime.epoch_state.phase == Phase.INACTIVE
        assert not runtime.epoch_state.tracking_enabled

    def test_open_scope_of_an_older_epoch_blocks_convergence(self):
        """Thread A's scope, opened under epoch 0, holds back a window even
        after thread B enters and leaves a scope under epoch 1."""
        runtime = make_runtime()
        scope, col = runtime.scope, runtime.collector
        a_entered, a_release = threading.Event(), threading.Event()

        def thread_a():
            scope.enter_scope()
            a_entered.set()
            a_release.wait(5.0)
            scope.exit_scope()

        def thread_b():
            scope.enter_scope()
            scope.exit_scope()

        a = threading.Thread(target=thread_a)
        a.start()
        try:
            assert a_entered.wait(5.0)
            col.begin_epoch()
            b = threading.Thread(target=thread_b)
            b.start()
            b.join(5.0)
            assert not b.is_alive()
            assert not col.await_convergence(timeout_s=0.05)
        finally:
            a_release.set()
            a.join(5.0)
        assert not a.is_alive()
        col.begin_epoch()
        assert col.await_convergence(timeout_s=0.05)
        col.end_epoch()

    def test_empty_tai_converges_immediately(self):
        runtime = make_runtime()
        col = runtime.collector
        col.begin_epoch()
        assert col.await_convergence(timeout_s=0.01)
        col.end_epoch()


class TestMigrate:
    def setup_active(self, runtime):
        runtime.collector.begin_epoch()
        assert runtime.collector.await_convergence()

    def test_quiescent_object_moves_with_payload(self):
        runtime = make_runtime()
        index = add_entry(runtime, payload=b"p" * 100)
        self.setup_active(runtime)
        assert runtime.collector.migrate(index, HeapId.HOT) == "moved"
        word = runtime.registry.words[index]
        fields = unpack(word)
        assert fields.heap is HeapId.HOT
        assert fields.ciw == 0 and not fields.accessed
        assert not fields.migration_lock
        assert runtime.regions.read(fields.locator) == b"p" * 100
        # Only the entry's value slot stays in NEW.
        assert runtime.regions.region(HeapId.NEW).live_slot_count == 1

    def test_nonzero_atc_skips_without_locking(self):
        runtime = make_runtime()
        index = add_entry(runtime)
        runtime.registry.atc_increment(index)
        self.setup_active(runtime)
        assert runtime.collector.migrate(index, HeapId.HOT) == "skipped"

    def test_tombstoned_object_skipped(self):
        runtime = make_runtime()
        index = add_entry(runtime)
        tombstone_and_free(runtime, index)
        self.setup_active(runtime)
        assert runtime.collector.migrate(index, HeapId.HOT) == "skipped"

    def test_region_exhaustion_skips(self):
        runtime = TierRuntime(region_length=4096, scan_interval_s=120.0)
        index = add_entry(runtime, payload=b"x" * 1024)
        for _ in range(4):  # fill HOT completely
            runtime.regions.allocate(HeapId.HOT, 1024)
        self.setup_active(runtime)
        assert runtime.collector.migrate(index, HeapId.HOT) == "skipped"
        assert word_heap(runtime.registry.words[index]) is HeapId.NEW

    def test_a_guide_named_twice_raises_before_any_lock(self):
        """Named twice in one batch, a guide would be locked, copied twice
        and published once, and both copies freed: its word would name a
        freed HOT slot.  The batch is refused before any word is locked."""
        runtime = make_runtime()
        store = make_store(runtime, "hashmap")
        store.set(b"k", b"value")
        value_guide = store._entry(b"k") + 1
        words = list(runtime.registry.words)
        self.setup_active(runtime)
        with pytest.raises(ValueError, match="names a guide twice"):
            runtime.collector.migrate_batch([value_guide, value_guide],
                                            HeapId.HOT)
        assert list(runtime.registry.words) == words
        runtime.collector.end_epoch()
        assert store.get(b"k") == b"value"
        runtime.audit()

    def test_descending_distinct_guides_still_move(self):
        runtime = make_runtime()
        guides = [add_entry(runtime) for _ in range(3)]
        self.setup_active(runtime)
        counts = runtime.collector.migrate_batch(guides[::-1], HeapId.HOT)
        assert counts.moved == 3
        runtime.audit()

    @pytest.mark.parametrize("target", [HeapId.COLD, HeapId.HOT])
    def test_candidate_touched_after_the_scan(self, target):
        """A demotion candidate a get touches between the scan and the
        lock pass is busy for a move to COLD: it stays where it is, with
        its accessed bit.  A move to HOT takes an accessed word.  Only the
        key is touched, so the untouched value moves either way."""
        runtime = make_runtime(ct_init=1)
        index = add_entry(runtime)
        scan = runtime.collector.scan(1)
        assert scan.demotions == [index, index + 1]
        runtime.registry.dereference(index)
        self.setup_active(runtime)
        counts = runtime.collector.migrate_batch(scan.demotions, target)
        fields = unpack(runtime.registry.words[index])
        assert word_heap(runtime.registry.words[index + 1]) is target
        if target is HeapId.COLD:
            assert (counts.moved, counts.skipped) == (1, 1)
            assert fields.heap is HeapId.NEW and fields.accessed
        else:
            assert counts.moved == 2 and fields.heap is HeapId.HOT
        runtime.audit()

    @pytest.mark.parametrize("target, sources", [
        (HeapId.HOT, (HeapId.NEW, HeapId.COLD)),
        (HeapId.COLD, (HeapId.NEW, HeapId.HOT))])
    def test_chunk_with_two_source_heaps(self, target, sources):
        """A chunk whose guides come from two heaps moves each payload
        object itself to `target` and frees every source slot.  Each
        entry's key and value hold the same payload."""
        runtime = make_runtime()
        payloads = [bytes([i]) * (16 + 37 * i) for i in range(40)]
        entries = [add_entry(runtime, payload=payload, heap=sources[i % 2])
                   for i, payload in enumerate(payloads)]
        guides = [i for g in entries for i in (g, g + 1)]
        payloads = [payload for payload in payloads for _ in range(2)]
        olds = [runtime.registry.words[g] & LOCATOR_MASK for g in guides]
        self.setup_active(runtime)
        counts = runtime.collector.migrate_batch(guides, target)
        assert (counts.moved, counts.aborted, counts.skipped) == (80, 0, 0)
        assert [counts.moved_from[heap] for heap in sources] == [40, 40]
        assert counts.bytes_moved == sum(map(len, payloads))
        for guide, payload, old in zip(guides, payloads, olds):
            fields = unpack(runtime.registry.words[guide])
            assert fields.heap is target
            assert runtime.regions.read(fields.locator) is payload
            with pytest.raises(RegionError):
                runtime.regions.read(old)
        for heap in sources:
            region = runtime.regions.region(heap)
            assert (region.live_slot_count, region.live_bytes) == (0, 0)
        runtime.collector.end_epoch()
        runtime.audit()


def scalar_migrate(runtime, index: int, target: HeapId) -> str:
    """Scalar reference for the chunked batch path: the two-CAS protocol,
    one object at a time."""
    regions, registry = runtime.regions, runtime.registry
    word = registry.words[index]
    busy = LOCK_BIT | ATC_FIELD
    if target == HeapId.COLD:
        busy |= ACCESSED_BIT  # touched since the scan
    if word & busy or (word & HEAP_FIELD) == HEAP_FIELD:
        return "skipped"
    locked = word | LOCK_BIT
    if not registry.compare_and_swap(index, word, locked):
        return "skipped"
    old_locator = word & LOCATOR_MASK
    try:
        payload = regions.read(old_locator)
    except RegionError:
        registry.compare_and_swap(index, locked, word)
        return "aborted"
    try:
        new_locator = regions.heaps[target].install(payload)
    except RegionExhausted:
        registry.compare_and_swap(index, locked, word)
        return "skipped"
    new_word = pack(new_locator, heap=target)
    if registry.compare_and_swap(index, locked, new_word):
        regions.free(old_locator)
        return "moved"
    regions.free(new_locator)
    return "aborted"


def heap_state(runtime):
    """Everything migration may change: words, slots, pages, free lists."""
    regions = []
    for heap in (HeapId.NEW, HeapId.HOT, HeapId.COLD):
        region = runtime.regions.region(heap)
        regions.append((
            dict(region._live),
            region.page_table(),
            region.free_offsets(),
            region._bump, region.live_bytes))
    return list(runtime.registry.words), regions


def seeded_heap(seed, guides, sizes, region_length=1 << 22):
    """A runtime with `guides` entries, `2 * guides` words, of random sizes
    in random heaps.

    Half the entries carry the accessed bit; some words carry the lock bit
    or an ATC, some entries are retired and their slots freed, and some
    words stay live with their slot freed behind their back, so a
    migration of it aborts at the read.  Returns the runtime and seeded
    promotion (heap not HOT) and demotion (heap not COLD) lists, disjoint
    and in ascending guide order.  As after a scan, most demotion
    candidates have the accessed bit clear; the fifth that keep it stand
    for words touched since the scan, which a move to COLD skips.
    """
    rng = random.Random(seed)
    runtime = TierRuntime(region_length=region_length, scan_interval_s=120.0)
    registry = runtime.registry
    for _ in range(guides):
        heap = rng.choice((HeapId.NEW, HeapId.HOT, HeapId.COLD))
        add_entry(runtime, payload=bytes([rng.randrange(256)])
                   * rng.choice(sizes), heap=heap,
                   accessed=rng.random() < 0.5)
    for g in range(0, 2 * guides, 2):
        if rng.random() < 0.05:
            tombstone_and_free(runtime, g)
            continue
        for index in (g, g + 1):
            roll = rng.random()
            if roll < 0.05:
                registry.words[index] |= LOCK_BIT
            elif roll < 0.10:
                registry.atc_increment(index)
            elif roll < 0.12:
                runtime.regions.free(registry.words[index] & LOCATOR_MASK)
    promotions, demotions = [], []
    for index in range(2 * guides):
        heap = word_heap(registry.words[index])
        if heap != HeapId.HOT and rng.random() < 0.5:
            promotions.append(index)
        elif heap != HeapId.COLD and rng.random() < 0.7:
            demotions.append(index)
            if rng.random() < 0.8:
                registry.words[index] &= ~ACCESSED_BIT
    return runtime, promotions, demotions


def migrate_both_ways(seed, guides, sizes, **kwargs):
    """Run the same lists through the batch path and the scalar reference;
    assert the heaps end equal and return the batch path's counts."""
    batch, promotions, demotions = seeded_heap(seed, guides, sizes, **kwargs)
    reference, _, _ = seeded_heap(seed, guides, sizes, **kwargs)
    assert heap_state(batch) == heap_state(reference)
    counts = []
    for runtime in (batch, reference):
        runtime.collector.begin_epoch()
        assert runtime.collector.await_convergence()
    for indices, target in ((promotions, HeapId.HOT),
                            (demotions, HeapId.COLD)):
        got = batch.collector.migrate_batch(indices, target)
        outcomes = [scalar_migrate(reference, i, target) for i in indices]
        moved = [i for i, o in zip(indices, outcomes) if o == "moved"]
        assert (got.moved, got.aborted, got.skipped) == (
            len(moved), outcomes.count("aborted"), outcomes.count("skipped"))
        assert got.bytes_moved == sum(
            len(reference.regions.read(reference.registry.words[i]
                                       & LOCATOR_MASK)) for i in moved)
        counts.append(got)
    assert heap_state(batch) == heap_state(reference)
    return counts


class TestBatchMatchesScalarReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_lists_longer_than_two_chunks(self, seed):
        up, down = migrate_both_ways(seed, 12 * MIGRATE_CHUNK + 7,
                                     (16, 30, 64, 100, 1000, 1024))
        assert min(up.moved, down.moved) > 2 * MIGRATE_CHUNK
        assert up.skipped and up.aborted + down.aborted

    @pytest.mark.parametrize("seed", range(3))
    def test_objects_spanning_two_pages(self, seed):
        migrate_both_ways(seed, 3 * MIGRATE_CHUNK, (2800, 6000, 12000),
                          region_length=1 << 26)

    def test_freed_cold_slot_is_reused_by_a_later_demotion(self):
        def build():
            runtime = make_runtime()
            cold = [add_entry(runtime, payload=b"c" * 64, heap=HeapId.COLD)
                    for _ in range(3)]
            hot = [add_entry(runtime, payload=b"h" * 64, heap=HeapId.HOT)
                   for _ in range(3)]
            runtime.collector.begin_epoch()
            assert runtime.collector.await_convergence()
            return runtime, cold, hot

        batch, cold, hot = build()
        reference, _, _ = build()
        freed = batch.registry.words[cold[1]] & LOCATOR_MASK
        assert batch.collector.migrate_batch(cold[1:2], HeapId.HOT).moved \
            == 1
        assert batch.collector.migrate_batch(hot, HeapId.COLD).moved == 3
        assert batch.registry.words[hot[0]] & LOCATOR_MASK == freed
        for index, target in [(cold[1], HeapId.HOT)] \
                + [(i, HeapId.COLD) for i in hot]:
            assert scalar_migrate(reference, index, target) == "moved"
        assert heap_state(batch) == heap_state(reference)
        batch.audit()

    def test_hot_runs_out_mid_chunk_while_a_smaller_class_fits(self):
        def build():
            runtime = make_runtime(region_length=1 << 16)
            hot = runtime.regions.region(HeapId.HOT)
            while hot.length - hot._bump > 1024:
                runtime.regions.allocate(HeapId.HOT, 1024)
            runtime.regions.allocate(HeapId.HOT, 512)
            runtime.regions.allocate(HeapId.HOT, 256)
            runtime.regions.allocate(HeapId.HOT, 128)  # 128 B remain
            guides = [add_entry(runtime, payload=b"m" * size)
                      for size in (1024, 64, 500, 32, 60, 16, 8)]
            runtime.collector.begin_epoch()
            assert runtime.collector.await_convergence()
            return runtime, guides

        batch, guides = build()
        reference, _ = build()
        counts = batch.collector.migrate_batch(guides, HeapId.HOT)
        outcomes = [scalar_migrate(reference, i, HeapId.HOT)
                    for i in guides]
        assert outcomes == ["skipped", "moved", "skipped", "moved",
                            "skipped", "moved", "moved"]
        assert (counts.moved, counts.skipped) == (4, 3)
        assert heap_state(batch) == heap_state(reference)
        batch.audit()


class TestScanWindow:
    def test_accessed_cold_object_promoted(self):
        runtime = make_runtime()
        index = add_entry(runtime, heap=HeapId.COLD, accessed=True)
        report = runtime.collector.run_scan_window()
        assert report.promoted_to_hot == 2  # the key and the value
        fields = unpack(runtime.registry.words[index])
        assert fields.heap is HeapId.HOT and fields.ciw == 0

    def test_accessed_new_object_promoted(self):
        runtime = make_runtime()
        index = add_entry(runtime, heap=HeapId.NEW, accessed=True)
        report = runtime.collector.run_scan_window()
        assert report.new_to_hot == 2  # the key and the value
        assert word_heap(runtime.registry.words[index]) is HeapId.HOT

    def test_untouched_object_demoted_at_threshold(self):
        runtime = make_runtime(ct_init=2)
        index = add_entry(runtime, heap=HeapId.NEW)
        reports = [runtime.collector.run_scan_window() for _ in range(3)]
        assert word_heap(runtime.registry.words[index]) is HeapId.COLD
        assert sum(r.demoted_to_cold for r in reports) == 2

    def test_accessed_bit_cleared_by_scan(self):
        runtime = make_runtime()
        index = add_entry(runtime, heap=HeapId.HOT, accessed=True)
        runtime.collector.run_scan_window()
        assert not runtime.registry.words[index] & ACCESSED_BIT

    def test_ciw_saturates_at_31(self):
        runtime = make_runtime(ct_init=32, pr_target=0.0)
        # pr_target 0 keeps C_t at 32 (PR never < 0), so no demotion occurs
        # and CIW can run into its clamp.
        index = add_entry(runtime, heap=HeapId.HOT)
        for _ in range(40):
            runtime.collector.run_scan_window()
        assert unpack(runtime.registry.words[index]).ciw == 31

    def test_object_conservation_quiesced(self):
        runtime = make_runtime(ct_init=1)
        for i in range(50):
            add_entry(runtime, accessed=(i % 2 == 0))
        for _ in range(5):
            runtime.collector.run_scan_window()
            assert runtime.registry.live_count == 2 * 50
            assert runtime.regions.live_slot_count() == 2 * 50
            runtime.audit()

    def test_window_reports_bytes_moved(self):
        runtime = make_runtime()
        for size in (64, 100, 1024):
            add_entry(runtime, payload=b"b" * size, accessed=True)
        report = runtime.collector.run_scan_window()
        assert report.new_to_hot == 2 * 3
        assert report.bytes_moved == 2 * (64 + 100 + 1024)
        assert runtime.collector.run_scan_window().bytes_moved == 0

    def test_window_report_counts_consistent(self):
        runtime = make_runtime()
        for i in range(20):
            add_entry(runtime, accessed=(i < 10))
        report = runtime.collector.run_scan_window()
        assert report.scanned_guides == 2 * 20
        assert (report.promoted_to_hot + report.demoted_to_cold
                + report.new_to_hot) <= report.scanned_guides


class TestHintGating:
    def test_default_mode_never_emits(self):
        runtime = make_runtime(ct_init=1)
        add_entry(runtime)
        for _ in range(5):
            report = runtime.collector.run_scan_window()
            assert report.hints_emitted == 0
        assert runtime.collector.hint_events == []

    def test_stability_rule(self):
        runtime = make_runtime(hinted=True)
        add_entry(runtime, heap=HeapId.COLD)  # COLD populated
        col = runtime.collector
        col.controller.stable_windows = 1
        assert col.maybe_emit_hints() == []
        col.controller.stable_windows = 2
        events = col.maybe_emit_hints()
        assert any(e.kind is HintKind.PAGEOUT_ADVICE for e in events)
        assert any(e.kind is HintKind.HUGEPAGE_ADVICE for e in events)

    def test_vacuous_pr_does_not_build_stability(self):
        # Below-target PR with an empty COLD region must not count.
        runtime = make_runtime(hinted=True, ct_init=32, pr_target=0.5)
        add_entry(runtime, accessed=True)
        for _ in range(4):
            runtime.collector.run_scan_window()
        assert runtime.collector.controller.stable_windows == 0
        assert runtime.collector.hint_events == []

    def test_hints_after_real_stability(self):
        runtime = make_runtime(hinted=True, ct_init=1, pr_target=0.5)
        add_entry(runtime)      # never accessed: demoted window 1
        hot = add_entry(runtime, accessed=True)
        for _ in range(4):
            runtime.collector.run_scan_window()
            runtime.registry.dereference(hot)  # keep one entry hot
            runtime.registry.dereference(hot + 1)
        assert runtime.collector.controller.stable_windows >= 2
        assert runtime.collector.hinted_cold_pages()
