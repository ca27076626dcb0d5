"""Temperature-segregated regions: size classes, accounting, hints."""
import heapq
import random
import sys
from collections import Counter

import numpy as np
import pytest

from tierheap.guideword import HeapId
from tierheap.regions import (PAGE_SIZE, SIZE_CLASSES, DoubleFreeError,
                              HeapRegion, HintEvent, HintKind, RegionError,
                              RegionExhausted, RegionManager, write_hint_log)


def small_region(heap=HeapId.NEW, pages=16):
    return HeapRegion(heap, 0, pages * PAGE_SIZE)


class TestAllocation:
    def test_size_class_rounding(self):
        region = small_region()
        loc = region.install(bytes(30))
        assert region.install(bytes(30)) == loc + 32  # past a 32 B class
        assert region.read(loc) == bytes(30)  # the payload, at its length
        region.free(loc)
        assert region.install(bytes(17)) == loc  # freed into the 32 B class

    def test_exact_class_boundary(self):
        region = small_region()
        a = region.install(bytes(1024))
        b = region.install(bytes(1025))
        assert b == a + 1024
        assert region.install(bytes(16)) == b + 2048

    def test_oversized_payload_rejected(self):
        region = small_region(pages=64)
        with pytest.raises(RegionError):
            region.install(bytes((64 << 10) + 1))

    def test_non_positive_length_rejected(self):
        region = small_region()
        with pytest.raises(RegionError):
            region.install(bytes(0))

    def test_lowest_address_reuse(self):
        region = small_region()
        locs = [region.install(bytes(100)) for _ in range(8)]
        region.free(locs[2])
        region.free(locs[5])
        assert region.install(bytes(100)) == locs[2]
        assert region.install(bytes(100)) == locs[5]

    def test_exhaustion(self):
        region = HeapRegion(HeapId.HOT, 0, PAGE_SIZE)
        for _ in range(4):
            region.install(bytes(1024))
        with pytest.raises(RegionExhausted):
            region.install(bytes(1024))

    def test_double_free_raises(self):
        region = small_region()
        loc = region.install(bytes(64))
        region.free(loc)
        with pytest.raises(DoubleFreeError):
            region.free(loc)


class TestDataAndAccounting:
    def test_write_read_roundtrip(self):
        region = small_region()
        loc = region.install(bytes(11))
        region.write(loc, b"hello world")
        assert region.read(loc) == b"hello world"

    def test_write_wrong_length_rejected(self):
        region = small_region()
        loc = region.install(bytes(4))
        with pytest.raises(RegionError):
            region.write(loc, b"too long")

    def test_read_after_free_raises(self):
        region = small_region()
        loc = region.install(bytes(4))
        region.free(loc)
        with pytest.raises(RegionError):
            region.read(loc)

    def test_live_bytes_tracks_payload(self):
        region = small_region()
        a = region.install(bytes(100))
        b = region.install(bytes(1000))
        assert region.live_bytes == 1100
        region.free(a)
        assert region.live_bytes == 1000
        region.free(b)
        assert region.live_bytes == 0

    def test_page_accounting_spans_pages(self):
        region = small_region()
        # 16 KiB slot spans 4 pages exactly
        loc = region.install(bytes(16 << 10))
        assert region.page_table() == {0: 1, 1: 1, 2: 1, 3: 1}
        assert region.live_bytes == 16 << 10
        region.free(loc)
        region.audit()
        assert region.page_table() == {0: 0, 1: 0, 2: 0, 3: 0}
        assert region.live_bytes == 0

    def test_audit_passes_on_random_churn(self):
        rng = random.Random(5)
        region = small_region(pages=256)
        live = []
        for _ in range(2000):
            if live and rng.random() < 0.4:
                region.free(live.pop(rng.randrange(len(live))))
            else:
                live.append(region.install(bytes(rng.choice([16, 100,
                                                              1024]))))
        region.audit()


class TestInstall:
    """`install` places a payload where the manager's `allocate` of its
    length and a `write` would, and rejects what `allocate` rejects."""

    def test_places_slots_where_allocate_does(self):
        rng = random.Random(11)
        managers = [RegionManager(region_length=1024 * PAGE_SIZE)
                    for _ in range(2)]
        allocated, installed = (mgr.region(HeapId.NEW) for mgr in managers)
        live = []
        for i in range(2000):
            if live and rng.random() < 0.45:
                loc = live.pop(rng.randrange(len(live)))
                allocated.free(loc)
                installed.free(loc)
                continue
            payload = bytes([i & 0xFF]) * rng.choice([1, 16, 17, 100, 1024,
                                                      1025, 5000])
            loc = managers[0].allocate(HeapId.NEW, len(payload))
            managers[0].write(loc, payload)
            assert installed.install(payload) == loc
            assert installed.read(loc) is payload  # the object itself
            live.append(loc)
        assert installed._live == allocated._live
        assert installed.free_offsets() == allocated.free_offsets()
        assert installed._bump == allocated._bump
        assert installed.live_bytes == allocated.live_bytes
        assert installed.page_table() == allocated.page_table()
        installed.audit()

    @pytest.mark.parametrize("length", [0, (64 << 10) + 1])
    def test_rejects_what_allocate_rejects(self, length):
        mgr = RegionManager(region_length=64 * PAGE_SIZE)
        region = mgr.region(HeapId.NEW)
        with pytest.raises(RegionError) as allocated:
            mgr.allocate(HeapId.NEW, length)
        with pytest.raises(RegionError) as installed:
            region.install(b"x" * length)
        assert type(installed.value) is type(allocated.value)
        assert str(installed.value) == str(allocated.value)
        assert region.live_slot_count == 0 and region._bump == 0

    def test_exhaustion(self):
        mgr = RegionManager(region_length=PAGE_SIZE)
        region = mgr.region(HeapId.HOT)
        for _ in range(4):
            region.install(b"x" * 1024)
        for payload in (b"y" * 1024, b"z" * 16):
            with pytest.raises(RegionExhausted) as installed:
                region.install(payload)
            with pytest.raises(RegionExhausted) as allocated:
                mgr.allocate(HeapId.HOT, len(payload))
            assert str(installed.value) == str(allocated.value)
        assert region.live_slot_count == 4
        assert region.live_bytes == PAGE_SIZE
        region.audit()

    def test_manager_installs_into_the_named_heap(self):
        mgr = RegionManager(region_length=1 << 20)
        loc = mgr.heaps[HeapId.COLD].install(b"abcde")
        assert mgr.heap_of(loc) is HeapId.COLD
        assert mgr.read(loc) == b"abcde"
        assert mgr.slots[HeapId.COLD][loc - (2 << 20)] == b"abcde"


def placement_state(region):
    """Everything a placement changes: slots, free slots, bump pointer,
    page table and live bytes."""
    return (dict(region._live), region.free_offsets(), region._bump,
            region.page_table(), region.live_bytes)


def install_or_none(region, payload):
    try:
        return region.install(payload)
    except RegionExhausted:
        return None


# Lengths across the size classes and at their boundaries, with slots that
# span up to six 4 KiB pages.
BATCH_LENGTHS = (1, 16, 17, 30, 100, 1000, 1024, 1025, 3000, 4097, 5000,
                 20000)


class TestBatchesMatchSingleSlotCalls:
    """`allocate_batch` and `free_batch` leave a region exactly as the
    same sequence of `install` or `free` calls leaves a twin region."""

    def churn(self, seed, pages, rounds):
        """Drive twin regions through random batches: each round frees a
        random share of the live slots (leaving free-list holes) and then
        places a batch of mixed classes, one region by batch calls and the
        other by single-slot calls, asserting equal results and state."""
        rng = random.Random(seed)
        batch, single = (small_region(pages=pages) for _ in range(2))
        live = []
        for _ in range(rounds):
            rng.shuffle(live)
            cut = rng.randrange(len(live) + 1) // 2
            freed, live = live[:cut], live[cut:]
            batch.free_batch(freed)
            for locator in freed:
                single.free(locator)
            assert placement_state(batch) == placement_state(single)
            payloads = [bytes([rng.randrange(256)]) * rng.choice(BATCH_LENGTHS)
                        for _ in range(rng.randrange(1, 80))]
            got = batch.allocate_batch(payloads)
            assert got == [install_or_none(single, p) for p in payloads]
            assert all(batch.read(loc) is p
                       for loc, p in zip(got, payloads) if loc is not None)
            assert placement_state(batch) == placement_state(single)
            live += [loc for loc in got if loc is not None]
        batch.audit()
        single.audit()
        return batch

    @pytest.mark.parametrize("seed", range(6))
    def test_random_class_mixes_with_holes(self, seed):
        region = self.churn(seed, pages=4096, rounds=40)
        assert region.live_slot_count and region.free_offsets()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_batches_that_exhaust_the_region(self, seed):
        region = self.churn(seed, pages=48, rounds=40)
        assert region.length - region._bump < max(BATCH_LENGTHS)

    def test_exhaustion_mid_batch_where_a_smaller_class_fits(self):
        regions = [small_region(pages=1) for _ in range(2)]
        for region in regions:
            for length in (2048, 1024, 512, 256):
                region.install(b"f" * length)  # 256 B remain
            hole = region.install(b"h" * 64)
            region.install(b"t" * 64)
            region.free(hole)  # a 64 B hole and 128 B at the bump
        batch, single = regions
        payloads = [b"a" * 1024, b"b" * 60, b"c" * 300, b"d" * 20,
                    b"e" * 100, b"f" * 16]
        got = batch.allocate_batch(payloads)
        assert got == [install_or_none(single, p) for p in payloads]
        assert got == [None, hole, None, 3968, None, 4000]
        assert placement_state(batch) == placement_state(single)
        batch.audit()

    @pytest.mark.parametrize("seed", range(4))
    def test_free_batch_frees_as_frees(self, seed):
        rng = random.Random(seed)
        batch, single = (small_region(pages=2048) for _ in range(2))
        for _ in range(30):
            payloads = [bytes([rng.randrange(256)]) * rng.choice(BATCH_LENGTHS)
                        for _ in range(rng.randrange(1, 60))]
            batch.allocate_batch(payloads)
            for payload in payloads:
                single.install(payload)
            live = sorted(batch._live)
            freed = [batch.base + o
                     for o in rng.sample(live, rng.randrange(len(live) + 1))]
            batch.free_batch(freed)
            for locator in freed:
                single.free(locator)
            assert placement_state(batch) == placement_state(single)
        batch.audit()

    def test_rejects_what_install_rejects(self):
        region = small_region()
        for bad in (b"", b"x" * ((64 << 10) + 1)):
            before = placement_state(region)
            with pytest.raises(RegionError) as batched:
                region.allocate_batch([b"ok", bad])
            with pytest.raises(RegionError) as installed:
                region.install(bad)
            assert str(batched.value) == str(installed.value)
            assert placement_state(region) == before


class HeapqRegion:
    """The allocator the free pools replaced, as a placement reference:
    one `heapq` min-heap of offsets per size class, the lowest free slot of
    a class first, else the bump pointer, and batches placed as sequences
    of single-slot calls."""

    def __init__(self, length):
        self.length = length
        self.heaps = {c: [] for c in SIZE_CLASSES}
        self.bump = 0
        self.live = {}  # offset -> size class

    def install(self, length):
        """The new slot's offset, or None if the class has no room."""
        size_class = next(c for c in SIZE_CLASSES if c >= length)
        heap = self.heaps[size_class]
        if heap:
            offset = heapq.heappop(heap)
        elif self.bump + size_class > self.length:
            return None
        else:
            offset, self.bump = self.bump, self.bump + size_class
        self.live[offset] = size_class
        return offset

    def free(self, offset):
        heapq.heappush(self.heaps[self.live.pop(offset)], offset)

    def free_offsets(self):
        return {c: sorted(heap) for c, heap in self.heaps.items() if heap}


class TestPlacementMatchesHeapq:
    """A seeded random drive of `install`, `free`, `allocate_batch` and
    `free_batch` hands out exactly the slots `HeapqRegion` does, and leaves
    exactly its free slots, at every step."""

    # Six classes, so each is often emptied by allocation.
    LENGTHS = (16, 30, 100, 1000, 3000, 5000)

    def drive(self, seed, pages, steps):
        rng = random.Random(seed)
        base = 3 * pages * PAGE_SIZE  # locators are not offsets
        region = HeapRegion(HeapId.COLD, base, pages * PAGE_SIZE)
        ref = HeapqRegion(pages * PAGE_SIZE)
        live = []
        # Per class: frees of each kind since its last allocation.
        singles, batched = Counter(), Counter()
        seen = Counter()

        def placed(length, locator):
            offset = ref.install(length)
            assert locator == (None if offset is None else base + offset)
            size_class = next(c for c in SIZE_CLASSES if c >= length)
            if offset is None:
                seen["no room"] += 1
                return
            if offset in freed_before:
                seen["reused"] += 1
            if singles[size_class] and batched[size_class]:
                seen["both pending"] += 1
            if not ref.heaps[size_class] and offset in freed_before:
                seen["class emptied"] += 1
            singles[size_class] = batched[size_class] = 0
            live.append(locator)

        for _ in range(steps):
            freed_before = {o for heap in ref.heaps.values() for o in heap}
            roll = rng.random()
            if roll < 0.3:
                length = rng.choice(self.LENGTHS)
                try:
                    locator = region.install(bytes(length))
                except RegionExhausted:
                    locator = None
                placed(length, locator)
            elif roll < 0.5:
                lengths = [rng.choice(self.LENGTHS)
                           for _ in range(rng.randrange(1, 24))]
                got = region.allocate_batch([bytes(n) for n in lengths])
                for length, locator in zip(lengths, got):
                    placed(length, locator)
            elif roll < 0.8 and live:
                locator = live.pop(rng.randrange(len(live)))
                region.free(locator)
                singles[ref.live[locator - base]] += 1
                ref.free(locator - base)
            elif live:
                rng.shuffle(live)
                cut = rng.randrange(len(live) + 1) // 2
                batch, live[:] = live[:cut], live[cut:]
                region.free_batch(batch)
                for locator in batch:
                    batched[ref.live[locator - base]] += 1
                    ref.free(locator - base)
            assert region.free_offsets() == ref.free_offsets()
            assert region.live_slot_count == len(ref.live)
        region.audit()
        return seen

    @pytest.mark.parametrize("seed", range(4))
    def test_roomy_region(self, seed):
        seen = self.drive(seed, pages=1024, steps=600)
        assert seen["reused"] and seen["both pending"]
        assert seen["class emptied"]

    @pytest.mark.parametrize("seed", range(4))
    def test_region_driven_to_exhaustion(self, seed):
        seen = self.drive(seed, pages=12, steps=600)
        assert seen["no room"] and seen["reused"] and seen["both pending"]


class TestFreeSlotPool:
    def test_take_drops_the_consumed_prefix(self):
        """A batch that takes a class's pool past its half keeps only the
        rest, as a fresh array; one that stays below half only moves the
        head.  The slots handed out are the lowest either way."""
        region = small_region(pages=64)
        locators = region.allocate_batch([bytes(100)] * 40)
        region.free_batch(locators)
        pool = region._free[128]
        assert region.allocate_batch([bytes(100)] * 10) == locators[:10]
        assert (pool.head, len(pool.pool)) == (10, 40)
        consumed = pool.pool
        assert region.allocate_batch([bytes(100)] * 12) == locators[10:22]
        assert (pool.head, pool.pool.tolist()) == (0, locators[22:])
        assert pool.pool.base is None and not np.shares_memory(pool.pool,
                                                               consumed)
        assert region.allocate_batch([bytes(100)] * 20) == [
            *locators[22:], region.base + 40 * 128, region.base + 41 * 128]
        region.audit()


class TestFreeBatchChecksFirst:
    """A free_batch naming a locator twice, or one that is not live, raises
    DoubleFreeError before it frees anything."""

    def populated(self):
        region = small_region(pages=64)
        locators = region.allocate_batch(
            [bytes([i]) * length for i, length in
             enumerate((30, 100, 1024, 5000, 16, 3000))])
        region.free(locators[1])
        return region, locators

    @pytest.mark.parametrize("bad", ["repeated", "non-live"])
    def test_region_untouched(self, bad):
        region, locators = self.populated()
        before = placement_state(region)
        batch = [locators[0], locators[2], locators[3]]
        batch.insert(2, locators[2] if bad == "repeated" else locators[1])
        with pytest.raises(DoubleFreeError, match=f"{batch[2]:#x}"):
            region.free_batch(batch)
        assert placement_state(region) == before
        region.audit()
        region.free_batch([locators[0], locators[2], locators[3]])
        region.audit()
        assert region.live_slot_count == 2


def model_page_counts(slots):
    """Each page's live-slot count, from (locator, length) pairs."""
    counts = {}
    for locator, length in slots:
        for page in range(locator // PAGE_SIZE,
                          (locator + length - 1) // PAGE_SIZE + 1):
            counts[page] = counts.get(page, 0) + 1
    return counts


def model_runs(pages):
    """Maximal runs of consecutive pages, as (start, end) pairs."""
    runs = []
    for page in sorted(pages):
        if runs and runs[-1][1] == page:
            runs[-1][1] = page + 1
        else:
            runs.append([page, page + 1])
    return [tuple(run) for run in runs]


def region_state(region):
    """What no PAGEOUT advice or audit may change: the page table, the
    extent and the live bytes."""
    return region.page_table(), region.extent_bytes(), region.live_bytes


class SlotModel:
    """A plain model of a region's live slots, checked against the region's
    page table, PAGEOUT spans and audit."""

    def __init__(self, rng, twin=None):
        self.rng = rng
        self.twin = twin  # a region every call is repeated on
        self.slots = []  # (locator, length) of every live slot

    def installed(self, locator, length):
        self.slots.append((locator, length))

    def freed(self, count):
        """Drop `count` random live slots; returns their locators."""
        slots = self.slots
        self.rng.shuffle(slots)
        gone, slots[:] = slots[:count], slots[count:]
        return [locator for locator, _ in gone]

    def call(self, region, method, *args):
        """`region.method(*args)`, repeated on the twin, which must return
        the same placements."""
        got = getattr(region, method)(*args)
        if self.twin is not None:
            assert getattr(self.twin, method)(*args) == got
        return got

    def step(self, region, lengths):
        """One random `install`, `allocate_batch`, `free` or
        `free_batch`."""
        def call(method, *args):
            return self.call(region, method, *args)

        rng, slots = self.rng, self.slots
        roll = rng.random()
        if roll < 0.3:
            length = rng.choice(lengths)
            self.installed(call("install", bytes(length)), length)
        elif roll < 0.55:
            batch = [rng.choice(lengths) for _ in range(rng.randrange(1, 40))]
            got = call("allocate_batch", [bytes(n) for n in batch])
            assert None not in got
            for locator, length in zip(got, batch):
                self.installed(locator, length)
        elif roll < 0.75 and slots:
            call("free", self.freed(1)[0])
        elif slots:
            call("free_batch", self.freed(rng.randrange(len(slots) + 1)))

    def check(self, region):
        """The page table agrees with the model; returns each page's
        live-slot count."""
        counts = model_page_counts(self.slots)
        table = region.page_table()
        assert {page: n for page, n in table.items() if n} == counts
        assert len(table) * PAGE_SIZE == region.extent_bytes()
        assert region.live_bytes == sum(n for _, n in self.slots)
        return counts

    def pageout(self, region, window):
        before = region_state(region)
        events = region.emit_hints(HintKind.PAGEOUT_ADVICE, window)
        assert [(e.start_page, e.end_page) for e in events] \
            == model_runs(model_page_counts(self.slots))
        assert region_state(region) == before

    def audit(self, region):
        before = region_state(region)
        region.audit()
        assert region_state(region) == before


class TestPageOccupancy:
    """A region's page table, PAGEOUT spans and live bytes agree with a
    plain model of its live slots under a random drive of `install`,
    `free`, `allocate_batch` and `free_batch`."""

    LENGTHS = (16, 17, 100, 1000, 1025, 3000, 4096, 4097, 9000, 12 << 10)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_drive(self, seed):
        base = 1 << 30  # so pages are absolute, not region-relative
        region = HeapRegion(HeapId.COLD, base, 4096 * PAGE_SIZE)
        model = SlotModel(random.Random(seed))
        for step in range(120):
            model.step(region, self.LENGTHS)
            model.check(region)
            if step % 10 == 9:
                model.pageout(region, step)
            elif step % 10 == 4:
                model.audit(region)


class TestSlotDictRebuild:
    """Once a `free_batch` leaves a region under a quarter of the most
    live slots it held at the start of a batch since its last rebuild, the
    region swaps its slot dict for a copy sized for the live slots and
    publishes it in `RegionManager.slots`; nothing else changes."""

    LENGTHS = TestPageOccupancy.LENGTHS

    def test_below_a_quarter_then_empty(self):
        rng = random.Random(7)
        mgr = RegionManager(region_length=4096 * PAGE_SIZE)
        region = mgr.region(HeapId.HOT)
        twin = HeapRegion(HeapId.HOT, region.base, region.length)
        twin._rebuild = lambda: None  # the same region, never rebuilt
        model = SlotModel(rng, twin)

        def call(method, *args):
            return model.call(region, method, *args)

        def same_as_twin():
            assert mgr.slots[HeapId.HOT] is region._live
            assert list(region._live.items()) == list(twin._live.items())
            assert sorted(region._live) == sorted(
                locator - region.base for locator, _ in model.slots)
            model.check(region)
            assert region.page_table() == twin.page_table()

        def drive(steps):
            for step in range(steps):
                model.step(region, self.LENGTHS)
                same_as_twin()
                if step % 10 == 4:
                    model.audit(region)
                    twin.audit()
                    same_as_twin()

        lengths = [rng.choice(self.LENGTHS) for _ in range(600)]
        for locator, length in zip(
                call("allocate_batch", [bytes(n) for n in lengths]), lengths):
            model.installed(locator, length)
        for length in self.LENGTHS:
            model.installed(call("install", bytes(length)), length)
        for locator in model.freed(10):
            call("free", locator)
        same_as_twin()
        peak = len(region._live)  # what the next free_batch samples
        old = region._live
        # Down to a quarter of the peak exactly: not yet rebuilt.
        call("free_batch", model.freed(peak - peak // 4))
        assert len(old) * 4 >= peak and region._live is old
        same_as_twin()
        # One slot below it: rebuilt to exactly the live slots.
        call("free_batch", model.freed(1))
        rebuilt = region._live
        assert rebuilt is not old and len(rebuilt) == peak // 4 - 1
        assert sys.getsizeof(rebuilt) < sys.getsizeof(old)
        same_as_twin()
        drive(60)
        # To empty: the slot dict is a fresh empty one.
        call("free_batch", model.freed(len(model.slots)))
        assert region._live == {} and region._live is not rebuilt
        assert sys.getsizeof(region._live) == sys.getsizeof({})
        same_as_twin()
        model.audit(region)
        twin.audit()
        same_as_twin()
        drive(60)
        assert region.live_bytes == twin.live_bytes


class TestHints:
    def test_whole_region_hint(self):
        region = small_region(HeapId.HOT, pages=8)
        events = region.emit_hints(HintKind.HUGEPAGE_ADVICE, window=3)
        assert events == [HintEvent(HintKind.HUGEPAGE_ADVICE, HeapId.HOT,
                                    0, 8, 3)]

    def test_pageout_coalesces_live_pages(self):
        region = small_region(HeapId.COLD, pages=16)
        locs = [region.install(bytes(4096)) for _ in range(5)]
        region.free(locs[2])  # hole at page 2
        events = region.emit_hints(HintKind.PAGEOUT_ADVICE, window=1)
        spans = [(e.start_page, e.end_page) for e in events]
        assert spans == [(0, 2), (3, 5)]

    def test_pageout_and_audit_leave_the_region_unchanged(self):
        # The region keeps no per-page state for advice or audit to clear:
        # what stays resident is a page backend's decision.
        region = small_region(HeapId.COLD, pages=16)
        locs = [region.install(bytes(n)) for n in (4096, 4096, 9000, 4096)]
        region.free(locs[1])  # an empty page between two live ones
        state = region_state(region)
        assert state == ({0: 1, 1: 0, 2: 1, 3: 1, 4: 1, 5: 0, 6: 1},
                         7 * PAGE_SIZE, 4096 + 9000 + 4096)
        region.emit_hints(HintKind.PAGEOUT_ADVICE, window=1)
        assert region_state(region) == state
        region.audit()
        assert region_state(region) == state

    def test_hint_line_format(self):
        event = HintEvent(HintKind.PAGEOUT_ADVICE, HeapId.COLD, 10, 14, 7)
        assert event.format_line() == "7,COLD,PAGEOUT_ADVICE,10,14"

    def test_write_hint_log(self, tmp_path):
        path = tmp_path / "hints.log"
        write_hint_log(
            [HintEvent(HintKind.PAGEOUT_ADVICE, HeapId.NEW, 0, 1, 2)], path)
        assert path.read_text() == "2,NEW,PAGEOUT_ADVICE,0,1\n"


class TestRegionManager:
    def test_three_packed_regions(self):
        mgr = RegionManager(region_length=1 << 20)
        new = mgr.allocate(HeapId.NEW, 64)
        hot = mgr.allocate(HeapId.HOT, 64)
        cold = mgr.allocate(HeapId.COLD, 64)
        assert mgr.heap_of(new) is HeapId.NEW
        assert mgr.heap_of(hot) is HeapId.HOT
        assert mgr.heap_of(cold) is HeapId.COLD
        assert hot == new + (1 << 20)
        assert cold == new + (2 << 20)

    def test_routing_by_locator(self):
        mgr = RegionManager(region_length=1 << 20)
        loc = mgr.allocate(HeapId.COLD, 5)
        mgr.write(loc, b"abcde")
        assert mgr.read(loc) == b"abcde"
        mgr.free(loc)
        assert mgr.live_slot_count() == 0

    def test_out_of_range_locator(self):
        mgr = RegionManager(region_length=1 << 20)
        for locator in (3 << 20, -1):
            with pytest.raises(RegionError):
                mgr.heap_of(locator)
            with pytest.raises(RegionError):
                mgr.read(locator)

    def test_overflowing_managed_space_rejected(self):
        with pytest.raises(RegionError):
            RegionManager(region_length=1 << 47)
