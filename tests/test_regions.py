"""Temperature-segregated regions: size classes, accounting, hints."""
import random

import pytest

from tierheap.guideword import HeapId
from tierheap.regions import (PAGE_SIZE, DoubleFreeError, HeapRegion,
                              HintEvent, HintKind, RegionError,
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
        assert region.resident_bytes() == 4 * PAGE_SIZE
        assert region.live_bytes == 16 << 10
        region.free(loc)
        region.audit()  # audit clears residency of emptied pages
        assert region.resident_bytes() == 0

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
        assert installed._free == allocated._free
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
        loc = mgr.install(HeapId.COLD, b"abcde")
        assert mgr.heap_of(loc) is HeapId.COLD
        assert mgr.read(loc) == b"abcde"
        assert mgr.slots[HeapId.COLD][loc - (2 << 20)] == b"abcde"


def region_state(region):
    """Everything a placement changes: slots, free lists, bump pointer,
    page table and live bytes."""
    return (dict(region._live), {c: list(f) for c, f in region._free.items()},
            region._bump, region.page_table(), region.live_bytes)


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
            assert region_state(batch) == region_state(single)
            payloads = [bytes([rng.randrange(256)]) * rng.choice(BATCH_LENGTHS)
                        for _ in range(rng.randrange(1, 80))]
            got = batch.allocate_batch(payloads)
            assert got == [install_or_none(single, p) for p in payloads]
            assert all(batch.read(loc) is p
                       for loc, p in zip(got, payloads) if loc is not None)
            assert region_state(batch) == region_state(single)
            live += [loc for loc in got if loc is not None]
        batch.audit()
        single.audit()
        return batch

    @pytest.mark.parametrize("seed", range(6))
    def test_random_class_mixes_with_holes(self, seed):
        region = self.churn(seed, pages=4096, rounds=40)
        assert region.live_slot_count and any(region._free.values())

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
        assert region_state(batch) == region_state(single)
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
            assert region_state(batch) == region_state(single)
        batch.audit()

    def test_rejects_what_install_rejects(self):
        region = small_region()
        for bad in (b"", b"x" * ((64 << 10) + 1)):
            before = region_state(region)
            with pytest.raises(RegionError) as batched:
                region.allocate_batch([b"ok", bad])
            with pytest.raises(RegionError) as installed:
                region.install(bad)
            assert str(batched.value) == str(installed.value)
            assert region_state(region) == before


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
        before = region_state(region)
        batch = [locators[0], locators[2], locators[3]]
        batch.insert(2, locators[2] if bad == "repeated" else locators[1])
        with pytest.raises(DoubleFreeError, match=f"{batch[2]:#x}"):
            region.free_batch(batch)
        assert region_state(region) == before
        region.audit()
        region.free_batch([locators[0], locators[2], locators[3]])
        region.audit()
        assert region.live_slot_count == 2


class TestHints:
    def test_whole_region_hint(self):
        region = small_region(HeapId.HOT, pages=8)
        events = region.emit_hints(HintKind.HUGEPAGE_ADVICE, window=3)
        assert events == [HintEvent(HintKind.HUGEPAGE_ADVICE, HeapId.HOT,
                                    0, 8, 3)]

    def test_pageout_coalesces_and_clears_residency(self):
        region = small_region(HeapId.COLD, pages=16)
        locs = [region.install(bytes(4096)) for _ in range(5)]
        region.free(locs[2])  # hole at page 2
        events = region.emit_hints(HintKind.PAGEOUT_ADVICE, window=1)
        spans = [(e.start_page, e.end_page) for e in events]
        assert spans == [(0, 2), (3, 5)]
        assert region.resident_bytes() == PAGE_SIZE  # only the hole

    def test_hint_line_format(self):
        event = HintEvent(HintKind.PAGEOUT_ADVICE, HeapId.COLD, 10, 14, 7)
        assert event.format_line() == "7,COLD,PAGEOUT_ADVICE,10,14"

    def test_write_hint_log(self, tmp_path):
        path = tmp_path / "hints.log"
        write_hint_log([HintEvent(HintKind.COLD_ADVICE, HeapId.NEW, 0, 1, 2)],
                       path)
        assert path.read_text() == "2,NEW,COLD_ADVICE,0,1\n"


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
