"""The guide-word arena: the vectorized scan against a scalar reference,
its concurrency, the registry's guide lifetimes, single and paired, and the
audit of the arena against the registry's free lists and graveyard."""
import random
import sys
import threading

import pytest

from tierheap.collector import SCAN_CHUNK, ScanResult
from tierheap.guideword import (ACCESSED_BIT, ATC_MAX, ATC_ONE, CIW_FIELD,
                                CIW_MAX, CIW_SHIFT, HEAP_SHIFT, LOCATOR_MASK,
                                GuideProtocolError, HeapId, pack, word_atc,
                                word_heap)
from tierheap.regions import PAGE_SIZE, RegionError
from tierheap.runtime import GuideRegistry, TierRuntime

REGION_LENGTH = 1 << 30
HEAPS = (HeapId.NEW, HeapId.HOT, HeapId.COLD)


def scalar_scan(registry, cold_threshold) -> ScanResult:
    """The per-guide scan loop the vectorized scan replaced."""
    scanned = 0
    promotions: list[int] = []
    demotions: list[int] = []
    cold_pages: set[int] = set()
    ws_pages: set[int] = set()
    for index in registry.indices():
        while True:
            word = registry.words[index]
            heap = word_heap(word)
            if heap == HeapId.RESERVED:
                break
            accessed = bool(word & ACCESSED_BIT)
            new_ciw = 0 if accessed \
                else min(((word >> CIW_SHIFT) & CIW_MAX) + 1, CIW_MAX)
            new_word = (word & ~(ACCESSED_BIT | CIW_FIELD)) \
                | (new_ciw << CIW_SHIFT)
            if new_word == word \
                    or registry.compare_and_swap(index, word, new_word):
                break
        if heap == HeapId.RESERVED:
            continue
        scanned += 1
        page = (word & LOCATOR_MASK) // PAGE_SIZE
        if accessed:
            ws_pages.add(page)
            if heap == HeapId.COLD:
                cold_pages.add(page)
                promotions.append(index)
            elif heap == HeapId.NEW:
                promotions.append(index)
        elif new_ciw >= cold_threshold and heap != HeapId.COLD:
            demotions.append(index)
    return ScanResult(scanned, promotions, demotions, len(ws_pages),
                      len(cold_pages))


def random_arena(seed: int, guides: int, spread: int) -> TierRuntime:
    """A runtime whose registry holds random words over all four heaps.

    Words carry the lock bit, nonzero ATC and CIW at 0, 30 and 31; about a
    quarter are tombstoned, some of those parked with ATC and the rest
    freed.  Locators fall in the first 64 * `spread` bytes of their heap's
    range, on few pages, so objects share pages: a spread of 1024, 4096 or
    8192 covers 16, 64 or 128 pages.
    """
    rng = random.Random(seed)
    runtime = TierRuntime(region_length=REGION_LENGTH)
    registry = runtime.registry
    for _ in range(guides):
        heap = rng.choice(HEAPS)
        locator = int(heap) * REGION_LENGTH \
            + rng.randrange(64 * spread)
        registry.create(pack(
            locator, atc=rng.choice((0, 0, 0, 1, 7, ATC_MAX)),
            ciw=rng.choice((0, 0, 1, 2, 5, 30, 31, 31)), heap=heap,
            accessed=rng.random() < 0.5,
            migration_lock=rng.random() < 0.1))
    for index in rng.sample(range(guides), guides // 4):
        registry.tombstone(index)
        registry.retire(index)
    registry.reclaim_retired()
    return runtime


CASES = [(seed, guides, spread, ct)
         for seed, (guides, spread, ct) in enumerate([
             (0, 4096, 3), (1, 4096, 1), (255, 1024, 32), (257, 8192, 2),
             (3000, 1024, 1), (3000, 4096, 3), (3000, 8192, 30),
             (3000, 4096, 31), (3000, 1024, 32), (3000, 8192, 16),
             (2 * SCAN_CHUNK + 5, 4096, 3), (SCAN_CHUNK, 1024, 31)])]


@pytest.mark.parametrize("seed,guides,spread,ct", CASES)
def test_vectorized_scan_matches_scalar_reference(seed, guides, spread, ct):
    reference = random_arena(seed, guides, spread)
    vectorized = random_arena(seed, guides, spread)
    assert reference.registry.words == vectorized.registry.words
    expected = scalar_scan(reference.registry, ct)
    assert vectorized.collector.scan(ct) == expected
    assert vectorized.registry.words == reference.registry.words


def test_second_scan_matches_too():
    reference = random_arena(99, 3000, 4096)
    vectorized = random_arena(99, 3000, 4096)
    for ct in (2, 5):
        assert vectorized.collector.scan(ct) \
            == scalar_scan(reference.registry, ct)
    assert vectorized.registry.words == reference.registry.words


def test_dereferences_and_atc_increments_racing_scans_are_kept():
    """Mutators CAS every guide while scans age the arena: no ATC
    increment is lost and no locator or heap bit changes."""
    runtime = TierRuntime(region_length=REGION_LENGTH)
    registry, collector = runtime.registry, runtime.collector
    guides = [registry.create(pack(0x40 * i, heap=HeapId.HOT))
              for i in range(2048)]
    before = [w & ~(ACCESSED_BIT | CIW_FIELD) for w in registry.words]
    threads, rounds = 4, 30
    stop = threading.Event()
    scans = []

    def mutator(offset):
        for _ in range(rounds):
            for index in guides[offset:] + guides[:offset]:
                registry.dereference(index)
                registry.atc_increment(index)

    def scanner():
        while not stop.is_set():
            scans.append(collector.scan(3).scanned)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        scan_thread = threading.Thread(target=scanner)
        scan_thread.start()
        workers = [threading.Thread(target=mutator, args=(t * 500,))
                   for t in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(60.0)
        stop.set()
        scan_thread.join(60.0)
    finally:
        sys.setswitchinterval(old_interval)
    assert not scan_thread.is_alive()
    assert not any(t.is_alive() for t in workers)
    assert len(scans) >= 2 and set(scans) == {len(guides)}
    assert [word_atc(registry.words[i]) for i in guides] \
        == [threads * rounds] * len(guides)
    after = [(w & ~(ACCESSED_BIT | CIW_FIELD)) - threads * rounds * ATC_ONE
             for w in registry.words]
    assert after == before


def test_create_reuses_a_free_index_under_its_stripe_lock():
    """A scan writes a stripe back under its lock, so create must store a
    reused index's word under that lock too or the write-back loses it."""
    runtime = TierRuntime(region_length=REGION_LENGTH)
    registry = runtime.registry
    index = registry.create(pack(0x100))
    registry.tombstone(index)
    registry.retire(index)
    registry.reclaim_retired()
    stone = registry.words[index]
    created = []
    lock = registry.stripes[index % len(registry.stripes)]
    with lock:
        creator = threading.Thread(
            target=lambda: created.append(registry.create(pack(0x200))))
        creator.start()
        creator.join(0.1)
        assert creator.is_alive()  # waiting for the stripe lock
        assert registry.words[index] == stone
    creator.join(5.0)
    assert not creator.is_alive()
    assert created == [index] and registry.words[index] == pack(0x200)


class TestGuideLifetimes:
    def test_retire_of_a_live_guide_raises(self):
        registry = GuideRegistry()
        index = registry.create(pack(0x40, heap=HeapId.HOT))
        with pytest.raises(GuideProtocolError, match="not a tombstone"):
            registry.retire(index)
        assert registry.live_count == 1 and list(registry.indices()) == [0]
        registry.audit()

    def test_fuzz_against_reference_set(self):
        """Random creates, deletes (some held by an ATC) and reclaims: the
        live indices and the live count follow a reference set."""
        rng = random.Random(4)
        registry = GuideRegistry()
        live: set[int] = set()
        held: set[int] = set()  # tombstoned with an ATC still counted
        for _ in range(20_000):
            roll = rng.random()
            if roll < 0.5 or not live:
                index = registry.create(pack(
                    rng.randrange(1 << 20), atc=rng.choice((0, 0, 0, 1)),
                    heap=rng.choice(HEAPS)))
                assert index not in live
                live.add(index)
            elif roll < 0.85:
                index = rng.choice(sorted(live))
                if word_atc(registry.tombstone(index)):
                    held.add(index)
                registry.retire(index)
                live.discard(index)
            elif roll < 0.95 and held:
                index = held.pop()
                registry.atc_decrement(index)
            else:
                registry.reclaim_retired(
                    rng.randrange(registry.graveyard_mark() + 1))
        assert list(registry.indices()) == sorted(live)
        assert registry.live_count == len(live)
        registry.audit()

    @pytest.mark.parametrize("live", [0, 1])
    def test_retire_pair_of_a_live_word_raises(self, live):
        registry = GuideRegistry()
        g = registry.create_pair(pack(0x40), pack(0x80))
        registry.tombstone(g + 1 - live)  # the other word is still live
        with pytest.raises(GuideProtocolError, match=f"guide {g + live}, "
                                                     "which is not a"):
            registry.retire_pair(g)
        assert registry.graveyard_mark() == 0
        registry.tombstone(g + live)
        registry.retire_pair(g)
        registry.audit()

    def test_fuzz_pairs_and_singles_against_reference_sets(self):
        """Random single and paired creates, deletes (some held by an ATC
        on either word of a pair) and reclaims: a pair is always two
        adjacent indices, `create` never returns half of a pair nor
        `create_pair` a single, and the live indices and count follow the
        reference sets."""
        rng = random.Random(9)
        registry = GuideRegistry()
        singles: set[int] = set()
        pairs: set[int] = set()
        was_single: set[int] = set()
        was_pair: set[int] = set()  # both indices of every pair ever made
        held: list[int] = []  # tombstoned with an ATC still counted
        reused = {"single": 0, "pair": 0}
        for _ in range(20_000):
            roll = rng.random()
            if roll < 0.25:
                index = registry.create(pack(rng.randrange(1 << 20),
                                             heap=rng.choice(HEAPS)))
                assert index not in was_pair
                assert index not in singles
                reused["single"] += index in was_single
                singles.add(index)
                was_single.add(index)
            elif roll < 0.5:
                g = registry.create_pair(
                    pack(rng.randrange(1 << 20), heap=rng.choice(HEAPS)),
                    pack(rng.randrange(1 << 20), heap=rng.choice(HEAPS)))
                assert not {g, g + 1} & was_single
                assert g not in pairs
                reused["pair"] += g in was_pair
                pairs.add(g)
                was_pair.update((g, g + 1))
            elif roll < 0.65 and singles:
                index = rng.choice(sorted(singles))
                if rng.random() < 0.3:
                    registry.atc_increment(index)
                    held.append(index)
                registry.tombstone(index)
                registry.retire(index)
                singles.discard(index)
            elif roll < 0.8 and pairs:
                g = rng.choice(sorted(pairs))
                for index in (g, g + 1):
                    if rng.random() < 0.2:
                        registry.atc_increment(index)
                        held.append(index)
                    registry.tombstone(index)
                registry.retire_pair(g)
                pairs.discard(g)
            elif roll < 0.9 and held:
                registry.atc_decrement(held.pop(rng.randrange(len(held))))
            else:
                registry.reclaim_retired(
                    rng.randrange(registry.graveyard_mark() + 1))
        live = singles | pairs | {g + 1 for g in pairs}
        assert list(registry.indices()) == sorted(live)
        assert registry.live_count == len(live)
        assert min(reused.values()) > 100
        registry.audit()

    def test_walk_racing_creates_and_retires(self):
        """A walk of `indices()` while another thread creates (appending to
        the arena) and retires guides: it raises nothing, comes out
        ascending, and yields every index live throughout."""
        registry = GuideRegistry()
        steady = [registry.create(pack(0x40 * i)) for i in range(5000)]
        stop = threading.Event()
        errors = []

        def churn():
            try:
                rounds = 0
                while not stop.is_set():
                    first = registry.create(pack(0x80))
                    registry.create(pack(0xC0))
                    registry.tombstone(first)
                    registry.retire(first)
                    rounds += 1
                    if not rounds % 64:
                        registry.reclaim_retired()
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        walks = []
        try:
            churner = threading.Thread(target=churn)
            churner.start()
            for _ in range(20):
                walks.append(list(registry.indices()))
            stop.set()
            churner.join(60.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not churner.is_alive() and errors == []
        assert len(registry.words) > len(steady)  # the churn appended
        for walk in walks:
            assert walk == sorted(set(walk))
            assert set(steady) <= set(walk)
        registry.audit()


class TestArenaAudit:
    def make_runtime(self):
        runtime = TierRuntime(region_length=REGION_LENGTH)
        for payload in (b"a" * 40, b"b" * 40):
            loc = runtime.regions.allocate(HeapId.NEW, len(payload))
            runtime.regions.write(loc, payload)
            runtime.registry.create(pack(loc, heap=HeapId.NEW))
        runtime.audit()
        return runtime

    def test_live_word_parked_fails(self):
        runtime = self.make_runtime()
        runtime.registry._free.append(1)  # free list claims a live guide
        with pytest.raises(AssertionError, match=r"RESERVED words \[\] but "
                                                 r"parked indices \[1\]"):
            runtime.audit()

    def test_tombstone_not_retired_fails(self):
        runtime = self.make_runtime()
        registry = runtime.registry
        runtime.regions.free(registry.tombstone(1) & LOCATOR_MASK)
        with pytest.raises(AssertionError, match=r"RESERVED words \[1\]"):
            runtime.audit()  # tombstoned but not retired
        registry.retire(1)
        runtime.audit()

    def test_index_parked_twice_fails(self):
        runtime = self.make_runtime()
        registry = runtime.registry
        runtime.regions.free(registry.tombstone(1) & LOCATOR_MASK)
        registry.retire(1)
        registry.reclaim_retired()
        runtime.audit()
        registry.retire(1)  # a second retire of the same delete
        with pytest.raises(AssertionError, match=r"guides \[1\] are parked "
                                                 r"twice"):
            runtime.audit()

    def test_pair_parked_twice_fails(self):
        runtime = self.make_runtime()
        registry = runtime.registry
        g = registry.create_pair(*(pack(loc, heap=HeapId.NEW) for loc in (
            runtime.regions.install(HeapId.NEW, b"key"),
            runtime.regions.install(HeapId.NEW, b"value"))))
        for index in (g, g + 1):
            runtime.regions.free(registry.tombstone(index) & LOCATOR_MASK)
        registry.retire_pair(g)
        registry.reclaim_retired()
        runtime.audit()
        registry.retire_pair(g)  # a second retire of the same delete
        with pytest.raises(AssertionError, match=r"guides \[2, 3\] are "
                                                 r"parked twice"):
            runtime.audit()

    def test_heap_bits_naming_another_region_fail(self):
        runtime = self.make_runtime()
        word = runtime.registry.words[1]
        runtime.registry.words[1] = word | (int(HeapId.HOT) << HEAP_SHIFT)
        with pytest.raises(AssertionError, match=(
                rf"guide 1: heap bits say HOT, locator "
                rf"{word & LOCATOR_MASK:#x} lies in NEW")):
            runtime.audit()
        runtime.registry.words[1] = word
        runtime.audit()

    def test_locator_outside_every_region_fails(self):
        runtime = self.make_runtime()
        runtime.registry.words[0] = pack(3 * REGION_LENGTH, heap=HeapId.COLD)
        with pytest.raises(RegionError, match="outside every region"):
            runtime.audit()

    def test_locator_of_a_freed_slot_fails(self):
        runtime = self.make_runtime()
        locator = runtime.registry.words[1] & LOCATOR_MASK
        runtime.regions.free(locator)  # freed behind the live guide's back
        with pytest.raises(AssertionError, match=(
                rf"guide 1: locator {locator:#x} is not a live slot")):
            runtime.audit()

    def test_two_guides_naming_one_slot_fail(self):
        runtime = self.make_runtime()
        words = runtime.registry.words
        locator = words[0] & LOCATOR_MASK
        words[1] = words[0]  # guide 1's slot is left with no guide: allowed
        with pytest.raises(AssertionError, match=(
                rf"guides \[0, 1\] name the same slot {locator:#x}")):
            runtime.audit()

    def test_slot_checks_span_many_scan_slices(self):
        runtime = TierRuntime(region_length=REGION_LENGTH)
        registry = runtime.registry
        for i in range(2 * SCAN_CHUNK + 3):
            heap = HEAPS[i % 3]
            registry.create(pack(runtime.regions.install(heap, b"s" * 16),
                                 heap=heap))
        registry.tombstone(5)  # a RESERVED word is not a guide
        registry.retire(5)
        runtime.audit()
        last = len(registry.words) - 1
        word = registry.words[last]
        registry.words[last] = registry.words[SCAN_CHUNK + 7]
        with pytest.raises(AssertionError, match=(
                rf"guides \[{SCAN_CHUNK + 7}, {last}\] name the same slot")):
            runtime.audit()
        registry.words[last] = word
        runtime.regions.free(word & LOCATOR_MASK)
        with pytest.raises(AssertionError, match=rf"guide {last}: locator"):
            runtime.audit()
