"""The guide-word arena: the vectorized scan against a scalar reference,
its concurrency, the registry's entry lifetimes, and the audit of the arena
against the registry's free list and graveyard."""
import random
import sys
import threading

import pytest

from tierheap.collector import SCAN_CHUNK, ScanResult
from tierheap.guideword import (ACCESSED_BIT, ATC_MAX, ATC_ONE, CIW_FIELD,
                                CIW_MAX, CIW_SHIFT, HEAP_SHIFT, LOCATOR_MASK,
                                TOMBSTONE_BASE, GuideProtocolError, HeapId,
                                pack, word_atc, word_heap)
from tierheap.regions import PAGE_SIZE, RegionError
from tierheap.runtime import GuideRegistry, TierRuntime

from conftest import add_entry
from test_races import tombstone_and_free

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
    """A runtime whose registry holds random words over all four heaps,
    `guides` of them rounded up to whole entries.

    Words carry the lock bit, nonzero ATC and CIW at 0, 30 and 31; about a
    quarter of the entries are retired, some of those parked with ATC and
    the rest freed.  Locators fall in the first 64 * `spread` bytes of
    their heap's range, on few pages, so objects share pages: a spread of
    1024, 4096 or 8192 covers 16, 64 or 128 pages.
    """
    rng = random.Random(seed)
    runtime = TierRuntime(region_length=REGION_LENGTH)
    registry = runtime.registry

    def random_word():
        heap = rng.choice(HEAPS)
        locator = int(heap) * REGION_LENGTH \
            + rng.randrange(64 * spread)
        return pack(
            locator, atc=rng.choice((0, 0, 0, 1, 7, ATC_MAX)),
            ciw=rng.choice((0, 0, 1, 2, 5, 30, 31, 31)), heap=heap,
            accessed=rng.random() < 0.5,
            migration_lock=rng.random() < 0.1)

    entries = [registry.create(random_word(), random_word())
               for _ in range((guides + 1) // 2)]
    for g in rng.sample(entries, len(entries) // 4):
        registry.retire(g)
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
    guides = [i for g in (registry.create(pack(0x80 * i, heap=HeapId.HOT),
                                          pack(0x80 * i + 0x40,
                                               heap=HeapId.HOT))
                          for i in range(1024)) for i in (g, g + 1)]
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
    index = registry.create(pack(0x100), pack(0x140))
    registry.retire(index)
    registry.reclaim_retired()
    stone = registry.words[index]
    created = []
    lock = registry.stripes[index % len(registry.stripes)]
    with lock:
        creator = threading.Thread(target=lambda: created.append(
            registry.create(pack(0x200), pack(0x240))))
        creator.start()
        creator.join(0.1)
        assert creator.is_alive()  # waiting for the stripe lock
        assert registry.words[index] == stone
    creator.join(5.0)
    assert not creator.is_alive()
    assert created == [index]
    assert registry.words[index:index + 2].tolist() == [pack(0x200),
                                                       pack(0x240)]


class TestGuideLifetimes:
    def test_a_second_retire_raises_before_storing(self):
        """A second retire of one entry is refused before it stores
        anything: both words, with their ATC, and the graveyard stay as the
        first retire left them."""
        runtime = TierRuntime(region_length=REGION_LENGTH)
        registry = runtime.registry
        g = add_entry(runtime)
        assert registry.atc_increment(g + 1)  # an open scope holds it
        tombstone_and_free(runtime, g)
        words, mark = registry.words.tolist(), registry.graveyard_mark()
        with pytest.raises(GuideProtocolError,
                           match=f"retire of entry {g}, which is already "
                                 "retired"):
            registry.retire(g)
        assert registry.words.tolist() == words
        assert registry.graveyard_mark() == mark == 1
        assert registry.live_count == 0 and list(registry.indices()) == []
        runtime.audit()

    def test_fuzz_against_reference_set(self):
        """Random creates, deletes (some held by an ATC on either word) and
        reclaims: an entry is always two adjacent indices, freed pairs are
        reused, and the live indices and live count follow a reference
        set."""
        rng = random.Random(9)
        registry = GuideRegistry()
        entries: set[int] = set()
        made: set[int] = set()  # every entry ever created
        held: list[int] = []  # tombstoned with an ATC still counted
        reused = 0
        for _ in range(20_000):
            roll = rng.random()
            if roll < 0.45 or not entries:
                g = registry.create(
                    pack(rng.randrange(1 << 20), heap=rng.choice(HEAPS)),
                    pack(rng.randrange(1 << 20), heap=rng.choice(HEAPS)))
                assert g not in entries and not g % 2
                reused += g in made
                entries.add(g)
                made.add(g)
            elif roll < 0.75:
                g = rng.choice(sorted(entries))
                for index in (g, g + 1):
                    if rng.random() < 0.2:
                        registry.atc_increment(index)
                        held.append(index)
                registry.retire(g)
                entries.discard(g)
            elif roll < 0.87 and held:
                registry.atc_decrement(held.pop(rng.randrange(len(held))))
            else:
                registry.reclaim_retired(
                    rng.randrange(registry.graveyard_mark() + 1))
        live = entries | {g + 1 for g in entries}
        assert list(registry.indices()) == sorted(live)
        assert registry.live_count == len(live)
        assert reused > 100
        registry.audit()

    def test_walk_racing_creates_and_retires(self):
        """A walk of `indices()` while another thread creates (appending to
        the arena) and retires guides: it raises nothing, comes out
        ascending, and yields every index live throughout."""
        registry = GuideRegistry()
        for i in range(2500):
            registry.create(pack(0x80 * i), pack(0x80 * i + 0x40))
        steady = list(range(5000))
        stop = threading.Event()
        errors = []

        def churn():
            try:
                rounds = 0
                while not stop.is_set():
                    first = registry.create(pack(0x80), pack(0xA0))
                    registry.create(pack(0xC0), pack(0xE0))
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
        """One entry, guides 0 and 1, whose slots hold 40 B each."""
        runtime = TierRuntime(region_length=REGION_LENGTH)
        locs = []
        for payload in (b"a" * 40, b"b" * 40):
            loc = runtime.regions.allocate(HeapId.NEW, len(payload))
            runtime.regions.write(loc, payload)
            locs.append(loc)
        runtime.registry.create(*(pack(loc, heap=HeapId.NEW) for loc in locs))
        runtime.audit()
        return runtime

    def test_live_word_parked_fails(self):
        runtime = self.make_runtime()
        runtime.registry._free.append(0)  # free list claims a live entry
        with pytest.raises(AssertionError, match=r"RESERVED words \[\] but "
                                                 r"parked indices \[0, 1\]"):
            runtime.audit()

    def test_tombstone_not_retired_fails(self):
        runtime = self.make_runtime()
        registry = runtime.registry
        runtime.regions.free(registry.words[1] & LOCATOR_MASK)
        registry.words[1] = TOMBSTONE_BASE  # stored outside `retire`
        with pytest.raises(AssertionError, match=r"RESERVED words \[1\]"):
            runtime.audit()  # tombstoned but not retired
        runtime.regions.free(registry.retire(0)[0] & LOCATOR_MASK)
        runtime.audit()

    def test_index_parked_twice_fails(self):
        """Two parked entries that overlap share an index."""
        runtime = self.make_runtime()
        registry = runtime.registry
        g = add_entry(runtime)
        for entry in (0, g):
            tombstone_and_free(runtime, entry)
        registry.reclaim_retired()
        runtime.audit()
        registry._free.append(1)  # entry 1 overlaps both 0 and 2
        with pytest.raises(AssertionError, match=r"guides \[1, 2\] are "
                                                 r"parked twice"):
            runtime.audit()

    def test_pair_parked_twice_fails(self):
        runtime = self.make_runtime()
        registry = runtime.registry
        g = add_entry(runtime)
        tombstone_and_free(runtime, g)
        registry.reclaim_retired()
        runtime.audit()
        with pytest.raises(GuideProtocolError):
            registry.retire(g)  # a second retire of the same delete
        registry._graveyard.append(g)  # parked again behind its back
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
        for i in range(0, 2 * SCAN_CHUNK + 4, 2):
            registry.create(*(
                pack(runtime.regions.heaps[heap].install(b"s" * 16),
                     heap=heap)
                for heap in (HEAPS[i % 3], HEAPS[(i + 1) % 3])))
        registry.retire(4)  # RESERVED words are not guides
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
