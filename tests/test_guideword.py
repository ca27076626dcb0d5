"""Guide-word packing, atomic transitions, and protocol edge cases."""
import random
import threading
import tracemalloc

import pytest

from tierheap.guideword import (ACCESSED_BIT, ATC_MAX, ATC_ONE, CIW_MAX,
                                LOCATOR_MASK, LOCK_BIT, EncodingError,
                                GuideArena, GuideProtocolError, GuideWord,
                                HeapId, pack, pack_fields,
                                unpack, word_atc, word_heap)
from tierheap.runtime import GuideRegistry


class TestPackUnpack:
    def test_known_encoding(self):
        # locator 0x1000, atc=1, heap=HOT, accessed → high nibble 0101.
        word = pack(0x1000, atc=1, heap=HeapId.HOT, accessed=True)
        assert word == 0x5001_0000_0000_1000

    def test_zero_metadata_word_equals_locator(self):
        assert pack(0xDEADBEEF) == 0xDEADBEEF

    def test_roundtrip_fuzz(self):
        rng = random.Random(1)
        for _ in range(10_000):
            fields = GuideWord(
                locator=rng.getrandbits(48),
                atc=rng.randint(0, ATC_MAX),
                ciw=rng.randint(0, CIW_MAX),
                heap=HeapId(rng.randint(0, 3)),
                accessed=bool(rng.getrandbits(1)),
                migration_lock=bool(rng.getrandbits(1)),
            )
            assert unpack(pack_fields(fields)) == fields

    @pytest.mark.parametrize("kwargs", [
        {"locator": 1 << 48},
        {"locator": -1},
        {"locator": 0, "atc": 128},
        {"locator": 0, "ciw": 32},
    ])
    def test_out_of_range_fields_rejected(self, kwargs):
        with pytest.raises(EncodingError):
            pack(**kwargs)

    def test_unpack_out_of_range(self):
        with pytest.raises(EncodingError):
            unpack(1 << 64)
        with pytest.raises(EncodingError):
            unpack(-1)

    def test_reserved_heap_is_representable(self):
        word = pack(0, heap=HeapId.RESERVED)
        assert unpack(word).heap is HeapId.RESERVED

    def test_field_helpers(self):
        word = pack(7, atc=9, heap=HeapId.COLD)
        assert word_atc(word) == 9
        assert word_heap(word) is HeapId.COLD

    def test_tombstone_preserves_atc_only(self):
        """The tombstone `GuideRegistry.retire` stores over a word."""
        registry = GuideRegistry()
        word = pack(0x1234, atc=5, ciw=7, heap=HeapId.HOT, accessed=True)
        g = registry.create(word, word)
        registry.retire(g)
        fields = unpack(registry.words[g])
        assert fields.heap is HeapId.RESERVED
        assert fields.atc == 5
        assert fields.locator == 0 and fields.ciw == 0
        assert not fields.accessed and not fields.migration_lock


class TestDereference:
    def test_sets_accessed_and_returns_locator(self):
        arena = GuideArena([pack(0x42, heap=HeapId.HOT)])
        assert arena.dereference(0) == 0x42
        assert arena.words[0] & ACCESSED_BIT

    def test_fast_path_is_a_plain_load(self):
        word = pack(0x42, accessed=True)
        arena = GuideArena([word])
        assert arena.dereference(0) == 0x42
        assert arena.words[0] == word

    def test_clears_migration_lock(self):
        arena = GuideArena([pack(0x42, migration_lock=True)])
        arena.dereference(0)
        assert not arena.words[0] & LOCK_BIT
        assert arena.words[0] & ACCESSED_BIT

    def test_locator_bits_never_change(self):
        rng = random.Random(2)
        arena = GuideArena([pack(0xABCDE, heap=HeapId.NEW)])
        held = 0
        for _ in range(2_000):
            op = rng.randrange(3)
            if op == 0:
                arena.dereference(0)
            elif op == 1:
                if arena.atc_increment(0):
                    held += 1
            elif held:
                arena.atc_decrement(0)
                held -= 1
            assert arena.words[0] & LOCATOR_MASK == 0xABCDE

    def test_concurrent_dereference_stress(self):
        arena = GuideArena([pack(0x77777, heap=HeapId.COLD)])
        n_threads, per_thread = 8, 12_500
        results = []

        def body():
            ok = all(arena.dereference(0) == 0x77777
                     for _ in range(per_thread))
            results.append(ok)

        threads = [threading.Thread(target=body) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results)
        word = arena.words[0]
        assert word & ACCESSED_BIT and not word & LOCK_BIT
        assert word & LOCATOR_MASK == 0x77777


class TestAtcProtocol:
    def test_increment_decrement(self):
        arena = GuideArena([pack(1)])
        assert arena.atc_increment(0)
        assert word_atc(arena.words[0]) == 1
        arena.atc_decrement(0)
        assert word_atc(arena.words[0]) == 0

    def test_increment_clears_lock(self):
        arena = GuideArena([pack(1, migration_lock=True)])
        assert arena.atc_increment(0)
        assert not arena.words[0] & LOCK_BIT

    def test_saturation_returns_false(self):
        arena = GuideArena([pack(1, atc=ATC_MAX)])
        assert not arena.atc_increment(0)
        assert word_atc(arena.words[0]) == ATC_MAX

    def test_decrement_below_zero_raises(self):
        arena = GuideArena([pack(1)])
        with pytest.raises(GuideProtocolError):
            arena.atc_decrement(0)


class TestMigrationCas:
    """The two stores of the migration protocol, made as the collector's
    lock and commit passes make them: a compare against the word they
    loaded or locked."""

    def test_lock_from_quiescent_word(self):
        word = pack(0x100, heap=HeapId.NEW)
        arena = GuideArena([word])
        assert arena.compare_and_swap(0, word, word | LOCK_BIT)
        assert arena.words[0] == word | LOCK_BIT

    def test_commit_after_clean_lock(self):
        locked = pack(0x100, heap=HeapId.NEW, migration_lock=True)
        arena = GuideArena([locked])
        new_word = pack(0x200, heap=HeapId.HOT)
        assert arena.compare_and_swap(0, locked, new_word)
        assert arena.words[0] == new_word

    def test_intervening_dereference_aborts_commit(self):
        locked = pack(0x100, heap=HeapId.NEW, migration_lock=True)
        arena = GuideArena([locked])
        assert arena.dereference(0) == 0x100  # clears the lock
        assert not arena.compare_and_swap(0, locked,
                                          pack(0x200, heap=HeapId.HOT))
        assert arena.words[0] & LOCATOR_MASK == 0x100


def test_a_guide_costs_only_its_word():
    registry = GuideRegistry()
    word = pack(0x40, heap=HeapId.HOT)
    guides = 50_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(guides // 2):  # one entry is two guides
            registry.create(word, word)
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert allocated / guides < 32, f"{allocated / guides:.1f} B per guide"
