"""Guide-word packing, atomic transitions, and protocol edge cases."""
import random
import threading
from array import array

import pytest

from tierheap.guideword import (ACCESSED_BIT, ATC_MAX, ATC_ONE, CIW_MAX,
                                LOCATOR_MASK, LOCK_BIT, EncodingError,
                                GuideCell, GuideProtocolError, GuideWord,
                                HeapId, pack, pack_fields, tombstone_from,
                                unpack, word_atc, word_heap)


def one_word_cell(word: int) -> GuideCell:
    return GuideCell(0, array("Q", [word]))


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
        word = pack(0x1234, atc=5, ciw=7, heap=HeapId.HOT, accessed=True)
        stone = tombstone_from(word)
        fields = unpack(stone)
        assert fields.heap is HeapId.RESERVED
        assert fields.atc == 5
        assert fields.locator == 0 and fields.ciw == 0
        assert not fields.accessed and not fields.migration_lock


class TestDereference:
    def test_sets_accessed_and_returns_locator(self):
        cell = one_word_cell(pack(0x42, heap=HeapId.HOT))
        assert cell.dereference() == 0x42
        assert cell.word & ACCESSED_BIT

    def test_fast_path_is_a_plain_load(self):
        word = pack(0x42, accessed=True)
        cell = one_word_cell(word)
        assert cell.dereference() == 0x42
        assert cell.word == word

    def test_clears_migration_lock(self):
        cell = one_word_cell(pack(0x42, migration_lock=True))
        cell.dereference()
        assert not cell.word & LOCK_BIT
        assert cell.word & ACCESSED_BIT

    def test_locator_bits_never_change(self):
        rng = random.Random(2)
        cell = one_word_cell(pack(0xABCDE, heap=HeapId.NEW))
        held = 0
        for _ in range(2_000):
            op = rng.randrange(3)
            if op == 0:
                cell.dereference()
            elif op == 1:
                if cell.atc_increment():
                    held += 1
            elif held:
                cell.atc_decrement()
                held -= 1
            assert cell.word & LOCATOR_MASK == 0xABCDE

    def test_concurrent_dereference_stress(self):
        cell = one_word_cell(pack(0x77777, heap=HeapId.COLD))
        n_threads, per_thread = 8, 12_500
        results = []

        def body():
            ok = all(cell.dereference() == 0x77777
                     for _ in range(per_thread))
            results.append(ok)

        threads = [threading.Thread(target=body) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results)
        word = cell.word
        assert word & ACCESSED_BIT and not word & LOCK_BIT
        assert word & LOCATOR_MASK == 0x77777


class TestAtcProtocol:
    def test_increment_decrement(self):
        cell = one_word_cell(pack(1))
        assert cell.atc_increment()
        assert word_atc(cell.word) == 1
        cell.atc_decrement()
        assert word_atc(cell.word) == 0

    def test_increment_clears_lock(self):
        cell = one_word_cell(pack(1, migration_lock=True))
        assert cell.atc_increment()
        assert not cell.word & LOCK_BIT

    def test_saturation_returns_false(self):
        cell = one_word_cell(pack(1, atc=ATC_MAX))
        assert not cell.atc_increment()
        assert word_atc(cell.word) == ATC_MAX

    def test_decrement_below_zero_raises(self):
        cell = one_word_cell(pack(1))
        with pytest.raises(GuideProtocolError):
            cell.atc_decrement()


class TestMigrationCas:
    def test_lock_from_quiescent_word(self):
        word = pack(0x100, heap=HeapId.NEW)
        cell = one_word_cell(word)
        locked = cell.try_lock_for_migration(word)
        assert locked == word | LOCK_BIT
        assert cell.word == locked

    def test_lock_on_busy_word_raises(self):
        cell = one_word_cell(pack(0x100, atc=1))
        with pytest.raises(GuideProtocolError):
            cell.try_lock_for_migration(cell.word)

    def test_lock_fails_when_word_changed(self):
        word = pack(0x100)
        cell = one_word_cell(word)
        cell.dereference()  # word changed since the scan
        assert cell.try_lock_for_migration(word) is None

    def test_commit_after_clean_lock(self):
        word = pack(0x100, heap=HeapId.NEW)
        cell = one_word_cell(word)
        locked = cell.try_lock_for_migration(word)
        new_word = pack(0x200, heap=HeapId.HOT)
        assert cell.commit_migration(locked, new_word)
        assert cell.word == new_word

    def test_intervening_dereference_aborts_commit(self):
        word = pack(0x100, heap=HeapId.NEW)
        cell = one_word_cell(word)
        locked = cell.try_lock_for_migration(word)
        assert cell.dereference() == 0x100  # clears the lock
        assert not cell.commit_migration(locked, pack(0x200, heap=HeapId.HOT))
        assert cell.word & LOCATOR_MASK == 0x100
