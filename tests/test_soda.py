"""Sparse two-level live-cell bitmap."""
import random

import pytest

from tierheap.soda import DEFAULT_BLOCK_SIZE, SodaBitmap, SodaError

BLOCK_BITS = DEFAULT_BLOCK_SIZE


def test_set_test_clear():
    soda = SodaBitmap()
    assert not soda.test(5)
    soda.set_bit(5)
    assert soda.test(5)
    soda.clear_bit(5)
    assert not soda.test(5)


def test_clear_unset_raises():
    soda = SodaBitmap()
    with pytest.raises(SodaError):
        soda.clear_bit(17)


def test_double_set_is_idempotent():
    soda = SodaBitmap()
    soda.set_bit(3)
    soda.set_bit(3)
    assert len(soda) == 1


def test_len_and_block_reclaim():
    soda = SodaBitmap()
    far = 5 * BLOCK_BITS + 11
    soda.set_bit(1)
    soda.set_bit(far)
    assert len(soda) == 2
    assert soda.block_count == 2
    soda.clear_bit(far)
    assert soda.block_count == 1  # emptied block is dropped immediately
    assert len(soda) == 1


def test_iteration_ascending_across_blocks():
    soda = SodaBitmap()
    values = sorted(random.Random(3).sample(range(4 * BLOCK_BITS), 500))
    for v in values:
        soda.set_bit(v)
    assert list(soda.indices()) == values


def test_snapshot_tolerant_iteration():
    soda = SodaBitmap()
    for v in range(0, 1000, 2):
        soda.set_bit(v)
    out = []
    it = soda.indices()
    for i, v in enumerate(it):
        out.append(v)
        if i == 100:
            soda.clear_bit(900)  # ahead of the cursor
            soda.set_bit(901)
    assert 900 not in out
    assert out == sorted(out)


def test_fuzz_against_reference_set():
    rng = random.Random(4)
    soda, reference = SodaBitmap(), set()
    for _ in range(20_000):
        v = rng.randrange(0, 3 * BLOCK_BITS)
        if v in reference:
            soda.clear_bit(v)
            reference.discard(v)
        else:
            soda.set_bit(v)
            reference.add(v)
    assert list(soda.indices()) == sorted(reference)
    assert len(soda) == len(reference)
