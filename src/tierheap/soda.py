"""Sparse two-level bitmap over the guide-cell arena.

One bit per guide cell, grouped into lazily materialized fixed-size blocks so
memory stays proportional to the populated index range.  The registry sets a
guide's bit when it creates the guide and clears it when the guide is
retired; the bitmap counts live guides and `TierRuntime.audit` checks it
against the word arena.  Iteration (`indices`) runs concurrently with
mutators under a snapshot-tolerant contract: every index set before
iteration starts and not cleared before being visited is seen; indices added
mid-iteration may or may not be.
"""
from __future__ import annotations

import threading

DEFAULT_BLOCK_SIZE = 65536  # cells per block; 8 KiB of bits


class SodaError(RuntimeError):
    """Bitmap/registry disagreement, e.g. clearing a bit that is not set."""


class _Block:
    __slots__ = ("words", "population")

    def __init__(self, word_count: int):
        self.words = [0] * word_count
        self.population = 0


class SodaBitmap:
    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size <= 0 or block_size % 64:
            raise ValueError("block_size must be a positive multiple of 64")
        self.block_size = block_size
        self._words_per_block = block_size // 64
        self._blocks: dict[int, _Block] = {}
        self._lock = threading.Lock()
        self._population = 0

    def set_bit(self, index: int) -> None:
        block_index, offset = divmod(index, self.block_size)
        word_index, bit = divmod(offset, 64)
        mask = 1 << bit
        with self._lock:
            block = self._blocks.get(block_index)
            if block is None:
                block = self._blocks[block_index] = _Block(self._words_per_block)
            if not block.words[word_index] & mask:
                block.words[word_index] |= mask
                block.population += 1
                self._population += 1

    def clear_bit(self, index: int) -> None:
        block_index, offset = divmod(index, self.block_size)
        word_index, bit = divmod(offset, 64)
        mask = 1 << bit
        with self._lock:
            block = self._blocks.get(block_index)
            if block is None or not block.words[word_index] & mask:
                raise SodaError(f"clear of unset bit {index}")
            block.words[word_index] &= ~mask
            block.population -= 1
            self._population -= 1
            if block.population == 0:
                del self._blocks[block_index]

    def test(self, index: int) -> bool:
        block_index, offset = divmod(index, self.block_size)
        block = self._blocks.get(block_index)
        if block is None:
            return False
        word_index, bit = divmod(offset, 64)
        return bool(block.words[word_index] >> bit & 1)

    def indices(self):
        """Yield set indices in ascending order (snapshot-tolerant)."""
        for block_index in sorted(self._blocks):
            block = self._blocks.get(block_index)
            if block is None:
                continue
            base = block_index * self.block_size
            words = block.words
            for word_index in range(self._words_per_block):
                w = words[word_index]
                word_base = base + word_index * 64
                while w:
                    low = w & -w
                    yield word_base + low.bit_length() - 1
                    w ^= low

    def __len__(self) -> int:
        return self._population

    @property
    def block_count(self) -> int:
        return len(self._blocks)
