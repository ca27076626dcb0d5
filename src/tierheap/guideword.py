"""Packed guide words and the atomic transitions defined on them.

A guide word is a single 64-bit value that both locates a managed object and
carries the per-object metadata the runtime needs: an active-thread count
(ATC), a consecutive-inactive-window count (CIW), the identity of the heap
the object currently lives in, an accessed flag, and a migration lock.
Because everything lives in one word, every state change is a single
compare-and-swap and readers always observe a consistent (location, metadata)
pair.

Bit layout (low to high):

    bits  0..47   locator  (offset into the managed address space)
    bits 48..54   atc      (0..127)
    bits 55..59   ciw      (0..31)
    bits 60..61   heap id  (NEW=0, HOT=1, COLD=2, RESERVED=3)
    bit  62       accessed
    bit  63       migration lock

With all-zero metadata the word equals its locator, which keeps debugging
output readable.
"""
from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from enum import IntEnum

LOCATOR_BITS = 48
LOCATOR_MASK = (1 << LOCATOR_BITS) - 1

ATC_SHIFT = 48
ATC_MAX = 127
ATC_ONE = 1 << ATC_SHIFT
ATC_FIELD = ATC_MAX << ATC_SHIFT

CIW_SHIFT = 55
CIW_MAX = 31
CIW_FIELD = CIW_MAX << CIW_SHIFT

HEAP_SHIFT = 60
HEAP_FIELD = 3 << HEAP_SHIFT

ACCESSED_BIT = 1 << 62
LOCK_BIT = 1 << 63

WORD_MASK = (1 << 64) - 1

# A word with exactly ACCESSED_BIT of these set dereferences by a plain load.
DEREF_BITS = ACCESSED_BIT | LOCK_BIT


class HeapId(IntEnum):
    NEW = 0
    HOT = 1
    COLD = 2
    RESERVED = 3


class EncodingError(ValueError):
    """A guide-word field is outside its bit width."""


class GuideProtocolError(RuntimeError):
    """An ATC/scope protocol rule was violated (e.g. decrement below zero)."""


@dataclass
class GuideWord:
    """Unpacked view of a guide word."""

    locator: int
    atc: int = 0
    ciw: int = 0
    heap: HeapId = HeapId.NEW
    accessed: bool = False
    migration_lock: bool = False


def pack(locator: int, atc: int = 0, ciw: int = 0, heap: HeapId = HeapId.NEW,
         accessed: bool = False, migration_lock: bool = False) -> int:
    """Encode fields into a 64-bit guide word.

    Raises EncodingError when any field exceeds its width.  RESERVED is a
    representable heap id (it is the tombstone encoding); liveness rules are
    enforced by the registry, not here.
    """
    if not 0 <= locator <= LOCATOR_MASK:
        raise EncodingError(f"locator out of range: {locator:#x}")
    if not 0 <= atc <= ATC_MAX:
        raise EncodingError(f"atc out of range: {atc}")
    if not 0 <= ciw <= CIW_MAX:
        raise EncodingError(f"ciw out of range: {ciw}")
    if not 0 <= int(heap) <= 3:
        raise EncodingError(f"heap id out of range: {heap}")
    word = locator
    word |= atc << ATC_SHIFT
    word |= ciw << CIW_SHIFT
    word |= int(heap) << HEAP_SHIFT
    if accessed:
        word |= ACCESSED_BIT
    if migration_lock:
        word |= LOCK_BIT
    return word


def pack_fields(fields: GuideWord) -> int:
    return pack(fields.locator, fields.atc, fields.ciw, fields.heap,
                fields.accessed, fields.migration_lock)


def unpack(word: int) -> GuideWord:
    """Decode a 64-bit guide word.  Inverse of pack for any in-range word."""
    if not 0 <= word <= WORD_MASK:
        raise EncodingError(f"word out of range: {word:#x}")
    return GuideWord(
        locator=word & LOCATOR_MASK,
        atc=(word >> ATC_SHIFT) & ATC_MAX,
        ciw=(word >> CIW_SHIFT) & CIW_MAX,
        heap=HeapId((word >> HEAP_SHIFT) & 3),
        accessed=bool(word & ACCESSED_BIT),
        migration_lock=bool(word & LOCK_BIT),
    )


def word_atc(word: int) -> int:
    return (word >> ATC_SHIFT) & ATC_MAX


def word_heap(word: int) -> HeapId:
    return HeapId((word >> HEAP_SHIFT) & 3)


# Tombstone installed by delete (`GuideRegistry.retire`): RESERVED heap, zero
# locator, OR-ed with the replaced word's ATC bits, so scopes opened before
# the delete can still balance their decrements against this word.
TOMBSTONE_BASE = 3 << HEAP_SHIFT


class GuideArena:
    """Guide words stored unboxed in one `array("Q")`, addressed by index.

    `words[i]` is guide i's word.  Every store to an existing word happens
    under the arena's one lock, `word_lock`, so its holder sees no word
    change: the collector ages the whole arena, and makes the migration
    protocol's lock and commit stores for a chunk of guides, in one such
    section (`GuideRegistry.exclusive`, which also holds off appends).
    CPython has no 64-bit CAS primitive, so every read-modify-write of a
    word is emulated under `word_lock`; under the interpreter lock, finer
    locks would buy no parallelism.  Plain loads read `words[i]` directly,
    which is atomic under the GIL and matches the intended single-word
    load semantics.
    """

    def __init__(self, words=()):
        self.words = array("Q", words)
        self.word_lock = threading.Lock()

    def compare_and_swap(self, index: int, expected: int, new: int) -> bool:
        words = self.words
        with self.word_lock:
            if words[index] == expected:
                words[index] = new
                return True
            return False

    def dereference(self, index: int) -> int:
        """Resolve guide `index` to its current locator, recording the access.

        If the accessed bit is already set and no migration lock is pending,
        this is a plain load and no store is issued.  Otherwise one store
        under `word_lock`, which every store to a word takes, installs
        accessed=1, lock=0; the locator bits are never modified.  A
        tombstone (RESERVED heap) is left as it is, and resolves to its zero
        locator.
        """
        words = self.words
        w = words[index]
        if w & DEREF_BITS == ACCESSED_BIT:
            return w & LOCATOR_MASK
        with self.word_lock:
            w = words[index]
            if w & HEAP_FIELD != HEAP_FIELD:
                w = (w | ACCESSED_BIT) & ~LOCK_BIT
                words[index] = w
        return w & LOCATOR_MASK

    def atc_increment(self, index: int) -> bool:
        """atc += 1, clearing the migration lock (an increment is a use).

        Returns False without modification when the count is saturated; the
        caller then treats the object as migration-ineligible this epoch.
        """
        words = self.words
        with self.word_lock:
            w = words[index]
            if (w >> ATC_SHIFT) & ATC_MAX == ATC_MAX:
                return False
            words[index] = (w & ~LOCK_BIT) + ATC_ONE
            return True

    def atc_decrement(self, index: int) -> None:
        words = self.words
        with self.word_lock:
            w = words[index]
            if (w >> ATC_SHIFT) & ATC_MAX == 0:
                raise GuideProtocolError(
                    f"ATC decrement below zero on guide {index}")
            words[index] = w - ATC_ONE


# The benchmark's tracer imports the class under this name and replaces
# `dereference`, `compare_and_swap` and `atc_increment` in its `__dict__`.
# GuideRegistry inherits them unchanged, so the wrappers see every call of
# those methods.  A store's untracked get calls none of them: it
# dereferences inline, first touches included.
GuideCell = GuideArena
