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

# Bounded retry budget for the dereference read-modify-write.  After this many
# failed CAS attempts the reader falls back to a plain load; a missed flag
# update only delays hotness classification by one window.
DEREF_MAX_RETRIES = 64


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


# Tombstone installed by delete: RESERVED heap, zero locator.  ATC bits are
# preserved by the caller so scopes opened before the delete can still balance
# their decrements against this word.
TOMBSTONE_BASE = 3 << HEAP_SHIFT


def tombstone_from(word: int) -> int:
    """Tombstone word that keeps the ATC of `word` and drops everything else."""
    return TOMBSTONE_BASE | (word & ATC_FIELD)


class GuideCell:
    """View of one guide: its index in a word arena plus its stripe lock.

    The word itself lives in an `array("Q")` arena, `GuideRegistry.words`,
    indexed by guide index, so the collector can read and age a whole lock
    stripe at once.  The cell is the sole synchronization point for its
    object.  CPython has no 64-bit CAS primitive, so compare_and_swap is
    emulated with a (striped) lock; plain loads read the arena directly,
    which is atomic under the GIL and matches the intended single-word load
    semantics.
    """

    __slots__ = ("index", "_words", "_lock")

    def __init__(self, index: int, arena, lock: threading.Lock | None = None):
        self.index = index
        self._words = arena
        self._lock = lock if lock is not None else threading.Lock()

    @property
    def word(self) -> int:
        return self._words[self.index]

    def load(self) -> int:
        return self._words[self.index]

    def compare_and_swap(self, expected: int, new: int) -> bool:
        words, index = self._words, self.index
        with self._lock:
            if words[index] == expected:
                words[index] = new
                return True
            return False

    def dereference(self) -> int:
        """Resolve the cell to its current locator, recording the access.

        If the accessed bit is already set and no migration lock is pending,
        this is a plain load and no store is issued.  Otherwise a bounded CAS
        loop installs accessed=1, lock=0.  The locator bits are never modified.
        """
        w = self._words[self.index]
        if (w & ACCESSED_BIT) and not (w & LOCK_BIT):
            return w & LOCATOR_MASK
        for _ in range(DEREF_MAX_RETRIES):
            updated = (w | ACCESSED_BIT) & ~LOCK_BIT
            if self.compare_and_swap(w, updated):
                return updated & LOCATOR_MASK
            w = self._words[self.index]
            if (w & ACCESSED_BIT) and not (w & LOCK_BIT):
                return w & LOCATOR_MASK
        return self._words[self.index] & LOCATOR_MASK

    def atc_increment(self) -> bool:
        """atc += 1, clearing the migration lock (an increment is a use).

        Returns False without modification when the count is saturated; the
        caller then treats the object as migration-ineligible this epoch.
        """
        while True:
            w = self._words[self.index]
            if (w >> ATC_SHIFT) & ATC_MAX == ATC_MAX:
                return False
            if self.compare_and_swap(w, (w & ~LOCK_BIT) + ATC_ONE):
                return True

    def atc_decrement(self) -> None:
        while True:
            w = self._words[self.index]
            if (w >> ATC_SHIFT) & ATC_MAX == 0:
                raise GuideProtocolError(
                    f"ATC decrement below zero on cell {self.index}")
            if self.compare_and_swap(w, w - ATC_ONE):
                return

    def try_lock_for_migration(self, expected: int) -> int | None:
        """First CAS of the migration protocol: expected -> expected|lock.

        `expected` must have atc=0 and the lock clear.  Returns the locked
        word on success, None when the stored word changed since the scan
        (the candidate is skipped this round).
        """
        if expected & LOCK_BIT or (expected >> ATC_SHIFT) & ATC_MAX:
            raise GuideProtocolError("lock attempt on busy word")
        locked = expected | LOCK_BIT
        if self.compare_and_swap(expected, locked):
            return locked
        return None

    def commit_migration(self, locked_word: int, new_word: int) -> bool:
        """Second CAS: publish the relocated word.

        Fails (returns False) when any access-path operation touched the cell
        between lock and commit; the old object then remains authoritative.
        """
        return self.compare_and_swap(locked_word, new_word)
