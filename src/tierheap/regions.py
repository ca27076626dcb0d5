"""Temperature-segregated arena allocator with page-level accounting.

Each heap temperature (NEW, HOT, COLD) gets one contiguous reserved range of
the 48-bit managed space and sub-allocates object slots from power-of-two
size classes.  A live slot holds only its payload bytes; its length and size
class follow from them.  The page is a fixed 4 KiB (`PAGE_SIZE`), so a
page's 64-byte lines fit one 64-bit mask.  Page accounting is two flat
per-region arrays indexed by region-relative page and grown with the bump
pointer: live slots (a list of ints) and a simulated residency flag
(`bytearray`), so reclaim advice can be modeled without touching the OS.
Single-slot `install` and `free` index them directly; the batch paths,
`audit` and `emit_hints` compute over them with numpy.
"""
from __future__ import annotations

import heapq
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat

import numpy as np

from .guideword import LOCATOR_MASK, HeapId

PAGE_SIZE = 4096
DEFAULT_REGION_LENGTH = 4 << 30  # 4 GiB per heap
SIZE_CLASSES = tuple(1 << i for i in range(4, 17))  # 16 B .. 64 KiB


class RegionError(RuntimeError):
    pass


class RegionExhausted(RegionError):
    pass


class DoubleFreeError(RegionError):
    pass


# The size class of a length, looked up at (length - 1) >> 4: every class is
# a power of two of at least 16 B, so lengths that round up to the same
# multiple of 16 share a class.
_CLASS_OF = [next(c for c in SIZE_CLASSES if c >= (i + 1) << 4)
             for i in range(SIZE_CLASSES[-1] >> 4)]
# The same table as ranks into SIZE_CLASSES, for numpy lookups.
_RANK_OF = np.array([SIZE_CLASSES.index(c) for c in _CLASS_OF], np.int64)
_SIZE_CLASSES_NP = np.array(SIZE_CLASSES, np.int64)
_MAX_LENGTH = SIZE_CLASSES[-1]


def page_rows(offsets: np.ndarray, lengths: np.ndarray):
    """One row per (slot, page) pair that the byte ranges [offset, offset +
    length) touch: each row's slot index and page, slot by slot and each
    slot's pages in order.  Every length must be positive."""
    first = offsets // PAGE_SIZE
    spans = (offsets + lengths - 1) // PAGE_SIZE - first + 1
    slot = np.repeat(np.arange(len(spans)), spans)
    return slot, first[slot] + np.arange(len(slot)) \
        - np.repeat(np.cumsum(spans) - spans, spans)


def _check_length(length: int) -> None:
    if length <= 0:
        raise RegionError("allocation length must be positive")
    if length > _MAX_LENGTH:
        raise RegionError(f"payload of {length} B exceeds the largest "
                          f"size class ({_MAX_LENGTH} B)")


class HintKind(str, Enum):
    COLD_ADVICE = "COLD_ADVICE"
    PAGEOUT_ADVICE = "PAGEOUT_ADVICE"
    HUGEPAGE_ADVICE = "HUGEPAGE_ADVICE"


@dataclass
class HintEvent:
    kind: HintKind
    heap: HeapId
    start_page: int
    end_page: int  # exclusive
    window: int

    def format_line(self) -> str:
        return (f"{self.window},{self.heap.name},{self.kind.value},"
                f"{self.start_page},{self.end_page}")


class HeapRegion:
    """One heap's reserved range with size-class free lists.

    Free slots are kept in per-class min-heaps so allocation always returns
    the lowest-addressed free slot of the smallest sufficient class, falling
    back to bump allocation at the end of the used prefix.  Per page it
    keeps the count of live slots that touch the page and a residency
    flag, for exactly the pages the bump pointer has reached.
    """

    def __init__(self, heap: HeapId, base: int, length: int):
        if length % PAGE_SIZE:
            raise RegionError("region length must be page aligned")
        if base + length - 1 > LOCATOR_MASK:
            raise RegionError("region exceeds the 48-bit managed space")
        self.heap = heap
        self.base = base
        self.length = length
        self._free: dict[int, list[int]] = {c: [] for c in SIZE_CLASSES}
        self._bump = 0
        self._live: dict[int, bytes] = {}  # region-relative offset -> payload
        # Per region-relative page: live slots, residency.  The counter is
        # a list: `install` and `free` update it in place, and a list item
        # costs about half of an `array("q")` item.
        self._page_slots: list[int] = []
        self._resident = bytearray()
        self._page_end = 0  # offsets below this have counters
        self._lock = threading.Lock()
        self.live_bytes = 0

    def _grow(self, end: int) -> None:
        """Extend the page counters to cover offsets below `end`."""
        extra = (end + PAGE_SIZE - 1) // PAGE_SIZE - len(self._resident)
        self._page_slots += [0] * extra
        self._resident += bytes(extra)
        self._page_end = len(self._resident) * PAGE_SIZE

    def _account(self, offset: int, length: int, sign: int) -> None:
        """Add (`sign` +1) or remove (-1) a slot on each page it touches."""
        for page in range(offset // PAGE_SIZE,
                          (offset + length - 1) // PAGE_SIZE + 1):
            self._page_slots[page] += sign
            if sign > 0:
                self._resident[page] = 1
        self.live_bytes += sign * length

    def _account_batch(self, offsets: np.ndarray, lengths: np.ndarray,
                       sign: int) -> None:
        """`_account` for many slots: numpy counts each page's slots, and
        each touched page's counter is updated once."""
        touched, counts = np.unique(page_rows(offsets, lengths)[1],
                                    return_counts=True)
        page_slots = self._page_slots
        for page, nslots in zip(touched.tolist(), counts.tolist()):
            page_slots[page] += sign * nslots
        if sign > 0:
            np.frombuffer(self._resident, np.uint8)[touched] = 1
        self.live_bytes += sign * int(lengths.sum())

    def install(self, payload: bytes) -> int:
        """Put `payload` itself in a fresh slot and return its locator.

        The lowest free slot of the payload's class is taken, else the one
        at the bump pointer.  A slot on one page is accounted inline.
        """
        length = len(payload)
        if not 0 < length <= _MAX_LENGTH:
            _check_length(length)
        size_class = _CLASS_OF[(length - 1) >> 4]
        with self._lock:
            free = self._free[size_class]
            if free:
                offset = heapq.heappop(free)
            else:
                offset = self._bump
                end = offset + size_class
                if end > self._page_end:
                    if end > self.length:
                        raise RegionExhausted(
                            f"{self.heap.name} region exhausted")
                    self._grow(end)
                self._bump = end
            self._live[offset] = payload
            page = offset // PAGE_SIZE
            if (offset + length - 1) // PAGE_SIZE == page:
                self._page_slots[page] += 1
                self._resident[page] = 1
                self.live_bytes += length
            else:
                self._account(offset, length, +1)
        return self.base + offset

    def allocate_batch(self, payloads: list[bytes]) -> list[int | None]:
        """Install each live payload object in a fresh slot, all under one
        lock acquisition, in the slots a sequence of `install` calls would
        take.

        Returns each slot's locator in order, or None for a payload whose
        size class has no room; a later payload of a smaller class may
        still get a slot.  Each class's free slots go, lowest first, to its
        first payloads; the others are bump-allocated in payload order.  If
        those would run past the region's end, the bumped payloads are
        walked in order: one that fits takes the bump pointer, and one that
        does not gets None and leaves the pointer where it is.
        """
        n = len(payloads)
        if not n:
            return []
        lengths = np.fromiter(map(len, payloads), np.int64, n)
        if lengths.min() <= 0 or lengths.max() > _MAX_LENGTH:
            _check_length(int(lengths[(lengths <= 0)
                                      | (lengths > _MAX_LENGTH)][0]))
        ranks = _RANK_OF[(lengths - 1) >> 4]
        classes = _SIZE_CLASSES_NP[ranks]
        counts = np.bincount(ranks, minlength=len(SIZE_CLASSES)).tolist()
        with self._lock:
            free = self._free
            offsets = np.empty(n, np.int64)
            bumped = np.ones(n, bool)
            for size_class, count in zip(SIZE_CLASSES, counts):
                take = min(count, len(free[size_class]))
                if take:
                    members = np.flatnonzero(classes == size_class)[:take]
                    heap = free[size_class]
                    offsets[members] = list(map(heapq.heappop,
                                                repeat(heap, take)))
                    bumped[members] = False
            room = None  # None: every payload has a slot
            sizes = classes[bumped]
            if len(sizes):
                ends = self._bump + np.cumsum(sizes)
                end = int(ends[-1])
                if end <= self.length:
                    offsets[bumped] = ends - sizes
                else:
                    starts = []
                    end = self._bump
                    for size in sizes.tolist():
                        if end + size > self.length:
                            starts.append(-1)  # no room
                        else:
                            starts.append(end)
                            end += size
                    offsets[bumped] = starts
                    room = offsets >= 0
                if end > self._page_end:
                    self._grow(end)
                self._bump = end
            if room is None:
                self._live.update(zip(offsets.tolist(), payloads))
                self._account_batch(offsets, lengths, +1)
                return (offsets + self.base).tolist()
            self._live.update(zip(offsets[room].tolist(),
                                  compress(payloads, room.tolist())))
            self._account_batch(offsets[room], lengths[room], +1)
        return [self.base + offset if placed else None
                for offset, placed in zip(offsets.tolist(), room.tolist())]

    def free(self, locator: int) -> None:
        """Return a live slot to its class's free list."""
        offset = locator - self.base
        with self._lock:
            payload = self._live.pop(offset, None)
            if payload is None:
                raise DoubleFreeError(f"free of non-live locator "
                                      f"{locator:#x} in {self.heap.name}")
            length = len(payload)
            page = offset // PAGE_SIZE
            if (offset + length - 1) // PAGE_SIZE == page:
                self._page_slots[page] -= 1
                self.live_bytes -= length
            else:
                self._account(offset, length, -1)
            heapq.heappush(self._free[_CLASS_OF[(length - 1) >> 4]], offset)

    def free_batch(self, locators) -> None:
        """Free many live slots, given as a list or an integer array, under
        one lock acquisition, as a sequence of `free` calls would.

        Every locator is checked first: one that is not live, or that the
        batch names twice, raises DoubleFreeError with the region left
        untouched.
        """
        n = len(locators)
        if not n:
            return
        offsets = np.asarray(locators, dtype=np.int64) - self.base
        relative = offsets.tolist()
        with self._lock:
            live = self._live
            # One lookup per slot: each payload is popped, and all are put
            # back if one is missing (not live, or named twice).
            payloads = list(map(live.pop, relative, repeat(None)))
            if None in payloads:
                live.update(pair for pair in zip(relative, payloads)
                            if pair[1] is not None)
                raise DoubleFreeError(
                    f"free of non-live locator "
                    f"{locators[payloads.index(None)]:#x} in "
                    f"{self.heap.name}")
            lengths = np.fromiter(map(len, payloads), np.int64, n)
            self._account_batch(offsets, lengths, -1)
            ranks = _RANK_OF[(lengths - 1) >> 4]
            for rank, count in enumerate(np.bincount(ranks).tolist()):
                if count:
                    deque(map(heapq.heappush,  # a C-speed loop
                              repeat(self._free[SIZE_CLASSES[rank]]),
                              offsets[ranks == rank].tolist()), 0)

    def write(self, locator: int, data: bytes) -> None:
        """Fill a slot; only its allocator writes it, before publishing it."""
        offset = locator - self.base
        payload = self._live.get(offset)
        if payload is None:
            raise RegionError(f"write to non-live locator {locator:#x}")
        if len(data) != len(payload):
            raise RegionError("payload length does not match the slot")
        self._live[offset] = data

    def read(self, locator: int) -> bytes:
        payload = self._live.get(locator - self.base)
        if payload is None:
            raise RegionError(f"read of non-live locator {locator:#x}")
        return payload

    @property
    def live_slot_count(self) -> int:
        return len(self._live)

    def page_table(self) -> dict[int, tuple[int, bool]]:
        """Absolute page index -> (live slots, resident) for every page
        below the bump pointer."""
        first = self.base // PAGE_SIZE
        with self._lock:
            return {first + page: (live_slots, bool(resident))
                    for page, (live_slots, resident) in
                    enumerate(zip(self._page_slots, self._resident))}

    def resident_bytes(self) -> int:
        return self._resident.count(1) * PAGE_SIZE

    def emit_hints(self, kind: HintKind, window: int = 0) -> list[HintEvent]:
        """Hint events for this region.

        PAGEOUT_ADVICE covers the pages holding live slots, coalesced into
        maximal ranges, and clears their residency flag (simulated
        reclamation).  Any other kind is one event covering the whole region.
        """
        first = self.base // PAGE_SIZE
        if kind is not HintKind.PAGEOUT_ADVICE:
            return [HintEvent(kind, self.heap, first,
                              first + self.length // PAGE_SIZE, window)]
        with self._lock:
            pages = np.flatnonzero(np.array(self._page_slots) > 0)
            np.frombuffer(self._resident, np.uint8)[pages] = 0
        if not len(pages):
            return []
        breaks = np.flatnonzero(np.diff(pages) != 1) + 1
        starts = pages[np.r_[0, breaks]]
        ends = pages[np.r_[breaks - 1, len(pages) - 1]] + 1
        return [HintEvent(kind, self.heap, first + start, first + end, window)
                for start, end in zip(starts.tolist(), ends.tolist())]

    def audit(self) -> None:
        """Recompute page accounting from live slots and compare."""
        with self._lock:
            live = self._live
            n = len(live)
            lengths = np.fromiter(map(len, live.values()), np.int64, n)
            if int(lengths.sum()) != self.live_bytes:
                raise RegionError("live byte accounting drifted")
            pages = page_rows(np.fromiter(live, np.int64, n), lengths)[1]
            count = len(self._resident)
            expected = np.bincount(pages, minlength=count)
            page_slots = np.zeros_like(expected)
            page_slots[:count] = self._page_slots
            drifted = np.flatnonzero(page_slots != expected)
            if len(drifted):
                raise RegionError(
                    f"page {self.base // PAGE_SIZE + int(drifted[0])} "
                    f"accounting drifted")
            # Empty pages lose simulated residency on audit.
            np.frombuffer(self._resident, np.uint8)[page_slots[:count]
                                                    == 0] = 0


class RegionManager:
    """The three temperature regions packed back to back in locator space."""

    # Always PAGE_SIZE; kept because the benchmark harness reads the page
    # size from `runtime.regions.page_size`.
    page_size = PAGE_SIZE

    def __init__(self, region_length: int = DEFAULT_REGION_LENGTH):
        if 3 * region_length - 1 > LOCATOR_MASK:
            raise RegionError("regions overflow the 48-bit managed space")
        # The regions in locator order: `locator` lies in
        # `heaps[locator // region_length]`, and `heaps[heap]` is the
        # region of `heap`.  The stores install and free through these.
        self.heaps = tuple(
            HeapRegion(heap, i * region_length, region_length)
            for i, heap in enumerate((HeapId.NEW, HeapId.HOT, HeapId.COLD)))
        self.region_length = region_length
        # Each region's live slots, region-relative offset -> payload, in
        # locator order: the slot at `locator` is
        # `slots[locator // region_length].get(locator % region_length)`.
        self.slots = tuple(region._live for region in self.heaps)

    def region(self, heap: HeapId) -> HeapRegion:
        return self.heaps[heap]

    def heap_of(self, locator: int) -> HeapId:
        return self._region_of(locator).heap

    def allocate(self, heap: HeapId, length: int) -> int:
        # A slot of `length` zero bytes.  No store op calls this or
        # `write`, since `install` places a slot with its payload; both are
        # kept because the benchmark's tracer wraps them.
        _check_length(length)
        return self.heaps[heap].install(bytes(length))

    # No store op calls `install` or `free`: a write calls its region's own
    # method through `heaps`.  Both are kept for callers off the mutator
    # path, and the benchmark's tracer wraps `free`.
    def install(self, heap: HeapId, payload: bytes) -> int:
        return self.heaps[heap].install(payload)

    def free(self, locator: int) -> None:
        self._region_of(locator).free(locator)

    def read(self, locator: int) -> bytes:
        # No store op calls this: a get reads `slots` itself.  It is kept as
        # the checked read of a live locator for callers off the mutator
        # path, such as tests and the benchmark's tracer.
        index = locator // self.region_length
        if 0 <= index < len(self.slots):
            payload = self.slots[index].get(
                locator - index * self.region_length)
            if payload is not None:
                return payload
        raise RegionError(f"read of non-live locator {locator:#x}")

    def write(self, locator: int, data: bytes) -> None:
        # Kept, like `allocate`, for the benchmark's tracer, which wraps it.
        self._region_of(locator).write(locator, data)

    def _region_of(self, locator: int) -> HeapRegion:
        index = locator // self.region_length
        if not 0 <= index < len(self.heaps):
            raise RegionError(f"locator {locator:#x} outside every region")
        return self.heaps[index]

    def emit_hints(self, heap: HeapId, kind: HintKind,
                   window: int = 0) -> list[HintEvent]:
        return self.heaps[heap].emit_hints(kind, window)

    def live_slot_count(self) -> int:
        return sum(r.live_slot_count for r in self.heaps)

    def audit(self) -> None:
        for region in self.heaps:
            region.audit()


def write_hint_log(events: list[HintEvent], path) -> None:
    with open(path, "w") as fh:
        for event in events:
            fh.write(event.format_line() + "\n")
