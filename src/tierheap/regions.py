"""Temperature-segregated arena allocator with page-level accounting.

Each heap temperature (NEW, HOT, COLD) gets one contiguous reserved range of
the 48-bit managed space and sub-allocates object slots from power-of-two
size classes.  A live slot holds only its payload bytes; its length and size
class follow from them.  Pages are materialized lazily; each carries
live-byte and live-slot counts plus a simulated residency flag, so reclaim
advice can be modeled without touching the OS.
"""
from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from enum import Enum

from .guideword import LOCATOR_MASK, HeapId

DEFAULT_PAGE_SIZE = 4096
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


def _check_length(length: int) -> None:
    if length <= 0:
        raise RegionError("allocation length must be positive")
    if length > SIZE_CLASSES[-1]:
        raise RegionError(f"payload of {length} B exceeds the largest "
                          f"size class ({SIZE_CLASSES[-1]} B)")


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


class _Page:
    __slots__ = ("live_bytes", "live_slots", "resident")

    def __init__(self):
        self.live_bytes = 0
        self.live_slots = 0
        self.resident = False


class HeapRegion:
    """One heap's reserved range with size-class free lists.

    Free slots are kept in per-class min-heaps so allocation always returns
    the lowest-addressed free slot of the smallest sufficient class, falling
    back to bump allocation at the end of the used prefix.
    """

    def __init__(self, heap: HeapId, base: int, length: int,
                 page_size: int = DEFAULT_PAGE_SIZE):
        if length % page_size:
            raise RegionError("region length must be page aligned")
        if base + length - 1 > LOCATOR_MASK:
            raise RegionError("region exceeds the 48-bit managed space")
        self.heap = heap
        self.base = base
        self.length = length
        self.page_size = page_size
        self._free: dict[int, list[int]] = {c: [] for c in SIZE_CLASSES}
        self._bump = 0
        self._live: dict[int, bytes] = {}  # region-relative offset -> payload
        self._pages: dict[int, _Page] = {}  # absolute page index
        self._lock = threading.Lock()
        self.live_bytes = 0

    def _account(self, locator: int, length: int, sign: int) -> None:
        ps = self.page_size
        end = locator + length
        page = locator // ps
        if (end - 1) // ps == page:  # the common case: one page
            rec = self._pages.get(page)
            if rec is None:
                rec = self._pages[page] = _Page()
            rec.live_bytes += sign * length
            rec.live_slots += sign
            if sign > 0:
                rec.resident = True
            self.live_bytes += sign * length
            return
        for page in range(page, (end - 1) // ps + 1):
            rec = self._pages.get(page)
            if rec is None:
                rec = self._pages[page] = _Page()
            overlap = min(end, (page + 1) * ps) - max(locator, page * ps)
            rec.live_bytes += sign * overlap
            rec.live_slots += sign
            if sign > 0:
                rec.resident = True
        self.live_bytes += sign * length

    def _install(self, payload: bytes) -> int | None:
        """Put `payload` itself in the lowest free slot of its class, or at
        the bump pointer, and account for it.  Returns the slot's locator,
        or None when the class has no room.  The caller holds the lock."""
        length = len(payload)
        size_class = _CLASS_OF[(length - 1) >> 4]
        free = self._free[size_class]
        if free:
            offset = heapq.heappop(free)
        else:
            offset = self._bump
            if offset + size_class > self.length:
                return None
            self._bump = offset + size_class
        self._live[offset] = payload
        locator = self.base + offset
        self._account(locator, length, +1)
        return locator

    def _release(self, locator: int) -> None:
        """Free a live slot into its class's free list; caller holds the
        lock."""
        offset = locator - self.base
        payload = self._live.pop(offset, None)
        if payload is None:
            raise DoubleFreeError(
                f"free of non-live locator {locator:#x} in {self.heap.name}")
        length = len(payload)
        self._account(locator, length, -1)
        heapq.heappush(self._free[_CLASS_OF[(length - 1) >> 4]], offset)

    def install(self, payload: bytes) -> int:
        """Put `payload` itself in a fresh slot and return its locator: the
        slot `allocate(len(payload))` would return, already written."""
        _check_length(len(payload))
        with self._lock:
            locator = self._install(payload)
        if locator is None:
            raise RegionExhausted(f"{self.heap.name} region exhausted")
        return locator

    def allocate(self, length: int) -> int:
        """Return the absolute locator of a slot holding `length` bytes.

        The slot reads as `length` zero bytes until it is written.
        """
        _check_length(length)
        return self.install(bytes(length))

    def allocate_batch(self, payloads: list[bytes]) -> list[int | None]:
        """Install each live payload object in a fresh slot, all under one
        lock acquisition.

        Returns each slot's locator in order, or None for a payload whose
        size class has no room; a later payload of a smaller class may
        still get a slot.
        """
        with self._lock:
            return [self._install(payload) for payload in payloads]

    def free(self, locator: int) -> None:
        with self._lock:
            self._release(locator)

    def free_batch(self, locators: list[int]) -> None:
        """Free many live slots under one lock acquisition."""
        with self._lock:
            for locator in locators:
                self._release(locator)

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

    def resident_bytes(self) -> int:
        return sum(1 for r in self._pages.values() if r.resident) \
            * self.page_size

    def emit_hints(self, kind: HintKind, window: int = 0) -> list[HintEvent]:
        """Hint events for this region.

        PAGEOUT_ADVICE covers the pages holding live slots, coalesced into
        maximal ranges, and clears their residency flag (simulated
        reclamation).  Any other kind is one event covering the whole region.
        """
        ps = self.page_size
        if kind is not HintKind.PAGEOUT_ADVICE:
            start = self.base // ps
            return [HintEvent(kind, self.heap, start,
                              start + self.length // ps, window)]
        with self._lock:
            pages = sorted(p for p, rec in self._pages.items()
                           if rec.live_slots > 0)
            events: list[HintEvent] = []
            for page in pages:
                if events and events[-1].end_page == page:
                    events[-1].end_page = page + 1
                else:
                    events.append(HintEvent(kind, self.heap, page,
                                            page + 1, window))
                self._pages[page].resident = False
            return events

    def audit(self) -> None:
        """Recompute page accounting from live slots and compare."""
        expected_bytes: dict[int, int] = {}
        expected_slots: dict[int, int] = {}
        ps = self.page_size
        with self._lock:
            total = 0
            for offset, payload in self._live.items():
                locator = self.base + offset
                end = locator + len(payload)
                total += len(payload)
                for page in range(locator // ps, (end - 1) // ps + 1):
                    overlap = min(end, (page + 1) * ps) \
                        - max(locator, page * ps)
                    expected_bytes[page] = expected_bytes.get(page, 0) + overlap
                    expected_slots[page] = expected_slots.get(page, 0) + 1
            if total != self.live_bytes:
                raise RegionError("live byte accounting drifted")
            for page, rec in self._pages.items():
                if rec.live_bytes != expected_bytes.get(page, 0) \
                        or rec.live_slots != expected_slots.get(page, 0):
                    raise RegionError(f"page {page} accounting drifted")
            # Empty materialized pages lose simulated residency on audit.
            for page, rec in self._pages.items():
                if rec.live_slots == 0:
                    rec.resident = False


class RegionManager:
    """The three temperature regions packed back to back in locator space."""

    def __init__(self, region_length: int = DEFAULT_REGION_LENGTH,
                 page_size: int = DEFAULT_PAGE_SIZE):
        if 3 * region_length - 1 > LOCATOR_MASK:
            raise RegionError("regions overflow the 48-bit managed space")
        self.page_size = page_size
        self.regions = {
            heap: HeapRegion(heap, i * region_length, region_length,
                             page_size)
            for i, heap in enumerate((HeapId.NEW, HeapId.HOT, HeapId.COLD))
        }
        self.region_length = region_length
        self._order = [self.regions[h] for h in
                       (HeapId.NEW, HeapId.HOT, HeapId.COLD)]
        # Each region's live slots, region-relative offset -> payload, in
        # locator order: the slot at `locator` is
        # `slots[locator // region_length].get(locator % region_length)`.
        self.slots = tuple(region._live for region in self._order)

    def region(self, heap: HeapId) -> HeapRegion:
        return self.regions[heap]

    def heap_of(self, locator: int) -> HeapId:
        return self._region_of(locator).heap

    def allocate(self, heap: HeapId, length: int) -> int:
        return self.regions[heap].allocate(length)

    def install(self, heap: HeapId, payload: bytes) -> int:
        return self.regions[heap].install(payload)

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
        self._region_of(locator).write(locator, data)

    def _region_of(self, locator: int) -> HeapRegion:
        index = locator // self.region_length
        if not 0 <= index < len(self._order):
            raise RegionError(f"locator {locator:#x} outside every region")
        return self._order[index]

    def emit_hints(self, heap: HeapId, kind: HintKind,
                   window: int = 0) -> list[HintEvent]:
        return self.regions[heap].emit_hints(kind, window)

    def live_slot_count(self) -> int:
        return sum(r.live_slot_count for r in self._order)

    def audit(self) -> None:
        for region in self._order:
            region.audit()


def write_hint_log(events: list[HintEvent], path) -> None:
    with open(path, "w") as fh:
        for event in events:
            fh.write(event.format_line() + "\n")
