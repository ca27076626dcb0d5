"""Temperature-segregated arena allocator over fixed 4 KiB pages.

Each heap temperature (NEW, HOT, COLD) gets one contiguous reserved range of
the 48-bit managed space and sub-allocates object slots from power-of-two
size classes.  A live slot holds only its payload bytes; its length and size
class follow from them.  The page is a fixed 4 KiB (`PAGE_SIZE`), so a
page's 64-byte lines fit one 64-bit mask.  A region keeps no per-page
state.  A page's occupancy (the live slots that touch it) is derived on
demand from the slot dict with numpy, at O(live slots) cost per call, by
its two readers, `page_table` and PAGEOUT advice.  Which pages stay
resident is a page backend's decision, not the allocator's: a region
reports only the page-rounded extent its bump pointer has reached
(`extent_bytes`), and reclaim is modelled by replaying the advised pages
(`metrics.simulate_reclaim`).

Placement is address-ordered first fit within a size class: a slot goes to
the lowest free offset of its class, else to the bump pointer.  A class's
free offsets are held unboxed (`_FreeSlots`): a sorted int64 pool consumed
from a head index, the int64 runs `free_batch` appends, folded into the
pool by one stable sort when the class next allocates, and a min-heap of
the single frees since that merge, the only offsets held as Python ints.

A CPython dict keeps its table when entries are deleted, so a slot dict
would stay sized for the most slots its region ever held.  Migration frees
its source slots through `free_batch`, which rebuilds the dict once the
region falls below a quarter of its recent peak (`REBUILD_RATIO`) and
publishes the copy in `RegionManager.slots`.  So `slots` is a list whose
entries a rebuild replaces: a reader indexes it on every lookup and never
keeps a region's dict.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from functools import partial
from heapq import heappop, heappush
from itertools import compress

import numpy as np

from .guideword import LOCATOR_MASK, HeapId

PAGE_SIZE = 4096
DEFAULT_REGION_LENGTH = 4 << 30  # 4 GiB per heap
SIZE_CLASSES = tuple(1 << i for i in range(4, 17))  # 16 B .. 64 KiB
# `free_batch` rebuilds a region's slot dict once it holds fewer than
# 1/REBUILD_RATIO of the most live slots it held since its last rebuild.
# Going from that peak to below a quarter of it took at least three frees
# per slot the rebuild copies, so the copy adds under a third of a dict
# operation to each free, and the table it drops was sized for at least
# four times the slots the new one holds.
REBUILD_RATIO = 4


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


_NO_OFFSETS = np.empty(0, np.int64)


class _FreeSlots:
    """One size class's free slots, as region-relative offsets handed out
    lowest first.

    Three disjoint parts hold them:
    - `pool`, a sorted int64 array whose entries from `head` on are free;
    - `runs`, the int64 arrays that `free_batch` appended since the last
      merge, each in its batch's order;
    - `singles`, a min-heap of the offsets that `free` returned since the
      last merge, the only ones held as Python ints.
    The class's first allocation after a `free_batch` merges the runs and
    the singles into the pool (`_merge`); `take` merges the singles too, so
    a batch takes its slots as one slice.  The class is in its region's
    `stocked` dict exactly while it holds a free slot: a free puts it there
    (`HeapRegion.free` pushes onto `singles` itself), and taking its last
    slot removes it.
    """

    __slots__ = ("size_class", "stocked", "pool", "head", "runs", "singles")

    def __init__(self, size_class: int, stocked: dict[int, _FreeSlots]):
        self.size_class = size_class
        self.stocked = stocked
        self.pool = _NO_OFFSETS
        self.head = 0
        self.runs: list[np.ndarray] = []
        self.singles: list[int] = []

    def push_run(self, offsets: np.ndarray) -> None:
        self.runs.append(offsets)
        self.stocked[self.size_class] = self

    def _merge(self) -> None:
        """Fold the runs and the singles into the pool with one stable
        sort, which finds the rest of the pool already sorted and merges
        the new offsets into it."""
        parts = [self.pool[self.head:], *self.runs]
        if self.singles:
            parts.append(np.array(self.singles, np.int64))
            self.singles = []
        self.pool = np.sort(np.concatenate(parts), kind="stable")
        self.head = 0
        self.runs = []

    def _drained(self) -> None:
        """Drop the used-up pool, and leave `stocked` if no single is
        left."""
        self.pool = _NO_OFFSETS
        self.head = 0
        if not self.singles:
            del self.stocked[self.size_class]

    def pop(self) -> int:
        """Remove and return the lowest free offset; the class must be
        stocked."""
        if self.runs:
            self._merge()
        pool, head, singles = self.pool, self.head, self.singles
        if head < len(pool):
            low = pool.item(head)
            if not singles or low < singles[0]:
                self.head = head = head + 1
                if head == len(pool):
                    self._drained()
                return low
        offset = heappop(singles)
        if not singles and not len(pool):
            del self.stocked[self.size_class]
        return offset

    def take(self, count: int) -> np.ndarray:
        """Remove and return the lowest `count` free offsets, ascending, or
        all of them if there are fewer; the class must be stocked.

        Once `head` passes half the pool, the rest is kept as a fresh
        array, so the consumed prefix is not held until the next merge.
        """
        if self.runs or self.singles:
            self._merge()
        pool, head = self.pool, self.head + count
        taken = pool[self.head:head]
        if head >= len(pool):
            self._drained()
        elif head > len(pool) >> 1:
            self.pool, self.head = pool[head:].copy(), 0
        else:
            self.head = head
        return taken

    def offsets(self) -> list[int]:
        """Every free offset, ascending, leaving the parts as they are."""
        return sorted(self.pool[self.head:].tolist()
                      + [o for run in self.runs for o in run.tolist()]
                      + self.singles)


class HintKind(str, Enum):
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
    """One heap's reserved range with size-class free slots.

    Allocation returns the lowest-addressed free slot of the payload's size
    class, else the slot at the bump pointer.  Each class's free slots are
    one `_FreeSlots` in `_free`, which keeps its offsets unboxed except for
    single frees awaiting a merge; `_stocked` holds only the classes with a
    free slot, so a bump allocation costs one membership test.  It keeps
    no per-page state: each page's live-slot count is derived on demand
    from the slot dict (`_page_counts`).
    """

    def __init__(self, heap: HeapId, base: int, length: int):
        if length % PAGE_SIZE:
            raise RegionError("region length must be page aligned")
        if base + length - 1 > LOCATOR_MASK:
            raise RegionError("region exceeds the 48-bit managed space")
        self.heap = heap
        self.base = base
        self.length = length
        # Size class -> its free slots; `_stocked` keeps the classes that
        # hold one.
        self._stocked: dict[int, _FreeSlots] = {}
        self._free = {size_class: _FreeSlots(size_class, self._stocked)
                      for size_class in SIZE_CLASSES}
        self._bump = 0
        self._live: dict[int, bytes] = {}  # region-relative offset -> payload
        self._peak_live = 0  # most live slots since the last rebuild
        # Called with each rebuilt slot dict, under the lock; a region's
        # RegionManager makes it publish the dict in `slots`.
        self._publish = lambda live: None
        self._lock = threading.Lock()
        self.live_bytes = 0

    def _page_counts(self) -> np.ndarray:
        """Each region-relative page's live-slot count, for every page the
        bump pointer has reached, from the slot dict.  The caller holds the
        lock."""
        live = self._live
        n = len(live)
        lengths = np.fromiter(map(len, live.values()), np.int64, n)
        pages = page_rows(np.fromiter(live, np.int64, n), lengths)[1]
        return np.bincount(pages, minlength=-(-self._bump // PAGE_SIZE))

    def install(self, payload: bytes) -> int:
        """Put `payload` itself in a fresh slot and return its locator.

        The lowest free slot of the payload's class is taken, else the one
        at the bump pointer.
        """
        length = len(payload)
        if not 0 < length <= _MAX_LENGTH:
            _check_length(length)
        size_class = _CLASS_OF[(length - 1) >> 4]
        with self._lock:
            if size_class in self._stocked:
                offset = self._stocked[size_class].pop()
            else:
                offset = self._bump
                end = offset + size_class
                if end > self.length:
                    raise RegionExhausted(f"{self.heap.name} region exhausted")
                self._bump = end
            self._live[offset] = payload
            self.live_bytes += length
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
            stocked = self._stocked
            offsets = np.empty(n, np.int64)
            bumped = np.ones(n, bool)
            for size_class, count in zip(SIZE_CLASSES, counts):
                if count and size_class in stocked:
                    taken = stocked[size_class].take(count)
                    members = np.flatnonzero(
                        classes == size_class)[:len(taken)]
                    offsets[members] = taken
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
                self._bump = end
            if room is None:
                self._live.update(zip(offsets.tolist(), payloads))
                self.live_bytes += int(lengths.sum())
                return (offsets + self.base).tolist()
            self._live.update(zip(offsets[room].tolist(),
                                  compress(payloads, room.tolist())))
            self.live_bytes += int(lengths[room].sum())
        return [self.base + offset if placed else None
                for offset, placed in zip(offsets.tolist(), room.tolist())]

    def free(self, locator: int) -> None:
        """Return a live slot to its class's free slots."""
        offset = locator - self.base
        with self._lock:
            payload = self._live.pop(offset, None)
            if payload is None:
                raise DoubleFreeError(f"free of non-live locator "
                                      f"{locator:#x} in {self.heap.name}")
            length = len(payload)
            self.live_bytes -= length
            # On the mutator's path, so the push is inline: the offset joins
            # its class's singles, and the class is stocked.
            slots = self._free[_CLASS_OF[(length - 1) >> 4]]
            heappush(slots.singles, offset)
            self._stocked[slots.size_class] = slots

    def free_batch(self, locators) -> None:
        """Free many live slots, given as a list or an integer array, under
        one lock acquisition, as a sequence of `free` calls would.

        Every locator is checked first: one that is not live, or that the
        batch names twice, raises DoubleFreeError with the region left
        untouched.  A batch that leaves fewer than 1/REBUILD_RATIO of the
        most live slots seen at the start of a batch since the last
        rebuild rebuilds the slot dict (`_rebuild`).
        """
        n = len(locators)
        if not n:
            return
        offsets = np.asarray(locators, dtype=np.int64) - self.base
        relative = offsets.tolist()
        with self._lock:
            live = self._live
            self._peak_live = max(self._peak_live, len(live))
            # One lookup per slot: each payload is popped, and all are put
            # back if one is missing (not live, or named twice).
            payloads = list(map(live.pop, relative, [None] * n))
            if None in payloads:
                live.update(pair for pair in zip(relative, payloads)
                            if pair[1] is not None)
                raise DoubleFreeError(
                    f"free of non-live locator "
                    f"{locators[payloads.index(None)]:#x} in "
                    f"{self.heap.name}")
            lengths = np.fromiter(map(len, payloads), np.int64, n)
            self.live_bytes -= int(lengths.sum())
            ranks = _RANK_OF[(lengths - 1) >> 4]
            for rank, count in enumerate(np.bincount(ranks).tolist()):
                if count:
                    self._free[SIZE_CLASSES[rank]].push_run(
                        offsets[ranks == rank] if count < n else offsets)
            if len(live) * REBUILD_RATIO < self._peak_live:
                self._rebuild()

    def _rebuild(self) -> None:
        """Copy the live slots into a fresh dict sized for them, and make
        it the slot dict, both `_live` and the one `_publish` hands to the
        manager's `slots`.  The caller holds the lock.

        A reader that takes no region lock (a store's get, the collector's
        read pass) stays correct across the swap:
        - the copy and the publish run under the region lock, so no
          install or free interleaves with them;
        - a reader still holding the old dict finds there every slot
          installed before the swap;
        - a slot installed after the swap is published to its guide word
          only afterwards, so a reader that loaded that word indexes
          `slots` after the swap and finds the new dict;
        - a slot freed after the swap may still be found in the old dict,
          a stale read that the get's re-check of the word rejects, since
          its word was moved on before the free.
        """
        live = dict(self._live)
        self._publish(live)
        self._live = live
        self._peak_live = len(live)

    def write(self, locator: int, data: bytes) -> None:
        """Replace a live slot's payload with `data`, of the same length.

        A store's same-length update calls it while holding the arena's
        `word_lock`, so that the guide word cannot move off the slot
        meanwhile; a lock-free reader sees the old payload or the new.
        """
        offset = locator - self.base
        with self._lock:  # so a rebuild cannot drop the write
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

    def free_offsets(self) -> dict[int, list[int]]:
        """Each size class's free region-relative offsets, ascending, for
        every class that holds a free slot, in class order."""
        with self._lock:
            return {size_class: self._stocked[size_class].offsets()
                    for size_class in sorted(self._stocked)}

    @property
    def live_slot_count(self) -> int:
        return len(self._live)

    def page_table(self) -> dict[int, int]:
        """Absolute page index -> live slots, for every page the bump
        pointer has reached; the counts are derived from the slots."""
        with self._lock:
            return dict(enumerate(self._page_counts().tolist(),
                                  self.base // PAGE_SIZE))

    def extent_bytes(self) -> int:
        """The bytes of the pages the bump pointer has reached."""
        return -(-self._bump // PAGE_SIZE) * PAGE_SIZE

    def emit_hints(self, kind: HintKind, window: int = 0) -> list[HintEvent]:
        """Hint events for this region.

        PAGEOUT_ADVICE covers the pages holding live slots, coalesced into
        maximal ranges; acting on it is a page backend's business, so the
        region itself is left as it was.  Any other kind is one event
        covering the whole region.
        """
        first = self.base // PAGE_SIZE
        if kind is not HintKind.PAGEOUT_ADVICE:
            return [HintEvent(kind, self.heap, first,
                              first + self.length // PAGE_SIZE, window)]
        with self._lock:
            pages = np.flatnonzero(self._page_counts())
        if not len(pages):
            return []
        breaks = np.flatnonzero(np.diff(pages) != 1) + 1
        starts = pages[np.r_[0, breaks]]
        ends = pages[np.r_[breaks - 1, len(pages) - 1]] + 1
        return [HintEvent(kind, self.heap, first + start, first + end, window)
                for start, end in zip(starts.tolist(), ends.tolist())]

    def audit(self) -> None:
        """Check `live_bytes` against the live slots' payload lengths."""
        with self._lock:
            if sum(map(len, self._live.values())) != self.live_bytes:
                raise RegionError("live byte accounting drifted")


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
        # A rebuild (`HeapRegion._rebuild`) replaces a region's entry, so
        # index `slots` on every lookup and never keep a region's dict.
        self.slots = [region._live for region in self.heaps]
        for index, region in enumerate(self.heaps):
            region._publish = partial(self.slots.__setitem__, index)

    def region(self, heap: HeapId) -> HeapRegion:
        return self.heaps[heap]

    def heap_of(self, locator: int) -> HeapId:
        return self._region_of(locator).heap

    def allocate(self, heap: HeapId, length: int) -> int:
        # A slot of `length` zero bytes.  No store op calls this or
        # `RegionManager.write`: `HeapRegion.install` places a slot with
        # its payload, and an update writes through its `HeapRegion`.  Both
        # are kept because the benchmark's tracer wraps them.
        _check_length(length)
        return self.heaps[heap].install(bytes(length))

    # No store op calls this: a write frees through its region in `heaps`.
    # It is kept for callers off the mutator path, and the benchmark's
    # tracer wraps it.
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
