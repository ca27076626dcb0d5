"""Guide registry and the wired-up runtime facade.

TierRuntime owns one of everything: the three heap regions, the guide
registry, the thread activity index, the scope manager, the access log, and
the collector.  Stores and the benchmark driver talk to their components
through this object.  The registry is the only record of guide lifetimes: a
guide is live exactly when its word's heap bits are not RESERVED.
"""
from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager

import numpy as np

from .collector import SCAN_CHUNK, Collector, ControllerState
from .guideword import (ATC_FIELD, HEAP_FIELD, HEAP_SHIFT, LOCATOR_MASK,
                        LOCK_STRIPES, GuideArena, GuideProtocolError,
                        tombstone_from, word_heap)
from .metrics import AccessLog
from .regions import DEFAULT_REGION_LENGTH, RegionManager
from .scope import EpochState, ScopeManager, ThreadActivityIndex

_LOCK = type(threading.Lock())
_ACQUIRE, _RELEASE = _LOCK.acquire, _LOCK.release


class GuideRegistry(GuideArena):
    """Guide arena with stable indices and their lifetimes.

    The arena holds the words and runs the guide-word protocol by index;
    the registry adds lifetimes.  Deleted guides are tombstoned
    (heap=RESERVED, ATC preserved) and parked in a graveyard until their
    ATC drains to zero, so scopes that recorded the guide before the
    delete can still balance their decrements.  The collector drains the
    graveyard at the end of each window that converged, and only of the
    indices retired before the window began: convergence proves that every
    scope open at a retire, which may still hold the deleted entry, has
    exited.  A word is live exactly when its heap bits are not RESERVED,
    and every RESERVED word is parked on the free list or in the graveyard.

    The registry lock guards only the arena's growth and the reuse of
    free-listed indices: `create_many` appends to `words`, or pops the free
    list, only under it, and `reclaim_retired` fills the free list under
    it.  `retire_many` takes no lock: it extends the graveyard in place,
    one atomic list operation, and `reclaim_retired` drains the
    graveyard's prefix in place, so a retire racing it is never lost.  The
    lock order is the registry lock, then stripes; `exclusive` takes both,
    so the collector can work on a numpy view of the whole arena.
    """

    def __init__(self):
        super().__init__()
        self._free: list[int] = []
        self._graveyard: list[int] = []
        self._lock = threading.Lock()

    @property
    def live_count(self) -> int:
        """Created words less parked ones: exact while no guide is between
        its tombstone and its retire, or being created or reclaimed."""
        return len(self.words) - len(self._free) - len(self._graveyard)

    # The stores call only `create_many` and `retire_many`.  `create` and
    # `retire` serve one-guide callers, and the benchmark's tracer wraps
    # them.
    def create(self, word: int) -> int:
        return self.create_many(word)[0]

    def create_many(self, *words: int) -> list[int]:
        """A guide for each word, under one registry-lock acquisition: the
        indices successive `create` calls would return."""
        for word in words:
            if (word & HEAP_FIELD) == HEAP_FIELD:
                raise ValueError(
                    "cannot create a guide with a RESERVED heap id")
        indices = []
        arena, free = self.words, self._free
        with self._lock:
            for word in words:
                if free:
                    index = free.pop()
                    with self.stripes[index % LOCK_STRIPES]:
                        arena[index] = word
                else:
                    index = len(arena)
                    arena.append(word)
                indices.append(index)
        return indices

    @contextmanager
    def exclusive(self):
        """Hold the registry lock, then every stripe, and yield the arena
        as a writable uint64 numpy view.

        Inside the section no word is stored and `words` cannot grow, so
        the view stays valid.  It must not outlive the section: a view
        still exported at an appending `create` makes it raise
        BufferError.  So the caller deletes its reference before leaving
        the section, in a `finally` that runs on an exception too, whose
        traceback would otherwise keep the caller's frame, and the view,
        alive.
        """
        stripes = self.stripes
        with self._lock:
            deque(map(_ACQUIRE, stripes), 0)  # a C-speed loop over them
            try:
                view = np.frombuffer(self.words, dtype=np.uint64)
                yield view
            finally:
                view = None
                deque(map(_RELEASE, stripes), 0)

    def retire(self, index: int) -> None:
        self.retire_many(index)

    def retire_many(self, *indices: int) -> None:
        """Park the tombstoned guides `indices` until their ATC drains.

        The caller must already have swung each word to a tombstone, and
        retires each guide once.  No lock is taken: the graveyard is
        extended in place, one atomic list operation.
        """
        words = self.words
        for index in indices:
            if (words[index] & HEAP_FIELD) != HEAP_FIELD:
                raise GuideProtocolError(
                    f"retire of guide {index}, which is not a tombstone")
        self._graveyard.extend(indices)

    def tombstone(self, index: int) -> int:
        """CAS the word to a tombstone; returns the replaced word."""
        words = self.words
        while True:
            word = words[index]
            if self.compare_and_swap(index, word, tombstone_from(word)):
                return word

    def graveyard_mark(self) -> int:
        """The graveyard's length: indices retired so far lie below it."""
        return len(self._graveyard)

    def reclaim_retired(self, mark: int | None = None) -> None:
        """Free the parked indices below `mark` (all by default) whose ATC
        has drained; the others stay parked, in order, at the front.

        The graveyard is drained in place and never rebound: retires
        racing this only append to it, past `mark`.
        """
        with self._lock:
            graveyard = self._graveyard
            if mark is None:
                mark = len(graveyard)
            drained = graveyard[:mark]
            del graveyard[:mark]
            still_parked = []
            words = self.words
            for index in drained:
                if words[index] & ATC_FIELD:
                    still_parked.append(index)
                else:
                    self._free.append(index)
            graveyard[:0] = still_parked

    def indices(self):
        """Yield the live guide indices in ascending order.

        Walks a copy of the arena taken at the first step, so it holds no
        buffer export on `words` (a concurrent `create` may append to it)
        and yields every index that stays live throughout.
        """
        words = np.frombuffer(self.words[:], dtype=np.uint64)
        yield from np.flatnonzero(
            (words & HEAP_FIELD) != HEAP_FIELD).tolist()

    def audit(self) -> None:
        """Check the arena against the free list and graveyard.

        The parked indices must be exactly the RESERVED words, none parked
        twice.  `live_count` then equals the number of live words.
        """
        with self._lock:
            parked = self._free + self._graveyard
            words = np.frombuffer(self.words[:], dtype=np.uint64)
        reserved = np.flatnonzero(
            (words & HEAP_FIELD) == HEAP_FIELD).tolist()
        parked.sort()
        twice = sorted({a for a, b in zip(parked, parked[1:]) if a == b})
        if twice:
            raise AssertionError(f"guides {twice[:8]} are parked twice")
        if parked != reserved:
            raise AssertionError(
                f"RESERVED words {reserved[:8]} but parked indices "
                f"{parked[:8]}")

    # tierbench/harness.py walks `registry.soda.indices()` for its traced
    # `soda.walk_ns_per_guide` metric, so the registry answers to that name.
    soda = property(lambda self: self)


class TierRuntime:
    def __init__(self, *, region_length: int = DEFAULT_REGION_LENGTH,
                 scan_interval_s: float = 120.0,
                 pr_target: float = 0.01,
                 ct_init: int = 3,
                 hinted: bool = False,
                 track_access_log: bool = True):
        self.regions = RegionManager(region_length)
        self.registry = GuideRegistry()
        self.epoch_state = EpochState()
        self.tai = ThreadActivityIndex()
        self.scope = ScopeManager(self.registry, self.tai, self.epoch_state)
        self.access_log = AccessLog() if track_access_log else None
        controller = ControllerState(cold_threshold=ct_init,
                                     pr_target=pr_target,
                                     scan_interval_s=scan_interval_s)
        self.collector = Collector(
            self.registry, self.regions, self.tai, self.epoch_state,
            controller, access_log=self.access_log, hinted=hinted,
            convergence_timeout=self._convergence_timeout)

    def _convergence_timeout(self) -> float:
        # 10x the longest observed scope, floored at 100 ms.
        return max(0.1, 10.0 * self.scope.max_scope_seconds)

    def audit(self) -> None:
        """Full-system consistency walk; raises on any drift.

        Checks region accounting, the registry's lifetimes against its word
        arena (`GuideRegistry.audit`), that every live guide's heap bits
        match the region its locator falls in, and that its locator is a
        live slot there that no other live guide names.  Slots no guide
        names are allowed.  Run it while no mutator is between a tombstone
        and its retire.
        """
        self.regions.audit()
        self.registry.audit()
        words = np.frombuffer(self.registry.words[:], dtype=np.uint64)
        heaps = (words & HEAP_FIELD) >> HEAP_SHIFT
        located = (words & LOCATOR_MASK) // self.regions.region_length
        wrong = np.flatnonzero(((words & HEAP_FIELD) != HEAP_FIELD)
                               & (heaps != located))
        if len(wrong):
            index = int(wrong[0])
            word = int(words[index])
            locator = word & LOCATOR_MASK
            actual = self.regions.heap_of(locator)  # raises outside them
            raise AssertionError(
                f"guide {index}: heap bits say {word_heap(word).name}, "
                f"locator {locator:#x} lies in {actual.name}")
        del heaps, located
        # Slice by slice, each live locator is looked up in its region's
        # slot dict and packed into the front of `words`, which is then
        # sorted in place: no other temporary grows with the arena.
        slots, length = self.regions.slots, self.regions.region_length
        packed = 0
        for lo in range(0, len(words), SCAN_CHUNK):
            chunk = words[lo:lo + SCAN_CHUNK]
            live = np.flatnonzero((chunk & HEAP_FIELD) != HEAP_FIELD)
            locators = chunk[live] & LOCATOR_MASK
            found = np.fromiter(
                map(dict.__contains__,
                    map(slots.__getitem__, (locators // length).tolist()),
                    (locators % length).tolist()), bool, len(live))
            if not found.all():
                bad = int(np.argmin(found))
                raise AssertionError(
                    f"guide {lo + int(live[bad])}: locator "
                    f"{int(locators[bad]):#x} is not a live slot")
            words[packed:packed + len(live)] = locators
            packed += len(live)
        located = words[:packed]
        located.sort()
        twice = np.flatnonzero(located[1:] == located[:-1])
        if len(twice):
            locator = int(located[twice[0]])
            words = np.frombuffer(self.registry.words[:], dtype=np.uint64)
            guides = np.flatnonzero(((words & HEAP_FIELD) != HEAP_FIELD)
                                    & ((words & LOCATOR_MASK) == locator))
            raise AssertionError(
                f"guides {guides.tolist()} name the same slot "
                f"{locator:#x}")
