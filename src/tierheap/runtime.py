"""Guide registry and the wired-up runtime facade.

TierRuntime owns one of everything: the three heap regions, the guide
registry, the thread activity index, the scope manager, the access log, and
the collector.  Stores and the benchmark driver talk to their components
through this object.  The registry is the only record of guide lifetimes: a
guide is live exactly when its word's heap bits are not RESERVED.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .collector import SCAN_CHUNK, Collector, ControllerState
from .guideword import (ATC_FIELD, HEAP_FIELD, HEAP_SHIFT, LOCATOR_MASK,
                        TOMBSTONE_BASE, GuideArena, GuideProtocolError,
                        word_heap)
from .metrics import AccessLog
from .regions import DEFAULT_REGION_LENGTH, RegionManager
from .scope import EpochState, ScopeManager, ThreadActivityIndex


class GuideRegistry(GuideArena):
    """Guide arena with stable indices and their lifetimes.

    The arena holds the words and runs the guide-word protocol by index;
    the registry adds lifetimes, and its one lifetime unit is an entry: a
    pair of adjacent guides, key `g` and value `g + 1`.  `create` makes
    both words, `retire` tombstones both (heap=RESERVED, ATC preserved)
    and parks `g` in a graveyard until both words' ATC drains, so scopes
    that recorded a guide before the delete can still balance their
    decrements.  The collector drains the graveyard at the end of each
    window that converged, and only of the entries retired before the
    window began: convergence proves that every scope open at a retire,
    which may still hold the deleted entry, has exited.  A drained entry
    goes onto the free list, whose pairs `create` reuses, last freed
    first.  A word is live exactly when its heap bits are not RESERVED,
    and both words of every entry on the free list or in the graveyard
    are RESERVED.

    The registry lock guards only the arena's growth and the reuse of
    freed pairs: `create` appends to `words`, or pops the free list, only
    under it, and `reclaim_retired` fills the free list under it.
    `retire` takes only `word_lock`, to store both tombstones, and parks
    the entry by one graveyard append, an atomic list operation;
    `reclaim_retired` drains the graveyard's prefix in place, so a retire
    racing it is never lost.  The lock order is the registry lock, then
    `word_lock`, then a heap region's lock, which a store's same-length
    update takes under `word_lock`; `exclusive` takes the first two, so the
    collector can work on a numpy view of the whole arena.
    """

    def __init__(self):
        super().__init__()
        self._free: list[int] = []
        self._graveyard: list[int] = []
        self._lock = threading.Lock()

    @property
    def live_count(self) -> int:
        """Created words less parked ones: exact while no entry is being
        created or reclaimed."""
        return len(self.words) - 2 * (len(self._free) + len(self._graveyard))

    def create(self, key_word: int, value_word: int) -> int:
        """An entry's guides, `g` for `key_word` and `g + 1` for
        `value_word`, under one registry-lock acquisition: a freed pair if
        there is one, else two words appended to the arena.  Returns `g`."""
        if ((key_word & HEAP_FIELD) == HEAP_FIELD
                or (value_word & HEAP_FIELD) == HEAP_FIELD):
            raise ValueError("cannot create a guide with a RESERVED heap id")
        arena = self.words
        with self._lock:
            if self._free:
                g = self._free.pop()
                with self.word_lock:
                    arena[g] = key_word
                    arena[g + 1] = value_word
                return g
            g = len(arena)
            arena.append(key_word)
            arena.append(value_word)
            return g

    @contextmanager
    def exclusive(self):
        """Hold the registry lock, then `word_lock`, and yield the arena as
        a writable uint64 numpy view.

        Inside the section no word is stored and `words` cannot grow, so
        the view stays valid.  It must not outlive the section: a view
        still exported at an appending `create` makes it raise
        BufferError.  So the caller deletes its reference before leaving
        the section, in a `finally` that runs on an exception too, whose
        traceback would otherwise keep the caller's frame, and the view,
        alive.
        """
        with self._lock, self.word_lock:
            try:
                view = np.frombuffer(self.words, dtype=np.uint64)
                yield view
            finally:
                view = None

    def retire(self, g: int) -> tuple[int, int]:
        """Tombstone entry `g`'s two words in one `word_lock` section,
        keeping their ATC, and park `g` until both counts drain.  Returns
        the replaced key and value words, whose slots the caller frees.

        A retire of an entry already retired raises GuideProtocolError
        before it stores anything.
        """
        words = self.words
        with self.word_lock:
            key_word = words[g]
            if key_word & HEAP_FIELD == HEAP_FIELD:
                raise GuideProtocolError(
                    f"retire of entry {g}, which is already retired")
            value_word = words[g + 1]
            words[g] = TOMBSTONE_BASE | (key_word & ATC_FIELD)
            words[g + 1] = TOMBSTONE_BASE | (value_word & ATC_FIELD)
        self._graveyard.append(g)
        return key_word, value_word

    def graveyard_mark(self) -> int:
        """The graveyard's length: entries retired so far lie below it."""
        return len(self._graveyard)

    def reclaim_retired(self, mark: int | None = None) -> None:
        """Free the entries parked below `mark` (all by default) whose two
        words' ATC has drained; the others stay parked, in order, at the
        front.

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
            words, free = self.words, self._free
            for g in drained:
                if (words[g] | words[g + 1]) & ATC_FIELD:
                    still_parked.append(g)
                else:
                    free.append(g)
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

        Both indices of every parked entry must be exactly the RESERVED
        words, none parked twice.  `live_count` then equals the number of
        live words.
        """
        with self._lock:
            parked = self._free + self._graveyard[:]
            words = np.frombuffer(self.words[:], dtype=np.uint64)
        reserved = np.flatnonzero(
            (words & HEAP_FIELD) == HEAP_FIELD).tolist()
        parked = sorted(parked + [g + 1 for g in parked])
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
        names are allowed.  Run it while no mutator is inside a `retire`,
        between its tombstones and its graveyard append.
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
