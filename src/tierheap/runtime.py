"""Guide registry and the wired-up runtime facade.

TierRuntime owns one of everything: the three heap regions, the guide
registry, the thread activity index, the scope manager, the access log, and
the collector.  Stores and the benchmark driver talk to their components
through this object.  The registry is the only record of guide lifetimes: a
guide is live exactly when its word's heap bits are not RESERVED.
"""
from __future__ import annotations

import threading

import numpy as np

from .collector import Collector, ControllerState
from .guideword import (ATC_FIELD, HEAP_FIELD, LOCATOR_MASK, LOCK_STRIPES,
                        GuideArena, GuideProtocolError, tombstone_from,
                        word_heap)
from .metrics import AccessLog
from .regions import DEFAULT_PAGE_SIZE, DEFAULT_REGION_LENGTH, RegionManager
from .scope import EpochState, ScopeManager, ThreadActivityIndex


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
    """

    def __init__(self):
        super().__init__()
        self._free: list[int] = []
        self._graveyard: list[int] = []
        self._lock = threading.Lock()
        self.live_count = 0

    def create(self, word: int) -> int:
        if (word & HEAP_FIELD) == HEAP_FIELD:
            raise ValueError("cannot create a guide with a RESERVED heap id")
        with self._lock:
            if self._free:
                index = self._free.pop()
                with self.stripes[index % LOCK_STRIPES]:
                    self.words[index] = word
            else:
                index = len(self.words)
                self.words.append(word)
            self.live_count += 1
        return index

    def retire(self, index: int) -> None:
        """Park the tombstoned guide `index` until its ATC drains.

        The caller must already have swung the word to a tombstone, and
        retires each guide once.
        """
        with self._lock:
            if (self.words[index] & HEAP_FIELD) != HEAP_FIELD:
                raise GuideProtocolError(
                    f"retire of guide {index}, which is not a tombstone")
            self._graveyard.append(index)
            self.live_count -= 1

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
        has drained; the others stay parked, in order."""
        with self._lock:
            graveyard = self._graveyard
            if mark is None:
                mark = len(graveyard)
            still_parked = []
            words = self.words
            for index in graveyard[:mark]:
                if words[index] & ATC_FIELD:
                    still_parked.append(index)
                else:
                    self._free.append(index)
            self._graveyard = still_parked + graveyard[mark:]

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
        """Check the arena against the free list, graveyard and live count.

        The parked indices must be exactly the RESERVED words, none parked
        twice, and `live_count` must be the number of live words.
        """
        with self._lock:
            parked = self._free + self._graveyard
            reserved = [index for index, word in enumerate(self.words)
                        if (word & HEAP_FIELD) == HEAP_FIELD]
            live = len(self.words) - len(reserved)
            live_count = self.live_count
        parked.sort()
        twice = sorted({a for a, b in zip(parked, parked[1:]) if a == b})
        if twice:
            raise AssertionError(f"guides {twice[:8]} are parked twice")
        if parked != reserved:
            raise AssertionError(
                f"RESERVED words {reserved[:8]} but parked indices "
                f"{parked[:8]}")
        if live != live_count:
            raise AssertionError(
                f"{live} live words in the arena but a live count of "
                f"{live_count}")

    # tierbench/harness.py walks `registry.soda.indices()` for its traced
    # `soda.walk_ns_per_guide` metric, so the registry answers to that name.
    soda = property(lambda self: self)


class TierRuntime:
    def __init__(self, *, page_size: int = DEFAULT_PAGE_SIZE,
                 region_length: int = DEFAULT_REGION_LENGTH,
                 scan_interval_s: float = 120.0,
                 pr_target: float = 0.01,
                 ct_init: int = 3,
                 hinted: bool = False,
                 track_access_log: bool = True):
        self.regions = RegionManager(region_length, page_size)
        self.registry = GuideRegistry()
        self.epoch_state = EpochState()
        self.tai = ThreadActivityIndex()
        self.scope = ScopeManager(self.registry, self.tai, self.epoch_state)
        self.access_log = AccessLog(page_size) if track_access_log else None
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

    def record_access(self, locator: int, length: int) -> None:
        if self.access_log is not None:
            self.access_log.record(locator, length)

    def audit(self) -> None:
        """Full-system consistency walk; raises on any drift.

        Checks region accounting, the registry's lifetimes against its word
        arena (`GuideRegistry.audit`), and that every live guide's heap bits
        match the region its locator falls in.  Run it while no mutator is
        between a tombstone and its retire.
        """
        self.regions.audit()
        self.registry.audit()
        for index, word in enumerate(self.registry.words):
            if (word & HEAP_FIELD) == HEAP_FIELD:
                continue
            heap = word_heap(word)
            locator = word & LOCATOR_MASK
            actual = self.regions.heap_of(locator)
            if actual != heap:
                raise AssertionError(
                    f"guide {index}: heap bits say {heap.name}, locator "
                    f"{locator:#x} lies in {actual.name}")
