"""Guide-cell registry and the wired-up runtime facade.

TierRuntime owns one of everything: the three heap regions, the guide-cell
arena with its sparse bitmap, the thread activity index, the scope manager,
the access log, and the collector.  Stores and the benchmark driver talk to
their components through this object.
"""
from __future__ import annotations

import threading
from array import array

from .collector import Collector, ControllerState
from .guideword import (ATC_FIELD, HEAP_FIELD, LOCATOR_MASK, GuideCell,
                        tombstone_from, word_heap)
from .metrics import AccessLog
from .regions import DEFAULT_PAGE_SIZE, DEFAULT_REGION_LENGTH, RegionManager
from .scope import EpochState, ScopeManager, ThreadActivityIndex
from .soda import SodaBitmap

LOCK_STRIPES = 256


class GuideRegistry:
    """Arena of guide words with stable indices and a mirrored SODA bitmap.

    `words[i]` is guide i's word, stored unboxed in one `array("Q")`, and
    `cell(i)` is the GuideCell view through which mutators load and CAS it.
    Every store to an existing word happens under the guide's stripe lock,
    `stripes[i % LOCK_STRIPES]`, the lock the cell's CAS emulation
    takes, so the collector can age a whole stripe under one acquisition.
    Deleted guides are tombstoned (heap=RESERVED, ATC preserved) and parked
    in a graveyard until their ATC drains to zero, so scopes that recorded
    the guide before the delete can still balance their decrements.  The
    collector drains the graveyard at the end of each window that
    converged, and only of the indices retired before the window began:
    convergence proves that every scope open at a retire, which may still
    hold the deleted entry, has exited.  A word is live exactly when its
    heap bits are not RESERVED.
    """

    def __init__(self, soda: SodaBitmap):
        self.soda = soda
        self.words = array("Q")
        self._cells: list[GuideCell] = []
        self._free: list[int] = []
        self._graveyard: list[int] = []
        self.stripes = [threading.Lock() for _ in range(LOCK_STRIPES)]
        self._lock = threading.Lock()

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
                self._cells.append(GuideCell(
                    index, self.words, self.stripes[index % LOCK_STRIPES]))
        self.soda.set_bit(index)
        return index

    def cell(self, index: int) -> GuideCell:
        return self._cells[index]

    def retire(self, index: int) -> None:
        """Clear the SODA bit and park the index until its ATC drains.

        The caller must already have swung the word to a tombstone.
        """
        self.soda.clear_bit(index)
        with self._lock:
            self._graveyard.append(index)

    def tombstone(self, index: int) -> int:
        """CAS the cell to a tombstone; returns the replaced word."""
        cell = self._cells[index]
        while True:
            word = cell.load()
            if cell.compare_and_swap(word, tombstone_from(word)):
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

    @property
    def live_count(self) -> int:
        return len(self.soda)

    def live_indices(self):
        return self.soda.indices()


class TierRuntime:
    def __init__(self, *, page_size: int = DEFAULT_PAGE_SIZE,
                 region_length: int = DEFAULT_REGION_LENGTH,
                 scan_interval_s: float = 120.0,
                 pr_target: float = 0.01,
                 ct_init: int = 3,
                 hinted: bool = False,
                 track_access_log: bool = True):
        self.regions = RegionManager(region_length, page_size)
        self.soda = SodaBitmap()
        self.registry = GuideRegistry(self.soda)
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

        Checks region accounting, that the live words of the arena (heap
        bits not RESERVED) are exactly the SODA bitmap's set bits, and that
        every live guide's heap bits match the region its locator falls in.
        Run it while no mutator is between a tombstone and its retire.
        """
        self.regions.audit()
        registry = self.registry
        soda = registry.soda
        live = 0
        for index, word in enumerate(registry.words):
            if (word & HEAP_FIELD) == HEAP_FIELD:
                continue
            live += 1
            if not soda.test(index):
                raise AssertionError(
                    f"guide {index} is live in the arena but its SODA bit "
                    f"is clear")
            heap = word_heap(word)
            locator = word & LOCATOR_MASK
            actual = self.regions.heap_of(locator)
            if actual != heap:
                raise AssertionError(
                    f"guide {index}: heap bits say {heap.name}, locator "
                    f"{locator:#x} lies in {actual.name}")
        if live != registry.live_count:
            raise AssertionError(
                f"{live} live words in the arena but {registry.live_count} "
                f"SODA bits set")
