"""The object collector: scan windows, classification, epochs, migration.

Once per scan window the collector ages the guide-word arena one lock stripe
at a time with numpy: under the stripe's lock it copies the stripe's words,
clears the accessed flag and updates the consecutive-inactive-window count
(CIW) of every live word, and writes the stripe back.  From the copies it
then queues, in ascending guide index, promotions (accessed objects in NEW
or COLD move to HOT) and demotions (objects inactive for at least the cold
threshold move to COLD).  It adjusts the cold threshold from the observed
promotion rate and runs one epoch cycle in which queued candidates are
migrated with the two-CAS optimistic protocol, a chunk of guides at a time:
each chunk takes its target region's lock once for all its new slots and
each source region's lock once for all its freed ones.
"""
from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from .guideword import (ACCESSED_BIT, ATC_FIELD, CIW_FIELD, CIW_MAX,
                        CIW_SHIFT, HEAP_FIELD, HEAP_SHIFT, LOCATOR_MASK,
                        LOCK_BIT, WORD_MASK, HeapId)
from .regions import HintEvent, HintKind, RegionError
from .scope import Phase

CT_MIN = 1
CT_MAX = 32
DEFAULT_PR_TARGET = 0.01       # fraction of the working set per minute
DEFAULT_SCAN_INTERVAL_S = 120.0
DEFAULT_CONVERGENCE_FLOOR_S = 0.1
HINT_STABILITY_WINDOWS = 2
SCAN_CHUNK = 16384  # guides classified per numpy pass
# Guides migrated per region-lock pass.  A 200k-move window took about the
# same time at 16 to 4,096 guides per chunk (1.3-1.7 s against 2.8-3.0 s
# per object, 2-core box): the saving comes from dropping per-object layers,
# not from long batches.  A short chunk bounds each object's lock-to-commit
# window, where a mutator's access aborts the move, to ~0.3 ms (~5 us of
# lock, read and allocate work per guide), and the time mutators wait for
# the target region's lock.
MIGRATE_CHUNK = 64

_AGE_KEEP = WORD_MASK & ~(ACCESSED_BIT | CIW_FIELD)
_BUSY = LOCK_BIT | ATC_FIELD  # a word with either set is not migrated
_HOT, _COLD, _RESERVED = (int(h) for h in
                          (HeapId.HOT, HeapId.COLD, HeapId.RESERVED))


class CollectorError(RuntimeError):
    pass


def next_cold_threshold(ct: int, pr_actual: float, pr_target: float) -> int:
    """Additive-increase/additive-decrease step, clamped to [1, 32]."""
    if pr_actual > pr_target:
        return min(ct + 1, CT_MAX)
    if pr_actual < pr_target:
        return max(ct - 1, CT_MIN)
    return ct


def compute_promotion_rate(unique_cold_pages_accessed: int,
                           working_set_pages: int,
                           scan_interval_s: float) -> float:
    """Unique COLD pages accessed over working-set pages, per minute."""
    if working_set_pages <= 0:
        return 0.0
    return (unique_cold_pages_accessed / working_set_pages) \
        * (60.0 / scan_interval_s)


@dataclass
class ControllerState:
    cold_threshold: int = 3
    pr_target: float = DEFAULT_PR_TARGET
    scan_interval_s: float = DEFAULT_SCAN_INTERVAL_S
    stable_windows: int = 0

    def __post_init__(self):
        if not CT_MIN <= self.cold_threshold <= CT_MAX:
            raise CollectorError("cold threshold outside [1, 32]")


@dataclass
class WindowReport:
    window_index: int
    pr_actual: float
    cold_threshold_after: int
    promoted_to_hot: int
    demoted_to_cold: int
    new_to_hot: int
    aborted_migrations: int
    skipped_migrations: int
    scanned_guides: int
    heap_bytes: dict[str, int]
    unique_cold_pages_accessed: int
    working_set_pages: int
    converged: bool
    hints_emitted: int
    bytes_moved: int  # payload bytes of the window's committed moves

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


@dataclass
class ScanResult:
    """What one scan saw; guide lists are in ascending guide index."""

    scanned: int
    promotions: list[int]
    demotions: list[int]
    working_set_pages: int        # unique pages holding an accessed object
    cold_pages: int               # of those, the pages in COLD


@dataclass
class MigrationCounts:
    """Outcomes of a batch of migrations."""

    # Committed moves by source heap id (NEW, HOT, COLD).
    moved_from: list[int] = field(default_factory=lambda: [0, 0, 0])
    aborted: int = 0
    skipped: int = 0
    bytes_moved: int = 0  # payload bytes of the committed moves

    @property
    def moved(self) -> int:
        return sum(self.moved_from)


def _count_unique(chunks: list[np.ndarray]) -> int:
    return len(np.unique(np.concatenate(chunks))) if chunks else 0


class Collector:
    """Single collector thread driving scans, epochs, and migrations."""

    def __init__(self, registry, regions, tai, epoch_state,
                 controller: ControllerState | None = None,
                 access_log=None, hinted: bool = False,
                 convergence_timeout=None):
        self.registry = registry
        self.regions = regions
        self.tai = tai
        self.epoch_state = epoch_state
        self.controller = controller or ControllerState()
        self.access_log = access_log
        self.hinted = hinted
        # Callable returning the PREPARE-phase wait budget in seconds.
        self._convergence_timeout = convergence_timeout
        self.window_index = 0
        self.reports: list[WindowReport] = []
        self.hint_events: list[HintEvent] = []
        # The words as read by the last scan; reused across windows.
        self._snapshot = np.empty(0, dtype=np.uint64)

    # -- epoch state machine -------------------------------------------------

    def begin_epoch(self) -> None:
        state = self.epoch_state
        if state.phase != Phase.INACTIVE:
            raise CollectorError("begin_epoch outside INACTIVE")
        # Tracking goes on before the epoch moves, so a scope that registers
        # under the new epoch is sure to see it on (ScopeManager.enter_scope).
        state.tracking_enabled = True
        state.epoch += 1
        state.phase = Phase.PREPARE

    def await_convergence(self, timeout_s: float | None = None) -> bool:
        state = self.epoch_state
        if state.phase != Phase.PREPARE:
            raise CollectorError("await_convergence outside PREPARE")
        if timeout_s is None:
            if self._convergence_timeout is not None:
                timeout_s = self._convergence_timeout()
            else:
                timeout_s = DEFAULT_CONVERGENCE_FLOOR_S
        deadline = time.monotonic() + timeout_s
        while True:
            if self.tai.converged(state.epoch):
                state.phase = Phase.ACTIVE
                return True
            if time.monotonic() >= deadline:
                state.phase = Phase.INACTIVE
                state.tracking_enabled = False
                return False
            time.sleep(0.0002)

    def end_epoch(self) -> None:
        state = self.epoch_state
        if state.phase != Phase.ACTIVE:
            raise CollectorError("end_epoch outside ACTIVE")
        state.phase = Phase.INACTIVE
        state.tracking_enabled = False

    # -- migration -----------------------------------------------------------

    def migrate(self, cell_index: int, target: HeapId) -> str:
        """Attempt one optimistic move; returns moved, skipped, or aborted."""
        counts = self.migrate_batch([cell_index], target)
        if counts.moved:
            return "moved"
        return "aborted" if counts.aborted else "skipped"

    def migrate_batch(self, indices: list[int],
                      target: HeapId) -> MigrationCounts:
        """Move guides to `target`, MIGRATE_CHUNK at a time, in list order."""
        if self.epoch_state.phase != Phase.ACTIVE:
            raise CollectorError("migrate outside ACTIVE")
        counts = MigrationCounts()
        for lo in range(0, len(indices), MIGRATE_CHUNK):
            self._migrate_chunk(indices[lo:lo + MIGRATE_CHUNK], target,
                                counts)
        return counts

    def _migrate_chunk(self, chunk: list[int], target: HeapId,
                       counts: MigrationCounts) -> None:
        """The two-CAS protocol over a chunk of guides.

        Each word that is idle (no lock, no ATC, not RESERVED) is locked by
        a CAS under its stripe lock and its payload is read; a slot already
        freed aborts the move.  The target region then takes every payload
        object itself into a new slot under one lock acquisition.  Each
        commit CAS that finds its locked word unchanged publishes the new
        slot; one that finds it changed (an access, a scope registration, a
        delete or a set since the lock) aborts, and its copy is freed.  The
        committed objects' old slots are freed with one lock acquisition
        per source region.
        """
        words, stripes = self.registry.words, self.registry.stripes
        n_stripes = len(stripes)
        regions = [self.regions.region(heap)
                   for heap in (HeapId.NEW, HeapId.HOT, HeapId.COLD)]
        locked: list[int] = []
        olds: list[int] = []
        payloads: list[bytes] = []
        for index in chunk:
            word = words[index]
            if word & _BUSY or (word & HEAP_FIELD) == HEAP_FIELD:
                counts.skipped += 1
                continue
            lock = stripes[index % n_stripes]
            with lock:
                if words[index] != word:
                    counts.skipped += 1
                    continue
                words[index] = word | LOCK_BIT
            try:
                payload = regions[(word >> HEAP_SHIFT) & 3].read(
                    word & LOCATOR_MASK)
            except RegionError:
                # Freed by a delete or a set after the lock CAS, so the
                # word changed too; undo the lock only if it still stands.
                with lock:
                    if words[index] == word | LOCK_BIT:
                        words[index] = word
                counts.aborted += 1
                continue
            locked.append(index)
            olds.append(word)
            payloads.append(payload)
        if not locked:
            return
        target_region = regions[target]
        new_locators = target_region.allocate_batch(payloads)
        heap_bits = int(target) << HEAP_SHIFT
        freed: list[list[int]] = [[], [], []]  # old slots by source heap
        copies: list[int] = []
        for index, word, payload, new_locator in zip(locked, olds, payloads,
                                                     new_locators):
            lock = stripes[index % n_stripes]
            with lock:
                if words[index] != word | LOCK_BIT:
                    committed = False
                elif new_locator is None:  # no room: unlock
                    words[index] = word
                    committed = False
                else:
                    words[index] = new_locator | heap_bits
                    committed = True
            if committed:
                freed[(word >> HEAP_SHIFT) & 3].append(word & LOCATOR_MASK)
                counts.bytes_moved += len(payload)
            elif new_locator is None:
                counts.skipped += 1
            else:
                copies.append(new_locator)
        for heap, locators in enumerate(freed):
            if locators:
                regions[heap].free_batch(locators)
                counts.moved_from[heap] += len(locators)
        if copies:
            target_region.free_batch(copies)
            counts.aborted += len(copies)

    # -- scan window ---------------------------------------------------------

    def _age_words(self) -> np.ndarray:
        """Age every live word, one lock stripe at a time.

        Under a stripe's lock, the lock every CAS on its words takes, the
        stripe is copied out of the arena, aged (accessed cleared; CIW reset
        to 0 if it was set, else raised by one up to CIW_MAX) and written
        back with one extended-slice assignment, so no concurrent update is
        lost.  RESERVED words and guides created after the scan began are
        left alone.  No view of the arena outlives the stripe copy, so
        mutators may append to it meanwhile.  Returns the words as they were
        before aging, in guide-index order, in a buffer reused across
        windows.
        """
        registry = self.registry
        words = registry.words
        n = len(words)
        if len(self._snapshot) < n:
            self._snapshot = np.empty(n + n // 4, dtype=np.uint64)
        snapshot = self._snapshot[:n]
        step = len(registry.stripes)
        for s, lock in enumerate(registry.stripes[:n]):
            with lock:
                old = np.frombuffer(words[s:n:step], dtype=np.uint64)
                ciw = np.where(
                    old & ACCESSED_BIT, 0,
                    np.minimum(((old >> CIW_SHIFT) & CIW_MAX) + 1, CIW_MAX))
                aged = (old & _AGE_KEEP) | (ciw << CIW_SHIFT)
                live = (old & HEAP_FIELD) != HEAP_FIELD
                aged = np.where(live, aged, old)
                words[s:n:step] = array("Q", aged.tobytes())
            snapshot[s::step] = old
        return snapshot

    def scan(self, cold_threshold: int) -> ScanResult:
        """Age the arena and classify every live guide from its old word."""
        snapshot = self._age_words()
        page_size = self.regions.page_size
        promotions: list[int] = []
        demotions: list[int] = []
        ws_pages: list[np.ndarray] = []
        cold_pages: list[np.ndarray] = []
        scanned = 0
        for lo in range(0, len(snapshot), SCAN_CHUNK):
            old = snapshot[lo:lo + SCAN_CHUNK]
            heap = (old >> HEAP_SHIFT) & 3
            live = heap != _RESERVED
            accessed = (old & ACCESSED_BIT) != 0
            scanned += int(np.count_nonzero(live))
            hit = live & accessed
            pages = (old[hit] & LOCATOR_MASK) // page_size
            ws_pages.append(np.unique(pages))
            cold_pages.append(np.unique(pages[heap[hit] == _COLD]))
            promote = np.flatnonzero(hit & (heap != _HOT))
            promotions += (promote + lo).tolist()
            ciw = np.minimum(((old >> CIW_SHIFT) & CIW_MAX) + 1, CIW_MAX)
            demote = live & ~accessed & (ciw >= cold_threshold) \
                & (heap != _COLD)
            demotions += (np.flatnonzero(demote) + lo).tolist()
        return ScanResult(scanned, promotions, demotions,
                          _count_unique(ws_pages), _count_unique(cold_pages))

    def run_scan_window(self) -> WindowReport:
        if self.epoch_state.phase != Phase.INACTIVE:
            raise CollectorError("scan window outside INACTIVE")
        ctl = self.controller
        self.window_index += 1
        ct = ctl.cold_threshold
        # PR is only a meaningful stability signal once demotion has begun;
        # a below-target reading against an empty COLD region must not count
        # toward hint stability or reclaim advice would fire at startup.
        cold_populated = \
            self.regions.region(HeapId.COLD).live_slot_count > 0

        scan = self.scan(ct)
        pr = compute_promotion_rate(scan.cold_pages, scan.working_set_pages,
                                    ctl.scan_interval_s)
        ctl.cold_threshold = next_cold_threshold(ct, pr, ctl.pr_target)
        if pr >= ctl.pr_target:
            ctl.stable_windows = 0
        elif cold_populated:
            ctl.stable_windows += 1

        up = down = MigrationCounts()
        self.begin_epoch()
        converged = self.await_convergence()
        if converged:
            up = self.migrate_batch(scan.promotions, HeapId.HOT)
            down = self.migrate_batch(scan.demotions, HeapId.COLD)
            self.end_epoch()
        promoted = up.moved_from[_COLD]
        new_to_hot = up.moved - promoted
        demoted = down.moved
        self.registry.reclaim_retired()

        hints = self.maybe_emit_hints()
        self.hint_events.extend(hints)

        heap_bytes = {heap.name: self.regions.region(heap).live_bytes
                      for heap in (HeapId.NEW, HeapId.HOT, HeapId.COLD)}
        report = WindowReport(
            window_index=self.window_index,
            pr_actual=pr,
            cold_threshold_after=ctl.cold_threshold,
            promoted_to_hot=promoted,
            demoted_to_cold=demoted,
            new_to_hot=new_to_hot,
            aborted_migrations=up.aborted + down.aborted,
            skipped_migrations=up.skipped + down.skipped,
            scanned_guides=scan.scanned,
            heap_bytes=heap_bytes,
            unique_cold_pages_accessed=scan.cold_pages,
            working_set_pages=scan.working_set_pages,
            converged=converged,
            hints_emitted=len(hints),
            bytes_moved=up.bytes_moved + down.bytes_moved,
        )
        self.reports.append(report)
        if self.access_log is not None:
            self.access_log.advance()
        return report

    def maybe_emit_hints(self) -> list[HintEvent]:
        """Reclaim advice for COLD, gated on a stable below-target PR.

        Default (non-hinted) mode never emits anything; layout work alone is
        the product and backends keep their own policies.
        """
        if not self.hinted:
            return []
        if self.controller.stable_windows < HINT_STABILITY_WINDOWS:
            return []
        events = self.regions.emit_hints(
            HeapId.COLD, HintKind.PAGEOUT_ADVICE, window=self.window_index)
        events += self.regions.emit_hints(
            HeapId.HOT, HintKind.HUGEPAGE_ADVICE, window=self.window_index)
        return events

    def hinted_cold_pages(self) -> set[int]:
        return {page
                for event in self.hint_events
                if event.kind is HintKind.PAGEOUT_ADVICE
                for page in range(event.start_page, event.end_page)}
