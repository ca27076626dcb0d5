"""The object collector: scan windows, classification, epochs, migration.

Once per scan window the collector ages the guide-word arena with numpy in
one exclusive section of the registry (`GuideRegistry.exclusive`: the
registry lock, then the arena's word lock): it copies the arena's words into
a snapshot, clears the accessed flag and updates the consecutive-inactive-
window count (CIW) of every live word in place.  From the snapshot it then
queues, in ascending guide index, promotions (accessed objects in NEW or
COLD move to HOT) and demotions (objects inactive for at least the cold
threshold move to COLD).  It adjusts the cold threshold from the observed
promotion rate and runs one epoch cycle in which queued candidates are
migrated with the two-CAS optimistic protocol, a chunk of guides at a time.
Each chunk runs in two passes, each one exclusive section over a numpy view
of the arena: a lock pass that locks every idle word, and a commit pass that
publishes every copy whose word is still as locked.  Between them, with no
lock held, the payloads are read from the source regions' slot dicts and the
target region places all the copies with one numpy-vectorized batch
allocation; after the commit pass each source region frees its moved slots
in one batch.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .guideword import (ACCESSED_BIT, ATC_FIELD, CIW_FIELD, CIW_MAX,
                        CIW_SHIFT, HEAP_FIELD, HEAP_SHIFT, LOCATOR_MASK,
                        LOCK_BIT, WORD_MASK, HeapId)
from .regions import PAGE_SIZE, HintEvent, HintKind
from .scope import Phase

CT_MIN = 1
CT_MAX = 32
DEFAULT_PR_TARGET = 0.01       # fraction of the working set per minute
DEFAULT_SCAN_INTERVAL_S = 120.0
DEFAULT_CONVERGENCE_FLOOR_S = 0.1
HINT_STABILITY_WINDOWS = 2
SCAN_CHUNK = 16384  # guides aged, classified or audited per numpy pass
# Guides migrated per chunk (two exclusive sections, one batch allocate, one
# batch free per source region).  On a 2-core box, seeds 1-3, 460k moves per
# run: zipf-read-hashmap's collector_s read medians of 1.02 s at 256 guides
# per chunk, 0.83 s at 512, 0.78 s at 1,024 and 0.76 s at 4,096; churn-
# concurrent-hashmap aborted about 245, 270, 530 and 1,570 moves per run of
# about 120,000 committed, with 514 lock calls per section.  A longer chunk
# spreads each section's fixed cost over more guides, but lengthens each
# guide's lock-to-commit window, where a mutator's access aborts the move.
MIGRATE_CHUNK = 1024

_AGE_KEEP = WORD_MASK & ~(ACCESSED_BIT | CIW_FIELD)
# A word with either set is not migrated; nor, to COLD, an accessed one.
_BUSY = LOCK_BIT | ATC_FIELD
_HOT, _COLD, _RESERVED = (int(h) for h in
                          (HeapId.HOT, HeapId.COLD, HeapId.RESERVED))
# Empty seeds of the scan's concatenations, so an empty arena concatenates.
_NO_GUIDES = np.empty(0, np.int64)
_NO_PAGES = np.empty(0, np.uint64)


def _count_distinct(values: np.ndarray) -> int:
    """The number of distinct values, by one sort.  On 200k random page
    numbers (numpy 2.4, a 2-vCPU Xeon VM) a sort and compare took 1.9 ms
    where `np.unique`, which counts through a hash table, took 90 ms."""
    values = np.sort(values)
    return int(np.count_nonzero(values[1:] != values[:-1])) \
        + (len(values) > 0)


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


def _aged(old: np.ndarray) -> np.ndarray:
    """Words `old` aged by one window; RESERVED words are kept as they are."""
    ciw = np.where(old & ACCESSED_BIT, 0,
                   np.minimum(((old >> CIW_SHIFT) & CIW_MAX) + 1, CIW_MAX))
    return np.where((old & HEAP_FIELD) != HEAP_FIELD,
                    (old & _AGE_KEEP) | (ciw << CIW_SHIFT), old)


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
        self._reclaim_mark = 0  # graveyard_mark() at the last begin_epoch

    # -- epoch state machine -------------------------------------------------

    def begin_epoch(self) -> None:
        state = self.epoch_state
        if state.phase != Phase.INACTIVE:
            raise CollectorError("begin_epoch outside INACTIVE")
        # Entries retired before the epoch moves may be held by scopes that
        # a converged window waits out; later ones may not (reclaim_retired).
        self._reclaim_mark = self.registry.graveyard_mark()
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
        indices = np.asarray(indices, dtype=np.int64)
        # The scan's lists ascend strictly, which settles most calls.
        if len(indices) > 1 and not (np.diff(indices) > 0).all() \
                and len(np.unique(indices)) < len(indices):
            raise ValueError("migrate_batch names a guide twice")
        for lo in range(0, len(indices), MIGRATE_CHUNK):
            self._migrate_chunk(indices[lo:lo + MIGRATE_CHUNK], target,
                                counts)
        return counts

    def _migrate_chunk(self, chunk: np.ndarray, target: HeapId,
                       counts: MigrationCounts) -> None:
        """The two-CAS protocol over a chunk of guides, in a lock pass and
        a commit pass that each run in one exclusive section of the
        registry (`GuideRegistry.exclusive`) on a numpy view of the arena.

        The lock pass locks each word that is idle (no lock, no ATC, not
        RESERVED and, for a move to COLD, not accessed since the scan) by
        storing `word | LOCK_BIT`; the others are skipped.  Outside the
        section, each locked payload is read from its source region's slot
        dict, and the target region takes every payload object itself into
        a new slot under one lock acquisition.  A payload already freed
        aborts its move.  The commit pass then compares each word with its
        locked value: one unchanged publishes the new slot, or is unlocked
        when the move aborted at the read or found no room; one changed (an
        access, a scope registration, a delete or a set since the lock) is
        left alone, and its copy is freed.  The committed objects' old
        slots are freed with one lock acquisition per source region.

        Deadlock rule: the lock order is the registry lock, then the
        arena's `word_lock`, then a region's lock, and no path takes a
        region lock before `word_lock`:
        - `GuideRegistry.create` takes the registry lock, then `word_lock`;
        - a store's same-length update takes `word_lock`, then the value's
          region lock (`HeapRegion.write`);
        - every other store to a word, `GuideRegistry.retire`'s two
          tombstones included, takes `word_lock` alone;
        - `install`, `free`, `allocate_batch`, `free_batch` and
          `_FreeSlots._merge` (under `install` and `allocate_batch`) hold
          a region lock alone;
        - inside the section the collector takes no region lock, nor any
          other, so no thread blocked on the section holds anything the
          collector waits for.

        A numpy view of `registry.words` exists only inside the section,
        where `words` cannot grow; a view that outlived it would make the
        next appending `create` raise BufferError.
        """
        busy = _BUSY | ACCESSED_BIT if target == HeapId.COLD else _BUSY
        registry = self.registry
        with registry.exclusive() as view:
            try:
                seen = view[chunk]
                idle = ((seen & busy) == 0) \
                    & ((seen & HEAP_FIELD) != HEAP_FIELD)
                guides = chunk[idle]
                olds = seen[idle]
                locked_words = olds | LOCK_BIT
                view[guides] = locked_words
            finally:
                view = None
        counts.skipped += len(chunk) - len(guides)
        if not len(guides):
            return

        regions = self.regions
        locators = olds & LOCATOR_MASK
        source = (olds >> HEAP_SHIFT) & 3
        offsets = (locators - source * regions.region_length).tolist()
        # Each guide's source slot dict, gathered by one object-array index.
        dicts = np.array(regions.slots, dtype=object)[source].tolist()
        payloads = list(map(dict.get, dicts, offsets, repeat(b"")))
        lengths = np.fromiter(map(len, payloads), np.int64, len(payloads))
        read = lengths > 0  # b"": freed by a delete or a set after the lock
        target_region = regions.region(target)
        placed = target_region.allocate_batch(
            payloads if read.all() else [p for p in payloads if p])
        if None in placed:  # no room in the payload's class
            placed = [-1 if locator is None else locator
                      for locator in placed]
        new = np.full(len(payloads), -1, dtype=np.int64)
        new[read] = placed
        copied = new >= 0
        counts.aborted += int(np.count_nonzero(~read))
        counts.skipped += int(np.count_nonzero(read & ~copied))
        # The new slot, or the word unlocked.
        published = np.where(
            copied, new.astype(np.uint64) | (int(target) << HEAP_SHIFT), olds)

        with registry.exclusive() as view:
            try:
                same = view[guides] == locked_words
                view[guides[same]] = published[same]
            finally:
                view = None
        committed = copied & same
        counts.bytes_moved += int(lengths[committed].sum())
        for heap in range(3):
            freed = locators[committed & (source == heap)]
            if len(freed):
                regions.region(HeapId(heap)).free_batch(freed)
                counts.moved_from[heap] += len(freed)
        copies = new[copied & ~committed]
        if len(copies):
            target_region.free_batch(copies)
            counts.aborted += len(copies)

    # -- scan window ---------------------------------------------------------

    def _age_words(self) -> np.ndarray:
        """Age every live word in one exclusive section of the registry.

        Inside the section no word is stored and the arena cannot grow.
        The arena is copied into the snapshot buffer, reused across
        windows, and aged in place (accessed cleared; CIW reset to 0 if it
        was set, else raised by one up to CIW_MAX), SCAN_CHUNK guides at a
        time so no temporary grows with the arena.  RESERVED words are left
        alone, and guides created after the section are not aged.  Returns
        the words as they were before aging, in guide-index order.
        """
        with self.registry.exclusive() as view:
            try:
                n = len(view)
                if len(self._snapshot) < n:
                    self._snapshot = np.empty(n + n // 4, dtype=np.uint64)
                snapshot = self._snapshot[:n]
                for lo in range(0, n, SCAN_CHUNK):
                    old = snapshot[lo:lo + SCAN_CHUNK]
                    old[:] = view[lo:lo + SCAN_CHUNK]
                    view[lo:lo + SCAN_CHUNK] = _aged(old)
            finally:
                view = None
        return snapshot

    def scan(self, cold_threshold: int) -> ScanResult:
        """Age the arena and classify every live guide from its old word."""
        snapshot = self._age_words()
        promotions, demotions = [_NO_GUIDES], [_NO_GUIDES]
        ws_pages, cold_pages = [_NO_PAGES], [_NO_PAGES]
        scanned = 0
        for lo in range(0, len(snapshot), SCAN_CHUNK):
            old = snapshot[lo:lo + SCAN_CHUNK]
            heap = (old >> HEAP_SHIFT) & 3
            live = heap != _RESERVED
            accessed = (old & ACCESSED_BIT) != 0
            scanned += int(np.count_nonzero(live))
            hit = live & accessed
            pages = (old[hit] & LOCATOR_MASK) // PAGE_SIZE
            ws_pages.append(pages)
            cold_pages.append(pages[heap[hit] == _COLD])
            promotions.append(np.flatnonzero(hit & (heap != _HOT)) + lo)
            ciw = np.minimum(((old >> CIW_SHIFT) & CIW_MAX) + 1, CIW_MAX)
            demote = live & ~accessed & (ciw >= cold_threshold) \
                & (heap != _COLD)
            demotions.append(np.flatnonzero(demote) + lo)
        return ScanResult(scanned, np.concatenate(promotions).tolist(),
                          np.concatenate(demotions).tolist(),
                          _count_distinct(np.concatenate(ws_pages)),
                          _count_distinct(np.concatenate(cold_pages)))

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
            self.registry.reclaim_retired(self._reclaim_mark)
        promoted = up.moved_from[_COLD]
        new_to_hot = up.moved - promoted
        demoted = down.moved

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
