"""The object collector: scan windows, classification, epochs, migration.

Once per scan window the collector walks every live guide through the sparse
bitmap, reads and clears the accessed flag, maintains the per-object
consecutive-inactive-window count, and queues promotions (accessed objects in
NEW or COLD move to HOT) and demotions (objects inactive for at least the
cold threshold move to COLD).  It then adjusts the cold threshold from the
observed promotion rate and runs one epoch cycle in which queued candidates
are migrated with the two-CAS optimistic protocol.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .guideword import (ACCESSED_BIT, ATC_FIELD, CIW_FIELD, CIW_MAX,
                        CIW_SHIFT, LOCATOR_MASK, LOCK_BIT, HeapId, pack,
                        word_heap)
from .regions import HintEvent, HintKind, RegionError, RegionExhausted
from .scope import Phase

CT_MIN = 1
CT_MAX = 32
DEFAULT_PR_TARGET = 0.01       # fraction of the working set per minute
DEFAULT_SCAN_INTERVAL_S = 120.0
DEFAULT_CONVERGENCE_FLOOR_S = 0.1
HINT_STABILITY_WINDOWS = 2


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
    pr_history: list[float] = field(default_factory=list)
    ct_history: list[int] = field(default_factory=list)
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

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


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
        self.total_demoted = 0
        self.total_promoted = 0

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
        if self.epoch_state.phase != Phase.ACTIVE:
            raise CollectorError("migrate outside ACTIVE")
        cell = self.registry.cell(cell_index)
        word = cell.load()
        if word & LOCK_BIT or word & ATC_FIELD \
                or word_heap(word) == HeapId.RESERVED:
            return "skipped"
        locked = cell.try_lock_for_migration(word)
        if locked is None:
            return "skipped"
        old_locator = word & LOCATOR_MASK
        try:
            payload = self.regions.read(old_locator)
        except RegionError:
            # The object was freed (deleted/replaced) after the lock CAS; the
            # word necessarily changed too, so just undo the lock best-effort.
            cell.compare_and_swap(locked, word)
            return "aborted"
        try:
            new_locator = self.regions.allocate(target, len(payload))
        except RegionExhausted:
            cell.compare_and_swap(locked, word)
            return "skipped"
        self.regions.write(new_locator, payload)
        new_word = pack(new_locator, heap=target)
        if cell.commit_migration(locked, new_word):
            self.regions.free(old_locator)
            return "moved"
        self.regions.free(new_locator)
        return "aborted"

    # -- scan window ---------------------------------------------------------

    def run_scan_window(self) -> WindowReport:
        if self.epoch_state.phase != Phase.INACTIVE:
            raise CollectorError("scan window outside INACTIVE")
        ctl = self.controller
        self.window_index += 1
        page_size = self.regions.page_size
        ct = ctl.cold_threshold
        # PR is only a meaningful stability signal once demotion has begun;
        # a below-target reading against an empty COLD region must not count
        # toward hint stability or reclaim advice would fire at startup.
        cold_populated = \
            self.regions.region(HeapId.COLD).live_slot_count > 0

        scanned = 0
        promotions: list[tuple[int, HeapId]] = []  # (cell, source heap)
        demotions: list[int] = []
        cold_pages: set[int] = set()
        ws_pages: set[int] = set()

        for index in self.registry.soda.indices():
            cell = self.registry.cell(index)
            while True:
                word = cell.word
                heap = word_heap(word)
                if heap == HeapId.RESERVED:
                    break
                accessed = bool(word & ACCESSED_BIT)
                new_ciw = 0 if accessed \
                    else min(((word >> CIW_SHIFT) & CIW_MAX) + 1, CIW_MAX)
                new_word = (word & ~(ACCESSED_BIT | CIW_FIELD)) \
                    | (new_ciw << CIW_SHIFT)
                if new_word == word or cell.compare_and_swap(word, new_word):
                    break
            if heap == HeapId.RESERVED:
                continue
            scanned += 1
            page = (word & LOCATOR_MASK) // page_size
            if accessed:
                ws_pages.add(page)
                if heap == HeapId.COLD:
                    cold_pages.add(page)
                    promotions.append((index, heap))
                elif heap == HeapId.NEW:
                    promotions.append((index, heap))
            elif new_ciw >= ct and heap != HeapId.COLD:
                demotions.append(index)

        pr = compute_promotion_rate(len(cold_pages), len(ws_pages),
                                    ctl.scan_interval_s)
        ctl.cold_threshold = next_cold_threshold(ct, pr, ctl.pr_target)
        ctl.pr_history.append(pr)
        ctl.ct_history.append(ctl.cold_threshold)
        if pr >= ctl.pr_target:
            ctl.stable_windows = 0
        elif cold_populated:
            ctl.stable_windows += 1

        promoted = demoted = new_to_hot = aborted = skipped = 0
        self.begin_epoch()
        converged = self.await_convergence()
        if converged:
            for index, source in promotions:
                outcome = self.migrate(index, HeapId.HOT)
                if outcome == "moved":
                    if source == HeapId.COLD:
                        promoted += 1
                    else:
                        new_to_hot += 1
                elif outcome == "aborted":
                    aborted += 1
                else:
                    skipped += 1
            for index in demotions:
                outcome = self.migrate(index, HeapId.COLD)
                if outcome == "moved":
                    demoted += 1
                elif outcome == "aborted":
                    aborted += 1
                else:
                    skipped += 1
            self.end_epoch()
        self.registry.reclaim_retired()
        self.total_promoted += promoted + new_to_hot
        self.total_demoted += demoted

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
            aborted_migrations=aborted,
            skipped_migrations=skipped,
            scanned_guides=scanned,
            heap_bytes=heap_bytes,
            unique_cold_pages_accessed=len(cold_pages),
            working_set_pages=len(ws_pages),
            converged=converged,
            hints_emitted=len(hints),
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
            HeapId.COLD, HintKind.PAGEOUT_ADVICE,
            eligible=lambda page, rec: rec.live_slots > 0,
            window=self.window_index)
        events += self.regions.emit_hints(
            HeapId.HOT, HintKind.HUGEPAGE_ADVICE, eligible=None,
            window=self.window_index)
        return events

    def hinted_cold_pages(self) -> set[int]:
        return {page
                for event in self.hint_events
                if event.kind is HintKind.PAGEOUT_ADVICE
                for page in range(event.start_page, event.end_page)}
