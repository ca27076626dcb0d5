"""Layout-quality metrics: the access log, page utilization, reclaim replay.

Utilization is counted at 64-byte line granularity: for a scan window T, the
aggregate is sum over touched pages of unique-lines-touched*64 divided by the
combined capacity of those pages.  Pages with no access in the window are
excluded from both sums.  Pages are `regions.PAGE_SIZE` (4 KiB), so the
access log keeps each page's 64 lines as one uint64 mask.
"""
from __future__ import annotations

import csv
import threading
from dataclasses import dataclass, field

import numpy as np

from .regions import PAGE_SIZE, page_rows

LINE_SIZE = 64


@dataclass(slots=True)  # one per touched page of each window read
class AccessLogEntry:
    window: int
    page: int
    line_mask: int


@dataclass
class UtilizationReport:
    per_page: dict[int, float]
    aggregate: float
    cdf_points: list[tuple[float, float]] = field(default_factory=list)


FOLD_BATCH = 4096  # pending records folded into line masks at once
FOLD_LENGTH = 2 * FOLD_BATCH  # pending ints at which a writer folds
# Folded rows a window keeps unmerged before they are merged early, which
# bounds a long window's memory by its touched pages instead of its records.
MERGE_ROWS = 1 << 18
_ALL_LINES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class AccessLog:
    """Windowed record of which 64 B lines of which pages were touched.

    record() runs on mutator hot paths without a lock: it only extends the
    flat `pending` list by its (offset, length) pairs, in one list.extend,
    so records from racing threads never interleave, and no object survives
    that the cyclic garbage collector would have to track.  A hot path may
    make that one extend itself, and call record() only once `pending`
    holds FOLD_LENGTH ints.  When the buffer holds FOLD_BATCH records, and
    before a window closes or is read, it is folded into a (pages, line
    masks) pair of arrays that is appended to the current window's parts,
    under a lock that only folds take, so a record racing a fold lands in
    the next fold instead of being lost.  A
    window's parts are OR-merged per page into one pair, pages in order of
    first touch, when the window is read or closed, or once they hold more
    than MERGE_ROWS rows and more rows than the merged pair.
    """

    def __init__(self):
        self.window = 1
        self._windows: dict[int, list[tuple[np.ndarray, np.ndarray]]] = \
            {1: []}
        self._current = self._windows[1]
        self._loose_rows = 0  # rows folded into _current since its merge
        self.pending: list[int] = []  # offset, length, offset, ...
        self._fold_lock = threading.Lock()

    def record(self, *pairs: int) -> None:
        """Log accesses given as offset, length, offset, length, ..."""
        if len(pairs) & 1:
            raise ValueError("record takes (offset, length) pairs")
        pending = self.pending
        pending.extend(pairs)
        if len(pending) >= FOLD_LENGTH:
            with self._fold_lock:
                self._fold()

    def _fold(self) -> None:
        """Fold the pending records into the current window; lock held."""
        pending = self.pending
        n = len(pending)
        if not n:
            return
        # Copy then delete the prefix: records racing the fold stay behind.
        batch = pending[:n]
        del pending[:n]
        part = _fold_masks(batch)
        current = self._current
        current.append(part)
        self._loose_rows += len(part[0])
        if self._loose_rows > max(MERGE_ROWS, len(current[0][0])):
            self._merge(current)

    def _merge(self, parts: list) -> tuple[np.ndarray, np.ndarray]:
        """Merge a window's parts in place into one; lock held."""
        if len(parts) > 1:
            parts[:] = [_or_by_page(np.concatenate([p for p, _ in parts]),
                                    np.concatenate([m for _, m in parts]))]
        if parts is self._current:
            self._loose_rows = 0
        return parts[0] if parts else _fold_masks([])

    def advance(self) -> int:
        """Close the current window and start the next; returns its index."""
        with self._fold_lock:
            self._fold()
            self._merge(self._current)
            self.window += 1
            self._current = self._windows[self.window] = []
            return self.window

    def entries(self, window: int | None = None) -> list[AccessLogEntry]:
        with self._fold_lock:
            self._fold()
            out = []
            for w in sorted(self._windows) if window is None else [window]:
                parts = self._windows.get(w)
                if parts is None:
                    continue
                pages, masks = self._merge(parts)
                out.extend(AccessLogEntry(w, p, m) for p, m in
                           zip(pages.tolist(), masks.tolist()))
            return out

    def windows(self) -> list[int]:
        return sorted(self._windows)


def _fold_masks(batch: list[int]):
    """(pages, uint64 line masks) of the pages a flat (offset, length, ...)
    list of records touches, OR-merged per page, pages in the order of
    their first touch.  Records of length 0 or less touch nothing."""
    rec = np.fromiter(batch, np.int64, len(batch)).reshape(-1, 2)
    if len(rec) and rec[:, 1].min() <= 0:
        rec = rec[rec[:, 1] > 0]
    row, page = page_rows(rec[:, 0], rec[:, 1])
    offset = rec[:, 0][row]
    end = offset + rec[:, 1][row]
    page_start = page * PAGE_SIZE
    first = (np.maximum(offset, page_start) - page_start) // LINE_SIZE
    last = (np.minimum(end, page_start + PAGE_SIZE) - page_start - 1) \
        // LINE_SIZE
    masks = (_ALL_LINES >> (63 - last).astype(np.uint64)) \
        & (_ALL_LINES << first.astype(np.uint64))
    return _or_by_page(page, masks)


def _or_by_page(pages: np.ndarray, masks: np.ndarray):
    """Masks OR-merged per page, pages in the order of their first row."""
    if not len(pages):
        return pages, masks
    order = np.argsort(pages)
    sorted_pages = pages[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], sorted_pages[1:] != sorted_pages[:-1])))
    merged = np.bitwise_or.reduceat(masks[order], starts)
    by_first_row = np.argsort(np.minimum.reduceat(order, starts))
    return sorted_pages[starts][by_first_row], merged[by_first_row]


def page_utilization(entries: list[AccessLogEntry],
                     page_size: int = PAGE_SIZE) -> UtilizationReport:
    """Aggregate and per-page utilization over one window's access log."""
    merged: dict[int, int] = {}
    for entry in entries:
        merged[entry.page] = merged.get(entry.page, 0) | entry.line_mask
    per_page = {}
    touched_bytes = 0
    for page, mask in merged.items():
        used = mask.bit_count() * LINE_SIZE
        per_page[page] = used / page_size
        touched_bytes += used
    if not merged:
        return UtilizationReport({}, 0.0, [])
    aggregate = touched_bytes / (len(merged) * page_size)
    values = sorted(per_page.values())
    n = len(values)
    cdf = [(v, (i + 1) / n) for i, v in enumerate(values)]
    return UtilizationReport(per_page, aggregate, cdf)


def simulate_reclaim(reclaimed_pages, entries: list[AccessLogEntry],
                     scan_interval_s: float) -> dict:
    """Replay an access log against a set of reclaimed pages.

    A refault is the first access to a reclaimed page in the subsequent log.
    The rate is normalized like the promotion-rate signal so it can be
    compared against the controller target: per window, refaulted pages over
    unique pages touched, scaled to a per-minute fraction, then averaged over
    the windows spanned by the log.
    """
    reclaimed = set(reclaimed_pages)
    by_window: dict[int, set[int]] = {}
    for entry in entries:
        by_window.setdefault(entry.window, set()).add(entry.page)
    refaulted: set[int] = set()
    window_rates = []
    for window in sorted(by_window):
        pages = by_window[window]
        hits = {p for p in pages if p in reclaimed and p not in refaulted}
        refaulted |= hits
        if pages:
            window_rates.append(len(hits) / len(pages)
                                * 60.0 / scan_interval_s)
        else:
            window_rates.append(0.0)
    rate = sum(window_rates) / len(window_rates) if window_rates else 0.0
    return {"refaults": len(refaulted), "refault_rate_per_min": rate}


def write_cdf_csv(report: UtilizationReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utilization", "cum_fraction"])
        for utilization, cum in report.cdf_points:
            writer.writerow([f"{utilization:.6f}", f"{cum:.6f}"])
