"""Utilization metrics with brute-force oracles."""
import random
import sys
import threading

import pytest

from tierheap import metrics
from tierheap.metrics import (FOLD_BATCH, LINE_SIZE, AccessLog,
                              AccessLogEntry, page_utilization,
                              simulate_reclaim, write_cdf_csv)

PAGE = 4096


def brute_force_utilization(accesses, page_size=PAGE):
    """Oracle: mark every touched byte, count 64 B lines per page."""
    touched: dict[int, set] = {}
    for offset, length in accesses:
        for b in range(offset, offset + length):
            touched.setdefault(b // page_size, set()).add(b)
    per_page = {}
    total_lines = 0
    for page, bytes_set in touched.items():
        lines = {(b % page_size) // LINE_SIZE for b in bytes_set}
        per_page[page] = len(lines) * LINE_SIZE / page_size
        total_lines += len(lines)
    if not touched:
        return {}, 0.0
    aggregate = total_lines * LINE_SIZE / (len(touched) * page_size)
    return per_page, aggregate


def log_of(accesses):
    log = AccessLog()
    for offset, length in accesses:
        log.record(offset, length)
    return log.entries(1)


class TestPageUtilization:
    def test_one_line_per_page_is_one_64th(self):
        # Uniform workload over K pages touching exactly one line each.
        entries = log_of([(p * PAGE, 1) for p in range(32)])
        report = page_utilization(entries)
        assert report.aggregate == 1 / 64
        assert all(v == 1 / 64 for v in report.per_page.values())

    def test_full_page(self):
        report = page_utilization(log_of([(0, PAGE)]))
        assert report.aggregate == 1.0

    def test_empty_log(self):
        report = page_utilization([])
        assert report.aggregate == 0.0 and report.per_page == {}

    def test_access_spanning_pages(self):
        # 100 bytes straddling a page boundary touch lines on both sides.
        entries = log_of([(PAGE - 50, 100)])
        per_page, aggregate = brute_force_utilization([(PAGE - 50, 100)])
        report = page_utilization(entries)
        assert report.per_page == per_page
        assert report.aggregate == aggregate

    def test_oracle_equivalence_fuzz(self):
        rng = random.Random(8)
        for _ in range(300):
            accesses = [(rng.randrange(0, 64 * PAGE),
                         rng.randrange(1, 3 * PAGE))
                        for _ in range(rng.randrange(1, 40))]
            report = page_utilization(log_of(accesses))
            per_page, aggregate = brute_force_utilization(accesses)
            assert report.per_page == per_page
            assert abs(report.aggregate - aggregate) < 1e-12

    def test_bounds_and_weighted_mean(self):
        rng = random.Random(9)
        accesses = [(rng.randrange(0, 8 * PAGE), rng.randrange(1, 500))
                    for _ in range(50)]
        report = page_utilization(log_of(accesses))
        assert all(0 < v <= 1 for v in report.per_page.values())
        mean = sum(report.per_page.values()) / len(report.per_page)
        assert abs(report.aggregate - mean) < 1e-12  # equal page sizes

    def test_cdf_monotone(self):
        rng = random.Random(10)
        accesses = [(rng.randrange(0, 32 * PAGE), rng.randrange(1, 2000))
                    for _ in range(100)]
        report = page_utilization(log_of(accesses))
        utils = [u for u, _ in report.cdf_points]
        fracs = [f for _, f in report.cdf_points]
        assert utils == sorted(utils)
        assert fracs[-1] == 1.0


class TestAccessLog:
    def test_windows_advance(self):
        log = AccessLog()
        log.record(0, 64)
        log.advance()
        log.record(PAGE, 64)
        assert log.windows() == [1, 2]
        assert {e.page for e in log.entries(1)} == {0}
        assert {e.page for e in log.entries(2)} == {1}

    def test_duplicate_touches_merge(self):
        log = AccessLog()
        log.record(0, 64)
        log.record(0, 64)
        (entry,) = log.entries(1)
        assert entry.line_mask == 1

    def test_zero_length_ignored(self):
        log = AccessLog()
        log.record(0, 0)
        assert log.entries(1) == []


def scalar_fold(records, page_size):
    """Reference: the per-record page/line-mask loop, one record at a time."""
    masks: dict[int, int] = {}
    for offset, length in records:
        if length <= 0:
            continue
        end = offset + length
        for page in range(offset // page_size, (end - 1) // page_size + 1):
            page_start = page * page_size
            a = max(offset, page_start) - page_start
            b = min(end, page_start + page_size) - page_start
            first = a // LINE_SIZE
            last = (b - 1) // LINE_SIZE
            mask = ((1 << (last - first + 1)) - 1) << first
            masks[page] = masks.get(page, 0) | mask
    return masks


class TestFoldedAccessLog:
    @pytest.mark.parametrize("page_size", [PAGE])
    def test_matches_scalar_fold(self, page_size):
        rng = random.Random(page_size)
        log = AccessLog()
        expected = {}
        for window in (1, 2, 3):
            records = []
            # Window 2 stays under one fold batch; 1 and 3 cross it.
            count = FOLD_BATCH // 3 if window == 2 \
                else rng.randrange(FOLD_BATCH + 1, 3 * FOLD_BATCH)
            for i in range(count):
                kind = rng.random()
                if kind < 0.6:  # small records on a few hot pages
                    offset = rng.randrange(0, 16 * page_size)
                    length = rng.randrange(1, 200)
                elif kind < 0.9:  # multi-page records
                    offset = rng.randrange(0, 256 * page_size)
                    length = rng.randrange(page_size, 4 * page_size)
                else:  # empty records and exact page boundaries
                    offset = rng.randrange(0, 64) * page_size
                    length = rng.choice([0, 1, page_size, page_size + 1])
                log.record(offset, length)
                records.append((offset, length))
                if i == count // 2:
                    log.entries(window)  # a read folds a partial buffer
            expected[window] = scalar_fold(records, page_size)
            log.advance()
        for window, masks in expected.items():
            got = [(e.page, e.line_mask) for e in log.entries(window)]
            assert got == list(masks.items())  # same masks, same order
            assert page_utilization(log.entries(window), page_size) \
                == page_utilization([AccessLogEntry(window, p, m)
                                     for p, m in masks.items()],
                                    page_size)

    def test_long_window_merges_early_and_keeps_first_touch_order(
            self, monkeypatch):
        """Once a window's unmerged rows pass MERGE_ROWS and the merged
        rows, they are merged before the window is read; its rows stay
        bounded by its touched pages, and its masks and their order still
        match the scalar fold."""
        monkeypatch.setattr(metrics, "MERGE_ROWS", 2000)
        rng = random.Random(11)
        log = AccessLog()
        records = []
        peak_rows = 0
        for _ in range(40):  # ~2,200 pages per fold, 3,000 in all
            for _ in range(FOLD_BATCH):
                record = (rng.randrange(0, 3000 * PAGE),
                          rng.randrange(1, 300))
                log.record(*record)
                records.append(record)
            peak_rows = max(peak_rows, sum(len(pages) for pages, _ in
                                           log._windows[1]))
        masks = scalar_fold(records, PAGE)
        # The merged rows, plus under one merge's worth of unmerged ones.
        assert peak_rows <= 2 * len(masks) + 2 * FOLD_BATCH
        got = [(e.page, e.line_mask) for e in log.entries(1)]
        assert got == list(masks.items())

    def test_pairs_in_one_call_match_one_call_per_pair(self, monkeypatch):
        """Logging two (offset, length) pairs in one call leaves the same
        entries in every window as logging them in two calls: across fold
        batches, a read mid-window, and a window merged early."""
        monkeypatch.setattr(metrics, "MERGE_ROWS", 2000)
        rng = random.Random(5)
        paired, single = AccessLog(), AccessLog()
        # Window 2 stays under one fold batch; window 3 merges early.
        for count in (FOLD_BATCH + 1, FOLD_BATCH // 3, 20 * FOLD_BATCH):
            for i in range(count):
                key = (rng.randrange(0, 3000 * PAGE), rng.randrange(0, 40))
                value = (rng.randrange(0, 3000 * PAGE),
                         rng.randrange(1, 2 * PAGE))
                paired.record(*key, *value)
                single.record(*key)
                single.record(*value)
                if i == count // 2:
                    assert paired.entries() == single.entries()
            paired.advance()
            single.advance()
        assert paired.windows() == single.windows() == [1, 2, 3, 4]
        for window in paired.windows():
            assert paired.entries(window) == single.entries(window)

    def test_odd_length_record_raises(self):
        log = AccessLog()
        log.record(0, 64)
        with pytest.raises(ValueError):
            log.record(PAGE, 64, 2 * PAGE)
        log.record()  # no pairs: nothing logged
        assert [(e.page, e.line_mask) for e in log.entries(1)] == [(0, 1)]

    def test_no_record_lost_to_concurrent_advance(self):
        log = AccessLog()
        per_thread = 3 * FOLD_BATCH
        done = threading.Event()

        def recorder(parity):
            for i in range(per_thread):
                log.record((2 * i + parity) * PAGE, 64)

        def advancer():
            while not done.is_set():
                log.advance()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=recorder, args=(p,))
                       for p in (0, 1)]
            closer = threading.Thread(target=advancer)
            closer.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            done.set()
            closer.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads + [closer])
        assert len(log.windows()) > 2  # advance really raced the records
        pages = {e.page for e in log.entries()}
        assert pages == set(range(2 * per_thread))


class TestSimulateReclaim:
    def test_no_reclaimed_pages_no_refaults(self):
        entries = [AccessLogEntry(1, 5, 1)]
        out = simulate_reclaim([], entries, 120.0)
        assert out == {"refaults": 0, "refault_rate_per_min": 0.0}

    def test_first_touch_counts_once(self):
        entries = [AccessLogEntry(1, 5, 1), AccessLogEntry(2, 5, 1)]
        out = simulate_reclaim([5], entries, 120.0)
        assert out["refaults"] == 1
        # window 1: 1 refault / 1 page * 0.5; window 2: 0 — averaged.
        assert abs(out["refault_rate_per_min"] - 0.25) < 1e-12

    def test_untouched_reclaimed_pages_are_free(self):
        entries = [AccessLogEntry(1, 9, 1)]
        out = simulate_reclaim([1, 2, 3], entries, 60.0)
        assert out["refaults"] == 0


def test_cdf_csv_format(tmp_path):
    report = page_utilization(log_of([(0, 64), (PAGE, PAGE)]))
    path = tmp_path / "cdf.csv"
    write_cdf_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "utilization,cum_fraction"
    assert lines[1] == "0.015625,0.500000"
    assert lines[2] == "1.000000,1.000000"
