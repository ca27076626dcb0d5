"""Guide-managed KV stores: hash map and skip list."""
import sys
import threading
import time
import zlib
from collections import Counter

import pytest

from tierheap.guideword import ACCESSED_BIT, HeapId, unpack, word_heap
from tierheap.runtime import TierRuntime
from tierheap.store import (_MAX_LEVEL, GuideSkipList, PlainStore,
                            StripedGuideMap, make_store)


def make_runtime():
    return TierRuntime(region_length=1 << 24, scan_interval_s=120.0)


@pytest.fixture(params=["hashmap", "skiplist"])
def store(request):
    return make_store(make_runtime(), request.param)


class TestBasicOps:
    def test_set_then_get(self, store):
        store.set(b"alpha", b"value-1")
        assert store.get(b"alpha") == b"value-1"

    def test_missing_key(self, store):
        assert store.get(b"nope") is None

    def test_overwrite_frees_old_slot_and_lands_in_new(self, store):
        runtime = store.runtime
        store.set(b"k", b"a" * 100)
        before = runtime.regions.region(HeapId.NEW).live_slot_count
        store.set(b"k", b"b" * 100)
        assert store.get(b"k") == b"b" * 100
        # old value slot freed, replacement also counted: net zero
        assert runtime.regions.region(HeapId.NEW).live_slot_count == before
        runtime.audit()

    def test_delete_existing(self, store):
        store.set(b"k", b"v")
        assert store.delete(b"k") is True
        assert store.get(b"k") is None
        assert store.delete(b"k") is False

    def test_delete_missing(self, store):
        assert store.delete(b"ghost") is False

    def test_len_tracks_live_keys(self, store):
        for i in range(10):
            store.set(b"k%d" % i, b"v")
        store.delete(b"k3")
        assert len(store) == 9

    def test_values_are_deep_copied(self, store):
        value = bytearray(b"mutable")
        store.set(b"k", bytes(value))
        value[0] = 0x58
        assert store.get(b"k") == b"mutable"


class TestGuideDiscipline:
    def test_get_marks_value_guide_accessed(self, store):
        runtime = store.runtime
        store.set(b"k", b"v")
        runtime.collector.run_scan_window()  # clears accessed bits
        live = list(runtime.registry.indices())
        assert all(not runtime.registry.words[i] & ACCESSED_BIT
                   for i in live)
        store.get(b"k")
        assert any(runtime.registry.words[i] & ACCESSED_BIT
                   for i in live)

    def test_every_op_is_one_outermost_scope(self, store, tai_calls):
        calls = tai_calls(store.runtime.tai)
        store.set(b"a", b"1")
        store.get(b"a")
        store.delete(b"a")
        store.get(b"missing")
        assert calls == {"enter": 4, "exit": 4}

    def test_delete_retires_guides_and_frees_slots(self, store):
        runtime = store.runtime
        store.set(b"k", b"v" * 64)
        assert runtime.registry.live_count == 2  # key + value guides
        store.delete(b"k")
        assert runtime.registry.live_count == 0
        assert runtime.regions.live_slot_count() == 0
        runtime.registry.reclaim_retired()
        runtime.audit()

    def test_store_survives_scan_windows(self, store):
        runtime = store.runtime
        for i in range(40):
            store.set(b"key-%03d" % i, b"payload-%03d" % i)
        for w in range(5):
            for i in range(0, 40, 4):
                assert store.get(b"key-%03d" % i) == b"payload-%03d" % i
            runtime.collector.run_scan_window()
            runtime.audit()
        # repeatedly-read keys migrated to HOT; value intact afterwards
        assert runtime.regions.region(HeapId.HOT).live_slot_count > 0
        for i in range(40):
            assert store.get(b"key-%03d" % i) == b"payload-%03d" % i

    def test_unique_guides_per_op_band(self, monkeypatch):
        # A point get touches exactly its key and value guides.
        runtime = make_runtime()
        store = StripedGuideMap(runtime)
        for i in range(50):
            store.set(b"k%02d" % i, b"v")
        scope = runtime.scope
        record = scope.record_guide_use
        used: list[int] = []

        def counted(index):
            used.append(index)
            record(index)

        monkeypatch.setattr(scope, "record_guide_use", counted)
        unique_per_op = []
        for i in range(50):
            used.clear()
            store.get(b"k%02d" % i)
            unique_per_op.append(len(set(used)))
        assert unique_per_op == [2] * 50


class TestConcurrency:
    def test_concurrent_set_get_returns_intact_values(self, store):
        key = b"shared"
        store.set(key, checksummed(0))
        stop = threading.Event()
        failures = []

        def writer():
            i = 1
            while not stop.is_set():
                store.set(key, checksummed(i))
                i += 1

        def reader():
            while not stop.is_set():
                value = store.get(key)
                if value is not None and not verify(value):
                    failures.append(value)

        threads = [threading.Thread(target=writer)] + \
            [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        timer = threading.Timer(1.0, stop.set)
        timer.start()
        for t in threads:
            t.join()
        timer.cancel()
        assert failures == []
        store.runtime.audit()

    def test_concurrent_distinct_keys(self, store):
        errors = []

        def body(worker):
            try:
                for i in range(300):
                    key = b"w%d-%d" % (worker, i)
                    store.set(key, checksummed(i))
                    got = store.get(key)
                    assert got is not None and verify(got)
                    if i % 3 == 0:
                        assert store.delete(key)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=body, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        store.runtime.audit()


class TestSkipListSpecifics:
    def test_keys_are_ordered(self):
        store = GuideSkipList(make_runtime())
        for k in (b"delta", b"alpha", b"echo", b"bravo", b"charlie"):
            store.set(k, b"v")
        assert store.keys() == sorted(store.keys())

    def test_deleted_key_reinsert(self):
        store = GuideSkipList(make_runtime())
        store.set(b"k", b"one")
        store.delete(b"k")
        store.set(b"k", b"two")  # resurrects the logically deleted node
        assert store.get(b"k") == b"two"
        assert len(store) == 1

    def test_get_rereads_a_value_slot_reused_mid_read(self, monkeypatch):
        """While get reads the value slot, a set of the same key frees it
        and the next allocation reuses it for other bytes: get still
        returns the intact current value."""
        runtime = make_runtime()
        store = GuideSkipList(runtime)
        store.set(b"k", b"old-value")
        regions = runtime.regions
        real_read = regions.read
        raced = []

        def racing_read(locator):
            if not raced:
                raced.append(locator)
                store.set(b"k", b"new-value")  # frees the slot being read
                reused = regions.allocate(HeapId.NEW, len(b"other-key"))
                assert reused == locator
                regions.write(reused, b"other-key")
            return real_read(locator)

        monkeypatch.setattr(regions, "read", racing_read)
        assert store.get(b"k") == b"new-value"
        assert raced

    def test_concurrent_writers_keep_every_level_linked(self):
        """Four threads insert, delete and re-insert interleaved keys, each
        searching past the others' half-linked nodes.  No search ever sees a
        node at a level without the one below, every get and delete agrees
        with its thread's model, and afterwards every level is a sorted
        sublist of the one below and the live keys equal the models."""
        store = GuideSkipList(make_runtime())
        threads_n, rounds, per_round = 4, 4, 100
        models: list[dict[bytes, bytes]] = [{} for _ in range(threads_n)]
        errors = []

        def body(worker):
            model = models[worker]
            try:
                for r in range(rounds):
                    # Each round's fresh keys fall between earlier ones, so
                    # every round links new nodes all along the list.
                    fresh = [b"key-%05d" % ((i * rounds + r) * threads_n
                                            + worker)
                             for i in range(per_round)]
                    for i, key in enumerate(fresh):
                        model[key] = checksummed(r * per_round + i)
                        store.set(key, model[key])
                    for key, value in model.items():
                        assert store.get(key) == value
                    for key in fresh[::2]:
                        assert store.delete(key)
                        del model[key]
                        assert store.get(key) is None
                    for key in fresh[::4]:  # resurrect half of those
                        model[key] = b"back"
                        store.set(key, b"back")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        # The interpreter lock can change hands as rarely as every few ms
        # whatever the switch interval (seen on a 2-core box), so each line
        # of `_install` also sleeps to hand the others a half-linked node,
        # after checking what a lock-free search sees of that node: its
        # levels 0..m, never a level without the one below.
        gaps = []

        def check_and_yield(frame, event, arg):
            node = frame.f_locals.get("node")
            if event == "line" and node is not None:
                preds, _ = store._find(node.key)
                seen = [preds[level].nexts[level] is node
                        for level in range(len(node.nexts))]
                if seen != sorted(seen, reverse=True):
                    gaps.append((node.key, seen))
                time.sleep(1e-6)
            return check_and_yield

        def trace_install(frame, event, arg):
            if frame.f_code is GuideSkipList._install.__code__:
                return check_and_yield
            return None

        threads = [threading.Thread(target=body, args=(w,))
                   for w in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threading.settrace(trace_install)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            threading.settrace(None)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert gaps == []
        assert errors == []

        levels = []
        for level in range(_MAX_LEVEL):
            chain, node = [], store._head.nexts[level]
            while node is not None:
                chain.append(node)
                node = node.nexts[level]
            levels.append(chain)
        for level, chain in enumerate(levels):
            keys = [node.key for node in chain]
            assert keys == sorted(set(keys)), f"level {level} out of order"
            if level:
                assert set(chain) <= set(levels[level - 1])
        appearances = Counter(node for chain in levels for node in chain)
        assert all(appearances[node] == len(node.nexts)
                   for node in levels[0])
        expected = sorted(set().union(*models))
        assert all(store.get(key) == model[key]
                   for model in models for key in model)
        assert store.keys() == expected
        assert len(store) == len(expected)
        store.runtime.audit()

    def test_same_key_insert_race_keeps_one_entry(self, monkeypatch):
        """A set of the same key lands between an insert's first search
        and its install: the later install finds that entry, retires its
        own, and its value wins."""
        runtime = make_runtime()
        store = GuideSkipList(runtime)
        real_make_entry = store._make_entry
        nested = []

        def racing_make_entry(key, value):
            if not nested:
                nested.append(key)
                store.set(key, b"inner")
            return real_make_entry(key, value)

        monkeypatch.setattr(store, "_make_entry", racing_make_entry)
        store.set(b"k", b"outer")
        assert nested == [b"k"]
        assert store.get(b"k") == b"outer"
        assert store.keys() == [b"k"]
        assert runtime.registry.live_count == 2  # one key + one value guide
        assert runtime.regions.live_slot_count() == 2
        runtime.registry.reclaim_retired()
        runtime.audit()

    def test_set_racing_a_delete_of_its_entry_inserts_anew(
            self, monkeypatch):
        """A delete retires the entry that a set of the same key found,
        between the set's search and its value swing: the set must not
        revive the tombstone, and inserts the key again instead."""
        runtime = make_runtime()
        store = GuideSkipList(runtime)
        store.set(b"k", b"old")
        real_touch_key = store._touch_key
        deleted = []

        def racing_touch_key(entry, key_len):
            if not deleted:
                deleted.append(store.delete(b"k"))
            real_touch_key(entry, key_len)

        monkeypatch.setattr(store, "_touch_key", racing_touch_key)
        store.set(b"k", b"new")
        assert deleted == [True]
        assert store.get(b"k") == b"new"
        assert len(store) == 1
        assert runtime.regions.live_slot_count() == 2
        runtime.audit()

    def test_open_scope_keeps_a_deleted_entry_from_reuse(self, monkeypatch):
        """A get holds an entry that is deleted while its scope is open,
        and a scan window that cannot converge past that scope runs: the
        window must not recycle the entry's guides, or a later insert would
        hand them, and the get, another key's bytes."""
        runtime = make_runtime()
        store = GuideSkipList(runtime)
        store.set(b"k1", b"v1")
        real_touch_key = store._touch_key
        reports = []

        def racing_touch_key(entry, key_len):
            if not reports:
                assert store.delete(b"k1")
                reports.append(runtime.collector.run_scan_window())
                store.set(b"k2", b"v2")
            real_touch_key(entry, key_len)

        monkeypatch.setattr(store, "_touch_key", racing_touch_key)
        assert store.get(b"k1") is None
        assert [r.converged for r in reports] == [False]
        assert store.get(b"k2") == b"v2"
        runtime.collector.run_scan_window()  # converges: now they recycle
        store.set(b"k3", b"v3")
        assert runtime.registry.live_count == 4
        assert len(runtime.registry.words) == 4  # k3 took k1's guides
        runtime.audit()

    def test_deterministic_levels(self):
        from tierheap.store import _node_level
        assert all(1 <= _node_level(b"key-%d" % i) <= 16
                   for i in range(1000))
        assert _node_level(b"stable") == _node_level(b"stable")


class TestBaseline:
    @pytest.mark.parametrize("structure", ["hashmap", "skiplist"])
    def test_baseline_bypasses_guides(self, structure, tai_calls):
        runtime = make_runtime()
        calls = tai_calls(runtime.tai)
        store = make_store(runtime, structure, baseline=True)
        assert isinstance(store, PlainStore)
        store.set(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert store.delete(b"k") is True
        assert runtime.registry.live_count == 0
        assert calls == {"enter": 0, "exit": 0}


def checksummed(i: int) -> bytes:
    body = b"payload-%09d" % i
    return body + zlib.crc32(body).to_bytes(4, "big")


def verify(value: bytes) -> bool:
    return zlib.crc32(value[:-4]).to_bytes(4, "big") == value[-4:]


def test_unknown_structure_rejected():
    with pytest.raises(ValueError):
        make_store(make_runtime(), "btree")
