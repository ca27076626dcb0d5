"""Deterministic interleavings of the migration protocol's race table.

Each test replays one exact schedule by invoking the protocol's individual
CAS steps in a fixed order from a single thread, so outcomes are checked
with zero tolerance rather than stochastically.  The chunked collector path
gets the same schedules through a hook between its lock and commit passes,
plus one time-bounded stress run against concurrent mutators.
"""
import random
import sys
import threading
import time

import pytest

from tierheap.collector import MIGRATE_CHUNK
from tierheap.guideword import (ACCESSED_BIT, ATC_FIELD, LOCATOR_MASK,
                                LOCK_BIT, HeapId, pack, tombstone_from,
                                unpack, word_heap)
from tierheap.regions import DoubleFreeError, RegionError
from tierheap.runtime import TierRuntime
from tierheap.store import make_store


PAYLOAD = b"migrating-object-payload" * 4


def make_env():
    runtime = TierRuntime(region_length=1 << 22)
    loc = runtime.regions.allocate(HeapId.NEW, len(PAYLOAD))
    runtime.regions.write(loc, PAYLOAD)
    index = runtime.registry.create(pack(loc, heap=HeapId.NEW))
    return runtime, index, loc


def begin_migration(runtime, index):
    """Collector steps t0-t1: lock CAS, then copy into the target heap."""
    registry = runtime.registry
    word = registry.words[index]
    locked = registry.try_lock_for_migration(index, word)
    assert locked is not None
    payload = runtime.regions.read(word & LOCATOR_MASK)
    new_loc = runtime.regions.allocate(HeapId.HOT, len(payload))
    runtime.regions.write(new_loc, payload)
    return word, locked, new_loc


def finish_migration(runtime, index, word, locked, new_loc):
    """Collector step t2: commit CAS; winner-frees either side."""
    new_word = pack(new_loc, heap=HeapId.HOT)
    if runtime.registry.commit_migration(index, locked, new_word):
        runtime.regions.free(word & LOCATOR_MASK)
        return "committed"
    runtime.regions.free(new_loc)
    return "aborted"


class TestRaceTable:
    def test_no_intervention_both_cas_succeed(self):
        runtime, index, old_loc = make_env()
        word, locked, new_loc = begin_migration(runtime, index)
        assert finish_migration(runtime, index, word, locked, new_loc) \
            == "committed"
        fields = unpack(runtime.registry.words[index])
        assert fields.heap is HeapId.HOT and fields.locator == new_loc
        assert runtime.regions.read(new_loc) == PAYLOAD
        with pytest.raises(RegionError):
            runtime.regions.read(old_loc)  # old slot freed exactly once
        runtime.audit()

    def test_lock_set_succeeds_from_quiescent_word(self):
        runtime, index, _ = make_env()
        registry = runtime.registry
        word = registry.words[index]
        locked = registry.try_lock_for_migration(index, word)
        assert locked == word | LOCK_BIT
        assert registry.words[index] & LOCK_BIT

    def test_dereference_between_lock_and_commit_aborts(self):
        runtime, index, old_loc = make_env()
        word, locked, new_loc = begin_migration(runtime, index)
        # Mutator dereferences at t1': lock cleared, accessed set, and the
        # returned locator is still the old object.
        assert runtime.registry.dereference(index) == old_loc
        assert not runtime.registry.words[index] & LOCK_BIT
        assert finish_migration(runtime, index, word, locked, new_loc) \
            == "aborted"
        # Old object remains authoritative; the copy was freed, not the old.
        fields = unpack(runtime.registry.words[index])
        assert fields.locator == old_loc and fields.accessed
        assert runtime.regions.read(old_loc) == PAYLOAD
        with pytest.raises(RegionError):
            runtime.regions.read(new_loc)
        runtime.audit()

    def test_scope_registration_between_lock_and_commit_aborts(self):
        runtime, index, old_loc = make_env()
        word, locked, new_loc = begin_migration(runtime, index)
        # A scope use clears the lock and bumps the ATC.
        assert runtime.registry.atc_increment(index)
        assert finish_migration(runtime, index, word, locked, new_loc) \
            == "aborted"
        fields = unpack(runtime.registry.words[index])
        assert fields.locator == old_loc and fields.atc == 1
        assert runtime.regions.read(old_loc) == PAYLOAD
        runtime.audit()

    def test_word_changed_before_lock_is_skipped(self):
        runtime, index, old_loc = make_env()
        registry = runtime.registry
        scanned_word = registry.words[index]
        registry.dereference(index)  # access lands between scan and lock
        assert registry.try_lock_for_migration(index, scanned_word) is None
        assert registry.words[index] & ACCESSED_BIT
        assert runtime.regions.read(old_loc) == PAYLOAD


class TestDeleteVersusMigrate:
    def delete_steps(self, runtime, index):
        """Mutator delete: tombstone CAS wins the word, then frees."""
        old = runtime.registry.tombstone(index)
        runtime.regions.free(old & LOCATOR_MASK)
        runtime.registry.retire(index)

    def test_delete_wins_between_lock_and_commit(self):
        runtime, index, old_loc = make_env()
        word, locked, new_loc = begin_migration(runtime, index)
        self.delete_steps(runtime, index)  # frees the old slot
        assert finish_migration(runtime, index, word, locked, new_loc) \
            == "aborted"  # collector frees only its copy
        assert unpack(runtime.registry.words[index]).heap is HeapId.RESERVED
        for loc in (old_loc, new_loc):
            with pytest.raises(RegionError):
                runtime.regions.read(loc)
        assert runtime.regions.live_slot_count() == 0
        runtime.audit()

    def test_migration_wins_then_delete_frees_new_copy(self):
        runtime, index, old_loc = make_env()
        word, locked, new_loc = begin_migration(runtime, index)
        assert finish_migration(runtime, index, word, locked, new_loc) \
            == "committed"  # frees the old slot
        self.delete_steps(runtime, index)  # tombstones + frees the copy
        assert runtime.regions.live_slot_count() == 0
        runtime.audit()

    def test_double_free_is_detected_by_the_regions(self):
        # The detector the schedules above rely on actually fires.
        runtime, _, old_loc = make_env()
        runtime.regions.free(old_loc)
        with pytest.raises(DoubleFreeError):
            runtime.regions.free(old_loc)

    def test_tombstone_preserves_atc_for_open_scopes(self):
        runtime, index, old_loc = make_env()
        registry = runtime.registry
        assert registry.atc_increment(index)  # an open scope recorded it
        old = registry.tombstone(index)
        runtime.regions.free(old & LOCATOR_MASK)
        registry.retire(index)
        assert unpack(registry.words[index]).atc == 1
        registry.reclaim_retired()
        assert registry.live_count == 0
        registry.atc_decrement(index)  # the scope exit still balances
        registry.reclaim_retired()
        # index becomes reusable only after the ATC drained
        assert registry.create(pack(1, heap=HeapId.NEW)) == index

    def test_tombstone_word_shape(self):
        word = pack(0x1234, atc=2, ciw=9, heap=HeapId.HOT, accessed=True,
                    migration_lock=True)
        stone = tombstone_from(word)
        fields = unpack(stone)
        assert fields.heap is HeapId.RESERVED and fields.atc == 2
        assert fields.locator == 0 and not fields.migration_lock


def dereference(runtime, index):
    runtime.registry.dereference(index)


def atc_increment(runtime, index):
    assert runtime.registry.atc_increment(index)


def tombstone_and_free(runtime, index):
    old = runtime.registry.tombstone(index)
    runtime.regions.free(old & LOCATOR_MASK)
    runtime.registry.retire(index)


def swing_value(runtime, index):
    """A set: publish a fresh NEW slot by CAS, then free the replaced one."""
    regions, registry = runtime.regions, runtime.registry
    new_loc = regions.allocate(HeapId.NEW, len(PAYLOAD))
    regions.write(new_loc, PAYLOAD)
    while True:
        word = registry.words[index]
        if registry.compare_and_swap(index, word, new_loc | ACCESSED_BIT
                                     | (word & ATC_FIELD)):
            regions.free(word & LOCATOR_MASK)
            return


class TestChunkedMigration:
    @pytest.mark.parametrize("step", [dereference, atc_increment,
                                      tombstone_and_free, swing_value])
    def test_mutator_step_between_lock_and_commit_aborts_one_guide(
            self, step):
        runtime = TierRuntime(region_length=1 << 22)
        guides = []
        for _ in range(MIGRATE_CHUNK):
            loc = runtime.regions.allocate(HeapId.NEW, len(PAYLOAD))
            runtime.regions.write(loc, PAYLOAD)
            guides.append(runtime.registry.create(pack(loc, heap=HeapId.NEW)))
        victim = guides[MIGRATE_CHUNK // 2]
        hot = runtime.regions.region(HeapId.HOT)
        allocate_batch = hot.allocate_batch
        copies = []

        def hooked(payloads):
            assert all(runtime.registry.words[i] & LOCK_BIT for i in guides)
            copies.extend(allocate_batch(payloads))
            step(runtime, victim)  # lands after the lock pass
            return copies

        hot.allocate_batch = hooked
        collector = runtime.collector
        collector.begin_epoch()
        assert collector.await_convergence()
        counts = collector.migrate_batch(guides, HeapId.HOT)
        collector.end_epoch()
        assert (counts.moved, counts.aborted, counts.skipped) \
            == (MIGRATE_CHUNK - 1, 1, 0)
        assert counts.bytes_moved == (MIGRATE_CHUNK - 1) * len(PAYLOAD)
        with pytest.raises(RegionError):
            hot.read(copies[MIGRATE_CHUNK // 2])  # the copy was freed
        assert word_heap(runtime.registry.words[victim]) is not HeapId.HOT
        for index, copy in zip(guides, copies):
            if index != victim:
                assert runtime.registry.words[index] \
                    == pack(copy, heap=HeapId.HOT)
                assert hot.read(copy) == PAYLOAD
        assert hot.live_slot_count == MIGRATE_CHUNK - 1
        runtime.audit()

    def test_stress_against_mutators_on_disjoint_keys(self):
        """Three mutators own disjoint thirds of a 2k-key map while a
        collector thread runs windows; every get matches the thread's own
        model and every candidate a window tries gets exactly one
        outcome."""
        runtime = TierRuntime(region_length=1 << 26, ct_init=1)
        store = make_store(runtime, "hashmap")
        keys = [b"key-%05d" % i for i in range(2000)]
        for key in keys:
            store.set(key, key * 3)
        collector = runtime.collector
        tried = []
        scan = collector.scan

        def counted_scan(cold_threshold):
            result = scan(cold_threshold)
            tried.append(len(result.promotions) + len(result.demotions))
            return result

        collector.scan = counted_scan
        deadline = time.monotonic() + 2.0
        errors = []

        def mutator(t):
            rng = random.Random(t)
            own = keys[t::3]
            model = {key: key * 3 for key in own}
            try:
                n = 0
                while time.monotonic() < deadline:
                    key = rng.choice(own)
                    roll = rng.random()
                    if roll < 0.6:
                        got = store.get(key)
                        if got != model.get(key):
                            errors.append((key, got, model.get(key)))
                    elif roll < 0.85:
                        n += 1
                        model[key] = b"%d-%d" % (t, n) * rng.randrange(1, 40)
                        store.set(key, model[key])
                    else:
                        assert store.delete(key) == (model.pop(key, None)
                                                     is not None)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def collect():
            try:
                while time.monotonic() < deadline:
                    collector.run_scan_window()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=mutator, args=(t,))
                       for t in range(3)]
            threads.append(threading.Thread(target=collect))
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        reports = collector.reports
        assert len(reports) == len(tried) >= 2
        for report, candidates in zip(reports, tried):
            outcomes = report.promoted_to_hot + report.new_to_hot \
                + report.demoted_to_cold + report.aborted_migrations \
                + report.skipped_migrations
            assert outcomes == (candidates if report.converged else 0)
        runtime.audit()


class TestRacesThroughTheStores:
    """The race table's rows, reached through a store's own get."""

    @pytest.mark.parametrize("role", ["key_guide", "value_guide"])
    @pytest.mark.parametrize("structure", ["hashmap", "skiplist"])
    def test_first_touch_get_between_lock_and_commit_aborts(
            self, structure, role):
        """The deref-aborts-commit row: a get that first touches the word
        after a scan window, between a migration's lock and its commit,
        stores the word back unlocked in its own frame, so the commit
        fails and the old slot stays authoritative."""
        runtime = TierRuntime(region_length=1 << 22)
        store = make_store(runtime, structure)
        store.set(b"key", PAYLOAD)
        runtime.collector.run_scan_window()  # clears the accessed bits
        index = getattr(store._entry(b"key"), role)
        word, locked, new_loc = begin_migration(runtime, index)
        assert store.get(b"key") == PAYLOAD
        assert finish_migration(runtime, index, word, locked, new_loc) \
            == "aborted"
        fields = unpack(runtime.registry.words[index])
        assert fields.locator == word & LOCATOR_MASK
        assert fields.accessed and not fields.migration_lock
        with pytest.raises(RegionError):
            runtime.regions.read(new_loc)  # the copy was freed, not the old
        assert store.get(b"key") == PAYLOAD
        runtime.audit()

    @pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
    def test_hash_map_get_racing_a_set_on_another_thread(self, hook_slots,
                                                         after):
        """A set of the same key runs to completion on a second thread
        while a hash-map get reads the value slot (before or after the
        slot lookup): the get holds no lock the set waits for, and it
        returns the new value, never None."""
        runtime = TierRuntime(region_length=1 << 22)
        store = make_store(runtime, "hashmap")
        store.set(b"key", b"old-value")
        setter = threading.Thread(target=store.set,
                                  args=(b"key", b"new-value"))

        def race():
            setter.start()
            setter.join(10.0)

        hook_slots(store, race, after=after)
        got = store.get(b"key")
        assert not setter.is_alive()
        assert got == b"new-value"
        runtime.audit()
