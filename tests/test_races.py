"""Deterministic interleavings of the migration protocol's race table.

Each test replays one exact schedule through the collector's chunked
migration from a single thread: the target region's `allocate_batch` is
wrapped, so a mutator step runs between the lock pass and the commit pass,
and outcomes are checked with zero tolerance rather than stochastically.
Single-guide runs replay the race table's rows; whole chunks get the same
steps, a second thread between the passes, and one time-bounded stress run
against concurrent mutators.
"""
import random
import sys
import threading
import time

import pytest

from tierheap import collector as collector_module
from tierheap.collector import MIGRATE_CHUNK
from tierheap.guideword import (ACCESSED_BIT, ATC_FIELD, LOCATOR_MASK,
                                LOCK_BIT, HeapId, pack, unpack, word_heap)
from tierheap.regions import DoubleFreeError, HeapRegion, RegionError
from tierheap.runtime import GuideRegistry, TierRuntime
from tierheap.store import make_store

from conftest import add_entry


PAYLOAD = b"migrating-object-payload" * 4

# A store entry is its key guide's index; its value guide is the next one.
ROLE_OFFSET = {"key_guide": 0, "value_guide": 1}


def make_env():
    """A runtime holding one entry; the race table's rows run on its key
    guide, `index`, whose slot is at `loc`."""
    runtime = TierRuntime(region_length=1 << 22)
    index = add_entry(runtime, PAYLOAD)
    return runtime, index, runtime.registry.words[index] & LOCATOR_MASK


def migrate_one(runtime, index, step=None):
    """Move guide `index` to HOT by a one-guide `migrate_batch`, running
    `step(runtime, index)` between its lock pass and its commit pass.

    Returns the counts, the word as the lock pass left it, and the
    locator of the HOT copy.
    """
    hot = runtime.regions.region(HeapId.HOT)
    allocate_batch = hot.allocate_batch
    seen = []

    def hooked(payloads):
        placed = allocate_batch(payloads)
        seen.extend((runtime.registry.words[index], *placed))
        if step is not None:
            step(runtime, index)
        return placed

    hot.allocate_batch = hooked
    collector = runtime.collector
    collector.begin_epoch()
    assert collector.await_convergence()
    counts = collector.migrate_batch([index], HeapId.HOT)
    collector.end_epoch()
    del hot.allocate_batch
    locked, copy = seen
    return counts, locked, copy


def outcome(counts):
    return ("committed" if counts.moved else
            "aborted" if counts.aborted else "skipped")


class TestRaceTable:
    def test_no_intervention_both_cas_succeed(self):
        runtime, index, old_loc = make_env()
        counts, _, new_loc = migrate_one(runtime, index)
        assert outcome(counts) == "committed"
        fields = unpack(runtime.registry.words[index])
        assert fields.heap is HeapId.HOT and fields.locator == new_loc
        assert runtime.regions.read(new_loc) == PAYLOAD
        with pytest.raises(RegionError):
            runtime.regions.read(old_loc)  # old slot freed exactly once
        runtime.audit()

    def test_lock_set_succeeds_from_quiescent_word(self):
        runtime, index, _ = make_env()
        word = runtime.registry.words[index]
        _, locked, _ = migrate_one(runtime, index)
        assert locked == word | LOCK_BIT

    def test_dereference_between_lock_and_commit_aborts(self):
        runtime, index, old_loc = make_env()
        derefs = []

        def deref(runtime, index):
            # Mutator dereferences at t1': lock cleared, accessed set, and
            # the returned locator is still the old object.
            derefs.append(runtime.registry.dereference(index))
            assert not runtime.registry.words[index] & LOCK_BIT

        counts, _, new_loc = migrate_one(runtime, index, deref)
        assert derefs == [old_loc]
        assert outcome(counts) == "aborted"
        # Old object remains authoritative; the copy was freed, not the old.
        fields = unpack(runtime.registry.words[index])
        assert fields.locator == old_loc and fields.accessed
        assert runtime.regions.read(old_loc) == PAYLOAD
        with pytest.raises(RegionError):
            runtime.regions.read(new_loc)
        runtime.audit()

    def test_scope_registration_between_lock_and_commit_aborts(self):
        runtime, index, old_loc = make_env()
        # A scope use clears the lock and bumps the ATC.
        counts, _, _ = migrate_one(runtime, index, atc_increment)
        assert outcome(counts) == "aborted"
        fields = unpack(runtime.registry.words[index])
        assert fields.locator == old_loc and fields.atc == 1
        assert runtime.regions.read(old_loc) == PAYLOAD
        runtime.audit()


class TestDeleteVersusMigrate:
    def test_delete_wins_between_lock_and_commit(self):
        runtime, index, old_loc = make_env()
        # The delete's tombstone CAS wins the word, then frees the old slot.
        counts, _, new_loc = migrate_one(runtime, index, tombstone_and_free)
        assert outcome(counts) == "aborted"  # collector frees only its copy
        assert unpack(runtime.registry.words[index]).heap is HeapId.RESERVED
        for loc in (old_loc, new_loc):
            with pytest.raises(RegionError):
                runtime.regions.read(loc)
        assert runtime.regions.live_slot_count() == 0
        runtime.audit()

    def test_migration_wins_then_delete_frees_new_copy(self):
        runtime, index, old_loc = make_env()
        counts, _, _ = migrate_one(runtime, index)
        assert outcome(counts) == "committed"  # frees the old slot
        tombstone_and_free(runtime, index)  # tombstones + frees the copy
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
        assert registry.atc_increment(index)  # open scopes recorded them
        for _ in range(2):
            assert registry.atc_increment(index + 1)
        tombstone_and_free(runtime, index)
        assert [unpack(registry.words[i]).atc
                for i in (index, index + 1)] == [1, 2]
        registry.reclaim_retired()
        assert registry.live_count == 0 and registry.graveyard_mark() == 1
        registry.atc_decrement(index)  # the scope exits still balance
        registry.atc_decrement(index + 1)
        registry.reclaim_retired()
        assert registry.graveyard_mark() == 1  # the value's count holds it
        registry.atc_decrement(index + 1)
        registry.reclaim_retired()
        # the pair becomes reusable only after both counts drained
        assert registry.graveyard_mark() == 0
        assert registry.create(pack(1, heap=HeapId.NEW),
                               pack(2, heap=HeapId.NEW)) == index

    def test_tombstone_word_shape(self):
        """`retire` returns the replaced words and leaves each one the
        RESERVED heap, a zero locator and the word's own ATC."""
        registry = GuideRegistry()
        words = (pack(0x1234, atc=2, ciw=9, heap=HeapId.HOT, accessed=True,
                      migration_lock=True),
                 pack(0x5678, atc=5, ciw=1, heap=HeapId.COLD))
        g = registry.create(*words)
        assert registry.retire(g) == words
        for index, atc in ((g, 2), (g + 1, 5)):
            fields = unpack(registry.words[index])
            assert fields.heap is HeapId.RESERVED and fields.atc == atc
            assert fields.locator == 0 and fields.ciw == 0
            assert not fields.accessed and not fields.migration_lock


def dereference(runtime, index):
    runtime.registry.dereference(index)


def atc_increment(runtime, index):
    assert runtime.registry.atc_increment(index)


def tombstone_and_free(runtime, index):
    """A delete of the entry whose key guide is `index`: retire it, then
    free both slots."""
    for old in runtime.registry.retire(index):
        runtime.regions.free(old & LOCATOR_MASK)


def swing_value(runtime, index):
    """A set: publish a fresh NEW slot by CAS, then free the replaced one."""
    regions, registry = runtime.regions, runtime.registry
    new_loc = regions.heaps[HeapId.NEW].install(PAYLOAD)
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
        guides = [add_entry(runtime, PAYLOAD) for _ in range(MIGRATE_CHUNK)]
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

    def test_mutator_thread_between_the_stripe_passes(self, monkeypatch):
        """A second thread races the aging section and then the passes.

        During the scan window that clears the accessed bits, a racer
        thread appends an entry through `registry.create` (the free list is
        empty), sets a new key and gets an old one while the arena is being
        aged: the create and the set wait for the section, so neither meets
        a buffer export, and the appended words are not aged.  Then a
        `registry.create` that reuses a deleted entry's freed pair, a
        set of a chunk member and a first-touch get of another run while
        the chunk sits between its lock and commit passes.  Each takes the
        arena's word lock (the create under the registry lock), which no
        section holds between the passes, so none may wait on the
        collector; the two touched guides' commits abort and their copies
        are freed."""
        runtime = TierRuntime(region_length=1 << 24)
        store = make_store(runtime, "hashmap")
        keys = [b"key-%05d" % i for i in range(MIGRATE_CHUNK)]
        for key in keys:
            store.set(key, PAYLOAD)
        store.set(b"gone", PAYLOAD)
        gone = store._entry(b"gone")
        store.delete(b"gone")
        collector = runtime.collector
        registry = runtime.registry
        arena_length = len(registry.words)
        waiting = threading.Event()
        raced, racer_errors = [], []

        def race():
            try:
                new = runtime.regions.heaps[HeapId.NEW]
                words = [new.install(payload) | ACCESSED_BIT
                         for payload in (b"raced", b"value")]
                waiting.set()
                raced.append((registry.create(*words), words))
                store.set(b"raced", PAYLOAD)
                raced.append(store.get(keys[0]))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                racer_errors.append(exc)

        racer = threading.Thread(target=race, daemon=True)
        aged = collector_module._aged

        def aged_while_racing(old):
            if racer.ident is None:  # the first slice: start the racer
                racer.start()
                assert waiting.wait(10.0)
                time.sleep(0.02)  # the racer now waits for the section
                assert racer.is_alive() and raced == [], \
                    "the racer's create did not wait for the section"
                assert len(registry.words) == arena_length
            return aged(old)

        scan = collector.scan

        def scan_then_join(cold_threshold):
            result = scan(cold_threshold)
            racer.join(10.0)
            assert not racer.is_alive(), "racer blocked after the section"
            return result

        monkeypatch.setattr(collector_module, "_aged", aged_while_racing)
        monkeypatch.setattr(collector, "scan", scan_then_join)
        collector.run_scan_window()  # clears every accessed bit
        monkeypatch.undo()
        assert racer_errors == []
        (appended, words), warm = raced
        assert appended == arena_length and warm == PAYLOAD
        not_aged = registry.words[appended:appended + 2].tolist()
        assert not_aged == words
        assert registry._free == [gone]
        guides = [store._entry(key) + 1 for key in keys]
        set_guide, get_guide = guides[3], guides[MIGRATE_CHUNK // 2]
        cold = runtime.regions.region(HeapId.COLD)
        allocate_batch = cold.allocate_batch
        copies, created, got, errors = [], [], [], []

        def mutate():
            try:
                new = runtime.regions.heaps[HeapId.NEW]
                created.append(registry.create(*(
                    new.install(payload) | ACCESSED_BIT
                    for payload in (b"fresh", b"value"))))
                store.set(keys[3], b"new-value")
                got.append(store.get(keys[MIGRATE_CHUNK // 2]))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def hooked(payloads):
            assert all(registry.words[i] & LOCK_BIT for i in guides)
            copies.extend(allocate_batch(payloads))
            mutator = threading.Thread(target=mutate, daemon=True)
            mutator.start()
            mutator.join(10.0)
            assert not mutator.is_alive(), "mutator blocked on the collector"
            return copies

        cold.allocate_batch = hooked
        collector.begin_epoch()
        assert collector.await_convergence()
        counts = collector.migrate_batch(guides, HeapId.COLD)
        collector.end_epoch()
        assert errors == []
        assert created == [gone]
        assert got == [PAYLOAD]
        assert (counts.moved, counts.aborted, counts.skipped) \
            == (MIGRATE_CHUNK - 2, 2, 0)
        for index, copy in zip(guides, copies):
            if index in (set_guide, get_guide):
                assert word_heap(registry.words[index]) is not HeapId.COLD
                with pytest.raises(RegionError):
                    cold.read(copy)  # the copy was freed
            else:
                assert registry.words[index] == pack(copy, heap=HeapId.COLD)
        assert store.get(keys[3]) == b"new-value"
        assert store.get(keys[MIGRATE_CHUNK // 2]) == PAYLOAD
        assert store.get(b"raced") == PAYLOAD
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


class TestExclusiveSection:
    """The collector's passes run in `GuideRegistry.exclusive`: the
    registry lock, then the arena's word lock, around a numpy view of the
    arena."""

    def test_appending_creates_racing_scan_windows(self):
        """One thread appends entries through `create`, with the free list
        empty, while another runs scan windows with promotions and
        demotions queued: both finish, no create meets a buffer export,
        and the audit holds."""
        runtime = TierRuntime(region_length=1 << 24, ct_init=1)
        registry = runtime.registry
        for i in range(2048):
            add_entry(runtime, PAYLOAD, accessed=i % 2 == 0)
        stop = threading.Event()
        appended, reports, errors = [], [], []

        def append():
            try:
                while not stop.is_set() and len(appended) < 10_000:
                    appended.append(add_entry(runtime, PAYLOAD,
                                              accessed=True))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def collect():
            try:
                for _ in range(4):
                    reports.append(runtime.collector.run_scan_window())
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            appender = threading.Thread(target=append)
            collector = threading.Thread(target=collect)
            appender.start()
            collector.start()
            collector.join(60.0)
            stop.set()
            appender.join(60.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not collector.is_alive() and not appender.is_alive()
        assert errors == []
        assert len(reports) == 4
        assert reports[0].new_to_hot >= 2048
        assert reports[0].demoted_to_cold >= 2048
        assert appended == list(range(4096, 4096 + 2 * len(appended), 2))
        assert reports[-1].scanned_guides > 4096  # saw appended guides
        runtime.audit()

    def test_create_pair_waits_for_the_section_then_appends(self):
        """A `create` issued while another thread holds the section waits
        for it, then appends both words: the view is gone by then, so the
        append raises no BufferError."""
        registry = GuideRegistry()
        registry.create(pack(0x40), pack(0x80))
        entered, leave = threading.Event(), threading.Event()
        created, errors = [], []

        def section():
            try:
                with registry.exclusive() as view:
                    entered.set()
                    assert leave.wait(10.0)
                    view[0] |= ACCESSED_BIT
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def create():
            try:
                created.append(registry.create(pack(0xC0), pack(0x100)))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        holder = threading.Thread(target=section)
        holder.start()
        assert entered.wait(10.0)
        creator = threading.Thread(target=create)
        creator.start()
        creator.join(0.1)
        waited = creator.is_alive() and created == [] \
            and len(registry.words) == 2
        leave.set()
        holder.join(10.0)
        creator.join(10.0)
        assert waited, "create did not wait for the section"
        assert not holder.is_alive() and not creator.is_alive()
        assert errors == [] and created == [2]
        assert list(registry.words) == [pack(0x40) | ACCESSED_BIT,
                                        pack(0x80), pack(0xC0), pack(0x100)]
        registry.audit()

    @pytest.mark.parametrize("section", ["aging", "lock pass"])
    def test_a_pass_that_raises_leaves_the_section(self, monkeypatch,
                                                   section):
        """A pass that raises inside the section releases the registry
        lock and the word lock, and keeps no view of the arena alive, not
        even through the traceback: an appending `create` succeeds while
        the exception is still held."""
        runtime = TierRuntime(region_length=1 << 22)
        registry, collector = runtime.registry, runtime.collector
        index = add_entry(runtime, PAYLOAD)
        word = registry.words[index]
        if section == "aging":
            def broken(old):
                raise RuntimeError("aging failed")

            monkeypatch.setattr(collector_module, "_aged", broken)
            with pytest.raises(RuntimeError) as failure:
                collector.scan(1)
        else:
            collector.begin_epoch()
            assert collector.await_convergence()
            with pytest.raises(IndexError) as failure:
                collector.migrate_batch([index + 5], HeapId.HOT)
        assert not registry._lock.locked()
        assert not registry.word_lock.locked()
        assert add_entry(runtime, PAYLOAD) == index + 2
        assert failure.value.__traceback__ is not None
        assert registry.words[index] == word

    @pytest.mark.parametrize("store", [
        "first-touch-get", "update-cas", "delete-retire", "create-reusing",
        "atc-increment"])
    def test_a_word_store_waits_for_the_section(self, store):
        """Every store to an existing word is made under the word lock, so
        one issued while another thread holds `exclusive()` waits for the
        section, stores nothing meanwhile, then completes: a get's first
        touch after a scan window, an update's CAS on the value word, a
        delete's `retire`, a `create` that reuses a freed pair (which also
        waits for the registry lock), and an ATC increment."""
        runtime = TierRuntime(region_length=1 << 24)
        registry = runtime.registry
        kv = make_store(runtime, "hashmap")
        kv.set(b"key", PAYLOAD)
        entry = kv._entry(b"key")
        kv.set(b"gone", PAYLOAD)
        gone = kv._entry(b"gone")
        kv.delete(b"gone")
        registry.reclaim_retired()
        if store == "first-touch-get":
            runtime.collector.run_scan_window()  # clears the accessed bits
            assert not registry.words[entry] & ACCESSED_BIT
        op, done = {
            "first-touch-get": (
                lambda: kv.get(b"key"),
                lambda result: result == PAYLOAD and all(
                    registry.words[g] & ACCESSED_BIT
                    for g in (entry, entry + 1))),
            "update-cas": (
                lambda: kv.set(b"key", b"new-value"),
                lambda result: kv.get(b"key") == b"new-value"),
            "delete-retire": (
                lambda: kv.delete(b"key"),
                lambda result: result is True and all(
                    word_heap(registry.words[g]) == HeapId.RESERVED
                    for g in (entry, entry + 1))),
            "create-reusing": (
                lambda: kv.set(b"fresh", PAYLOAD),
                lambda result: kv._entry(b"fresh") == gone),
            "atc-increment": (
                lambda: registry.atc_increment(entry),
                lambda result: result is True
                and unpack(registry.words[entry]).atc == 1),
        }[store]
        before = registry.words.tolist()
        entered, leave = threading.Event(), threading.Event()
        results, errors = [], []

        def section():
            try:
                with registry.exclusive():
                    entered.set()
                    assert leave.wait(10.0)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def mutate():
            try:
                results.append(op())
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        holder = threading.Thread(target=section)
        holder.start()
        assert entered.wait(10.0)
        mutator = threading.Thread(target=mutate)
        mutator.start()
        mutator.join(0.1)
        waited = mutator.is_alive() and results == [] \
            and registry.words.tolist() == before
        leave.set()
        holder.join(10.0)
        mutator.join(10.0)
        assert waited, f"the {store} did not wait for the section"
        assert not holder.is_alive() and not mutator.is_alive()
        assert errors == [] and len(results) == 1
        assert done(results[0])
        runtime.audit()


class TestRacesThroughTheStores:
    """The race table's rows, reached through a store's own get."""

    @pytest.mark.parametrize("role", ["key_guide", "value_guide"])
    @pytest.mark.parametrize("structure", ["hashmap", "skiplist"])
    def test_first_touch_get_between_lock_and_commit_aborts(
            self, structure, role):
        """The deref-aborts-commit row: a get that first touches the word
        after a scan window, between a migration's lock pass and its commit
        pass, leaves it unlocked and accessed (ATC tracking is on during
        the epoch, so its scope's guide use clears the lock before its own
        frame sets the accessed bit), so the commit fails and the old slot
        stays authoritative."""
        runtime = TierRuntime(region_length=1 << 22)
        store = make_store(runtime, structure)
        store.set(b"key", PAYLOAD)
        runtime.collector.run_scan_window()  # clears the accessed bits
        index = store._entry(b"key") + ROLE_OFFSET[role]
        word = runtime.registry.words[index]
        got = []
        counts, _, new_loc = migrate_one(
            runtime, index, lambda *_: got.append(store.get(b"key")))
        assert got == [PAYLOAD]
        assert outcome(counts) == "aborted"
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
        returns the new value, never None.  The two values differ in
        length, so the set publishes a fresh slot and frees the one being
        read."""
        runtime = TierRuntime(region_length=1 << 22)
        store = make_store(runtime, "hashmap")
        store.set(b"key", b"old")
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

    @pytest.mark.parametrize("via", ["set", "_update"])
    @pytest.mark.parametrize("structure", ["hashmap", "skiplist"])
    def test_in_place_update_between_lock_and_commit_aborts(self, structure,
                                                             via):
        """A same-length update stores into the value slot between a
        migration's lock pass and its commit pass, so the commit fails, the
        copy (made of the old payload) is freed and the new value stays
        readable in the old slot.  A set in the epoch is tracked, and its
        scope's guide use clears the lock too; the untracked `_update`
        call leaves that to the update's own word store."""
        runtime = TierRuntime(region_length=1 << 22)
        store = make_store(runtime, structure)
        store.set(b"key", PAYLOAD)
        entry = store._entry(b"key")
        index = entry + 1
        old_loc = runtime.registry.words[index] & LOCATOR_MASK
        fresh = PAYLOAD.upper()

        def update(*_):
            if via == "set":
                store.set(b"key", fresh)
            else:
                assert store._update(entry, 3, fresh, False)

        counts, locked, new_loc = migrate_one(runtime, index, update)
        assert locked & LOCK_BIT
        assert outcome(counts) == "aborted"
        fields = unpack(runtime.registry.words[index])
        assert fields.locator == old_loc and fields.heap is HeapId.NEW
        assert fields.accessed and not fields.migration_lock
        with pytest.raises(RegionError):
            runtime.regions.read(new_loc)  # the copy was freed
        assert runtime.regions.read(old_loc) == fresh
        assert store.get(b"key") == fresh
        runtime.audit()

    @pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
    @pytest.mark.parametrize("structure", ["hashmap", "skiplist"])
    def test_get_racing_an_in_place_update_on_another_thread(
            self, hook_slots, structure, after):
        """A same-length set of the same key runs to completion on a second
        thread while a get reads the value slot.  The set stores into that
        slot, so the word keeps naming it: hooked before the dict lookup
        the get reads the new value, hooked after it the old one, and
        never None or another key's bytes."""
        runtime = TierRuntime(region_length=1 << 22)
        store = make_store(runtime, structure)
        store.set(b"key", b"old-value")
        store.set(b"other", b"not-yours")
        locator = runtime.registry.words[store._entry(b"key") + 1] \
            & LOCATOR_MASK
        setter = threading.Thread(target=store.set,
                                  args=(b"key", b"new-value"))

        def race():
            setter.start()
            setter.join(10.0)

        hook_slots(store, race, after=after)
        got = store.get(b"key")
        assert not setter.is_alive()
        assert got == (b"old-value" if after else b"new-value")
        assert runtime.registry.words[store._entry(b"key") + 1] \
            & LOCATOR_MASK == locator
        assert store.get(b"key") == b"new-value"
        runtime.audit()


class TestLockFreeRetire:
    """A delete's `registry.retire` tombstones both words under the
    arena's word lock, and parks the entry with no lock: it never waits
    for the registry lock."""

    @pytest.mark.parametrize("structure", ["hashmap", "skiplist"])
    def test_delete_completes_while_the_registry_lock_is_held(
            self, structure):
        """A thread holds the registry lock, as a `create` or a
        `reclaim_retired` does, until the delete on another thread has
        finished, which it does meanwhile."""
        runtime = TierRuntime(region_length=1 << 22)
        registry = runtime.registry
        store = make_store(runtime, structure)
        store.set(b"other", PAYLOAD)
        store.set(b"key", PAYLOAD)
        held, finished, deleted, errors = threading.Event(), [], [], []

        def hold():
            with registry._lock:
                held.set()
                deleter.join(5.0)
                finished.append(not deleter.is_alive())

        def delete():
            try:
                assert held.wait(10.0)
                deleted.append(store.delete(b"key"))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        holder = threading.Thread(target=hold)
        deleter = threading.Thread(target=delete)
        deleter.start()
        holder.start()
        holder.join(10.0)
        deleter.join(10.0)
        assert finished == [True], "the delete waited for the registry lock"
        assert not holder.is_alive() and not deleter.is_alive()
        assert errors == [] and deleted == [True]
        assert store.get(b"key") is None
        assert store.get(b"other") == PAYLOAD
        assert registry.graveyard_mark() == 1  # the pair, as one item
        runtime.audit()

    @pytest.mark.parametrize("structure", ["hashmap", "skiplist"])
    def test_deletes_racing_reclaims_lose_and_repeat_no_index(
            self, structure):
        """Two threads delete every key while a third drains the graveyard
        in a loop.  Guides a tracked scope on this thread still holds stay
        parked through every drain; once it exits, all are freed, each
        once, and the audit holds."""
        runtime = TierRuntime(region_length=1 << 24)
        registry = runtime.registry
        store = make_store(runtime, structure)
        keys = [b"key-%05d" % i for i in range(3000)]
        for key in keys:
            store.set(key, PAYLOAD)
        held = keys[::7]
        held_pairs = sorted(store._entry(key) for key in held)
        runtime.epoch_state.tracking_enabled = True
        runtime.scope.enter_scope()
        for key in held:  # each get records its two guides: ATC 1
            assert store.get(key) == PAYLOAD
        runtime.epoch_state.tracking_enabled = False
        done, errors = threading.Event(), []

        def delete_all(part):
            try:
                for key in part:
                    assert store.delete(key)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def reclaim():
            try:
                while not done.is_set():
                    registry.reclaim_retired(registry.graveyard_mark())
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deleters = [threading.Thread(target=delete_all, args=(part,))
                        for part in (keys[0::2], keys[1::2])]
            reclaimer = threading.Thread(target=reclaim)
            threads = [*deleters, reclaimer]
            for thread in threads:
                thread.start()
            for thread in deleters:
                thread.join(60.0)
            done.set()
            reclaimer.join(60.0)
        finally:
            done.set()
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        registry.reclaim_retired()
        assert sorted(registry._graveyard) == held_pairs
        runtime.scope.exit_scope()
        registry.reclaim_retired()
        assert registry.graveyard_mark() == 0
        assert sorted(registry._free) == list(range(0, 2 * len(keys), 2))
        assert registry.live_count == 0
        runtime.audit()


    def test_retire_pairs_racing_reclaims_park_each_pair_once(self):
        """Two threads retire pairs, with no registry lock, while a third
        drains the graveyard in a loop: every pair ends on the free list
        exactly once."""
        registry = GuideRegistry()
        pairs = [registry.create(pack(0x40 * i), pack(0x40 * i + 0x20))
                 for i in range(4000)]
        done, errors = threading.Event(), []

        def retire_all(part):
            try:
                for g in part:
                    registry.retire(g)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def reclaim():
            try:
                while not done.is_set():
                    registry.reclaim_retired(registry.graveyard_mark())
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            retirers = [threading.Thread(target=retire_all, args=(part,))
                        for part in (pairs[0::2], pairs[1::2])]
            reclaimer = threading.Thread(target=reclaim)
            threads = [*retirers, reclaimer]
            for thread in threads:
                thread.start()
            for thread in retirers:
                thread.join(60.0)
            done.set()
            reclaimer.join(60.0)
        finally:
            done.set()
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        registry.reclaim_retired()
        assert registry.graveyard_mark() == 0
        assert sorted(registry._free) == pairs
        assert registry.live_count == 0
        registry.audit()


class TestSlotDictRebuild:
    """Gets take no region lock, so they race the collector's
    `free_batch`, which swaps a region's slot dict for a smaller copy once
    migration drains the region below a quarter of its peak."""

    def test_gets_while_windows_drain_new_and_hot(self, monkeypatch):
        """A second thread gets every key of a 20k-key map, in passes,
        during some scan windows and not others, while the windows drain
        NEW into HOT and HOT into COLD through several rebuilds; every get
        reads its model value and every region's slot dict stays the one
        published in `slots`."""
        runtime = TierRuntime(region_length=1 << 26, ct_init=1)
        store = make_store(runtime, "hashmap")
        model = {b"key-%05d" % i: b"value-%05d" % i for i in range(20000)}
        for key, value in model.items():
            store.set(key, value)
        regions = runtime.regions
        in_pass = threading.Event()
        rebuilds = []  # (heap, whether a get pass was running)
        rebuild = HeapRegion._rebuild

        def counted(region):
            rebuilds.append((region.heap, in_pass.is_set()))
            rebuild(region)

        monkeypatch.setattr(HeapRegion, "_rebuild", counted)
        reading, done = threading.Event(), threading.Event()
        errors, passes = [], []

        def reader():
            try:
                while not done.is_set():
                    if not reading.wait(0.001):
                        continue
                    in_pass.set()
                    wrong = sum(store.get(key) != value
                                for key, value in model.items())
                    in_pass.clear()
                    passes.append(wrong)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)
                in_pass.clear()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            # r: gets run through the window; .: no get runs in it.
            for schedule in "rr..rr..":
                if schedule == "r":
                    reading.set()
                else:
                    reading.clear()
                    while in_pass.is_set() and thread.is_alive():
                        time.sleep(0.001)  # let the pass finish
                runtime.collector.run_scan_window()
                for heap, region in enumerate(regions.heaps):
                    assert regions.slots[heap] is region._live
                runtime.audit()
        finally:
            done.set()
            thread.join(60.0)
        assert not thread.is_alive()
        assert errors == [] and passes and not any(passes)
        assert {HeapId.NEW, HeapId.HOT} <= {heap for heap, _ in rebuilds}
        assert any(racing for _, racing in rebuilds)
        assert all(store.get(key) == value for key, value in model.items())
        runtime.audit()

    def test_get_between_the_copy_and_the_publish(self):
        """A get on another thread, run while the rebuild holds NEW's lock
        after copying the slot dict but before publishing the copy, reads
        the old dict and returns the value; an insert waits for the lock
        and lands in the new dict."""
        runtime = TierRuntime(region_length=1 << 22)
        store = make_store(runtime, "hashmap")
        model = {b"key-%03d" % i: b"value-%03d" % i for i in range(64)}
        for key, value in model.items():
            store.set(key, value)
        regions = runtime.regions
        new = regions.region(HeapId.NEW)
        stay = store._entry(b"key-000")  # the one entry left in NEW
        guides = [guide for key in model if key != b"key-000"
                  for guide in (store._entry(key),
                                store._entry(key) + 1)]
        publish = new._publish
        seen = []

        def hooked(live):
            old = regions.slots[HeapId.NEW]
            assert old is new._live and live is not old
            assert new._lock.locked()
            got = []
            getter = threading.Thread(target=lambda: got.extend(
                store.get(key) for key in (b"key-000", b"key-001")))
            getter.start()
            getter.join(10.0)
            assert not getter.is_alive(), "a get waited for the region lock"
            inserter = threading.Thread(target=store.set,
                                        args=(b"late", b"late-value"))
            inserter.start()
            inserter.join(0.05)
            assert inserter.is_alive(), "an insert ran inside the rebuild"
            publish(live)
            seen.append((got, inserter))

        new._publish = hooked
        collector = runtime.collector
        collector.begin_epoch()
        assert collector.await_convergence()
        counts = collector.migrate_batch(guides, HeapId.HOT)
        collector.end_epoch()
        (got, inserter), = seen
        inserter.join(10.0)
        assert not inserter.is_alive()
        assert got == [b"value-000", b"value-001"]
        assert counts.moved == len(guides)
        assert regions.slots[HeapId.NEW] is new._live
        late = store._entry(b"late")
        assert sorted(new._live) == sorted(  # NEW's base is 0
            runtime.registry.words[guide] & LOCATOR_MASK
            for guide in (stay, stay + 1, late, late + 1))
        for key, value in [*model.items(), (b"late", b"late-value")]:
            assert store.get(key) == value
        runtime.audit()
