"""Guide-managed KV stores: hash map and skip list."""
import random
import sys
import threading
import time
import zlib
from collections import Counter

import pytest

import tierheap.store
from tierheap.guideword import (ACCESSED_BIT, LOCATOR_MASK, LOCK_BIT,
                                TOMBSTONE_BASE, GuideWord, HeapId, pack,
                                unpack, word_atc, word_heap)
from tierheap.metrics import FOLD_LENGTH
from tierheap.regions import SIZE_CLASSES, RegionError, RegionManager
from tierheap.runtime import GuideRegistry, TierRuntime
from tierheap.scope import SCOPE_SAMPLE_MASK, EpochState, Phase
from tierheap.store import (_MAX_LEVEL, GuideHashMap, GuideSkipList,
                            PlainStore, make_store)

# A store entry is its key guide's index; its value guide is the next one.
ROLE_OFFSET = {"key_guide": 0, "value_guide": 1}
LOCK_TYPE = type(threading.Lock())


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

    def test_set_hands_over_immutable_bytes(self, store):
        """A mutable key or value given to an insert or an update is
        converted: changing it afterwards changes nothing stored."""
        key, value = bytearray(b"key"), bytearray(b"abcd")
        store.set(key, value)
        value[0] = ord("Z")
        assert store.get(b"key") == b"abcd"
        assert type(store.get(b"key")) is bytes
        store.set(b"key", value)  # update
        value[0] = ord("Y")
        assert store.get(b"key") == b"Zbcd"
        key[0] = ord("X")
        assert store.get(b"key") == b"Zbcd"
        assert store.get(b"Xey") is None
        if isinstance(store, GuideSkipList):
            assert store.keys() == [b"key"]
            assert type(store.keys()[0]) is bytes
        words = store.runtime.registry.words
        entry = entry_of(store, b"key")
        assert store.runtime.regions.read(
            words[entry] & LOCATOR_MASK) == b"key"


class TestGuideDiscipline:
    def test_get_marks_value_guide_accessed(self, store):
        runtime = store.runtime
        store.set(b"k", b"v")
        runtime.collector.run_scan_window()  # clears accessed bits
        live = list(runtime.registry.indices())
        assert all(not runtime.registry.words[i] & ACCESSED_BIT
                   for i in live)
        assert store.get(b"k") == b"v"
        # Aged words miss the plain-load test; the get stores the bit back
        # on both the key's and the value's guide.
        assert len(live) == 2
        assert all(runtime.registry.words[i] & ACCESSED_BIT for i in live)

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
        # With ATC tracking on, a point get touches exactly its key and
        # value guides.
        runtime = make_runtime()
        store = GuideHashMap(runtime)
        for i in range(50):
            store.set(b"k%02d" % i, b"v")
        runtime.epoch_state.tracking_enabled = True
        used = record_uses(monkeypatch, runtime.scope)
        unique_per_op = []
        for i in range(50):
            used.clear()
            store.get(b"k%02d" % i)
            unique_per_op.append(len(set(used)))
        assert unique_per_op == [2] * 50

    @pytest.mark.parametrize("role", ["key_guide", "value_guide"])
    def test_get_on_a_locked_word_fails_the_migration(self, store, role):
        """A get that meets a pending migration lock clears it, so the
        migration's commit fails and the old slot stays authoritative."""
        runtime = store.runtime
        registry = runtime.registry
        store.set(b"k", b"v")
        guide = entry_of(store, b"k") + ROLE_OFFSET[role]
        word = registry.words[guide]
        locked = word | LOCK_BIT
        assert registry.compare_and_swap(guide, word, locked)
        assert store.get(b"k") == b"v"
        assert not registry.compare_and_swap(guide, locked, word)
        assert registry.words[guide] & ACCESSED_BIT
        assert not registry.words[guide] & LOCK_BIT

    def test_each_op_makes_one_access_log_call(self, store, monkeypatch):
        """A get appends its key and value slots, in that order, to the
        access log's pending list in one call; so do an insert and an
        update.  None calls the log itself below the fold size."""
        runtime = store.runtime
        log = runtime.access_log
        extends = []

        class CountingPending(list):
            def extend(self, pairs):
                pairs = tuple(pairs)
                extends.append(pairs)
                super().extend(pairs)

        log.pending = CountingPending()
        calls = []
        monkeypatch.setattr(log, "record", lambda *pairs: calls.append(pairs))
        store.set(b"key", b"value-1")  # insert
        entry = entry_of(store, b"key")
        store.set(b"key", b"value-22")  # update
        assert store.get(b"key") == b"value-22"
        words = runtime.registry.words
        key_loc = words[entry] & LOCATOR_MASK
        value_loc = words[entry + 1] & LOCATOR_MASK
        assert len(extends) == 3
        assert extends[0][:2] == (key_loc, 3) and extends[0][3] == 7
        assert extends[1] == extends[2] == (key_loc, 3, value_loc, 8)
        assert log.pending == [*extends[0], *extends[1], *extends[2]]
        assert calls == []

    @pytest.mark.parametrize("op", ["get", "update", "delete"])
    def test_tracked_op_records_its_two_guides(self, store, monkeypatch, op):
        runtime = store.runtime
        store.set(b"k", b"v")
        store.set(b"other", b"w")
        entry = entry_of(store, b"k")
        runtime.epoch_state.tracking_enabled = True
        used = record_uses(monkeypatch, runtime.scope)
        if op == "get":
            assert store.get(b"k") == b"v"
        elif op == "update":
            store.set(b"k", b"v2")
        else:
            assert store.delete(b"k")
        assert sorted(used) == sorted([entry, entry + 1])
        assert all(word_atc(w) == 0 for w in runtime.registry.words)

    def test_untracked_ops_record_no_guide_use(self, store, monkeypatch):
        used = record_uses(monkeypatch, store.runtime.scope)
        store.set(b"k", b"v")
        store.set(b"k", b"v2")
        assert store.get(b"k") == b"v2"
        assert store.delete(b"k")
        assert used == []


class TestInlineScope:
    """The common outermost scope, which a store op registers inline, and
    the cases that must leave it for `enter_scope` and `exit_scope`."""

    def test_sampled_scope_still_times_itself(self, store):
        scopes = store.runtime.scope
        store.set(b"k", b"v")  # outermost scope 0: sampled
        scopes.max_scope_seconds = 0.0
        for _ in range(SCOPE_SAMPLE_MASK):  # scopes 1..63: inline
            assert store.get(b"k") == b"v"
        assert scopes.max_scope_seconds == 0.0
        assert store.get(b"k") == b"v"  # scope 64: sampled
        assert scopes.max_scope_seconds > 0.0
        assert scopes.tls.scope.outermost == SCOPE_SAMPLE_MASK + 2

    @pytest.mark.parametrize("op", ["get", "update"])
    def test_tracking_turned_on_is_seen_by_the_next_op(self, store,
                                                      monkeypatch, op):
        runtime = store.runtime
        store.set(b"k", b"v")
        entry = entry_of(store, b"k")
        atcs = []
        used = record_uses(monkeypatch, runtime.scope)
        real_update = store._update

        def update_seeing_atcs(entry, key_len, value, tracked):
            updated = real_update(entry, key_len, value, tracked)
            atcs.append([word_atc(runtime.registry.words[g])
                         for g in (entry, entry + 1)])
            return updated

        monkeypatch.setattr(store, "_update", update_seeing_atcs)
        assert store.get(b"k") == b"v"  # inline, untracked
        assert used == []
        runtime.epoch_state.tracking_enabled = True
        if op == "get":
            assert store.get(b"k") == b"v"
        else:
            store.set(b"k", b"v2")
            assert atcs == [[1, 1]]  # held while the scope is open
        assert sorted(used) == sorted([entry, entry + 1])
        assert all(word_atc(w) == 0 for w in runtime.registry.words)

    @pytest.mark.parametrize("outer", ["enter_scope", "inline op"])
    def test_op_inside_an_open_scope_registers_once(self, store, monkeypatch,
                                                    tai_calls, outer):
        """Ops nested in an open scope, whether `enter_scope` or an inline
        op opened it, register nothing, track nothing and leave the depth
        balanced, also right after a tracked scope."""
        runtime = store.runtime
        scopes = runtime.scope
        calls = tai_calls(runtime.tai)
        other = b"other"
        store.set(b"k", b"v")
        store.set(other, b"w")
        runtime.epoch_state.tracking_enabled = True
        assert store.get(b"k") == b"v"  # tracked
        runtime.epoch_state.tracking_enabled = False
        used = record_uses(monkeypatch, scopes)
        depths = []

        def nested_ops():
            assert store.get(other) == b"w"
            store.set(other, b"w2")
            assert store.delete(other)
            depths.append(scopes.depth)

        if outer == "enter_scope":
            scopes.enter_scope()
            nested_ops()
            scopes.exit_scope()
        else:
            hooked = []

            def nested_ops_once():
                if not hooked:
                    hooked.append(True)
                    nested_ops()

            hook_lookup(monkeypatch, store, b"k", nested_ops_once)
            assert store.get(b"k") == b"v"
        assert depths == [1]
        assert used == []
        assert scopes.depth == 0
        assert calls == {"enter": 4, "exit": 4}
        assert runtime.tai.converged(-1)  # every slot is empty

    def test_raising_op_leaves_no_scope_open(self, store, monkeypatch):
        runtime = store.runtime
        store.set(b"k", b"v")

        def broken():
            raise RuntimeError("read failed")

        hook_lookup(monkeypatch, store, b"k", broken)
        # Scopes 1..63 are inline, scope 64 is sampled and goes through
        # enter_scope and exit_scope.
        for _ in range(SCOPE_SAMPLE_MASK + 1):
            with pytest.raises(RuntimeError):
                store.get(b"k")
            assert runtime.scope.depth == 0
            assert runtime.tai.converged(-1)  # every slot is empty
        assert runtime.scope.tls.scope.outermost == SCOPE_SAMPLE_MASK + 2

    @pytest.mark.parametrize("moment", ["epoch read", "before registration",
                                        "after registration"])
    @pytest.mark.parametrize("op", ["get", "set"])
    def test_window_racing_inline_registration_is_safe(
            self, store, monkeypatch, hook_slot_append, op, moment):
        """A window that begins while an op registers its scope inline
        either waits for that scope or sees the op tracked, never converges
        past an untracked one.  The window begins as the op reads the
        epoch (after its check that tracking is off), or just before or
        just after the op appends to its TAI slot."""
        runtime = store.runtime
        state, collector = runtime.epoch_state, runtime.collector
        if moment == "epoch read":
            arm = hook_epoch_read(monkeypatch, state)
        else:
            arm = hook_slot_append(runtime.tai,
                                   moment == "before registration")
        store.set(b"k", b"v")  # the thread's first scope, which is sampled
        entry = entry_of(store, b"k")
        outcome = {}

        def window_begins():
            collector.begin_epoch()
            outcome["converged"] = collector.await_convergence(0.05)

        used = record_uses(monkeypatch, runtime.scope)
        arm(window_begins)
        if op == "get":
            assert store.get(b"k") == b"v"
        else:
            store.set(b"k", b"v2")
            assert store.get(b"k") == b"v2"
        if moment == "after registration":
            assert not outcome["converged"]  # waited for the open scope
        else:
            assert outcome["converged"] and state.phase == Phase.ACTIVE
            assert set(used) == {entry, entry + 1}
        assert runtime.scope.depth == 0
        assert all(word_atc(w) == 0 for w in runtime.registry.words)
        assert runtime.tai.converged(state.epoch)
        runtime.audit()


class TestOneFrameGet:
    """`get` looks up the entry, loads both words, reads the value slot and
    appends the access-log pairs in one frame, holding no store lock.  A
    word without the accessed bit, or with a migration lock, it stores back
    inline with the bit set and the lock clear, and a missing slot or a
    moved word it reads again in the same frame.  Runs on the hash map; the
    subclass below runs every test on the skip list."""

    structure = "hashmap"

    def setup(self, **options):
        runtime = TierRuntime(region_length=1 << 24, scan_interval_s=120.0,
                              **options)
        store = make_store(runtime, self.structure)
        store.set(b"k", b"value")  # the thread's first scope: sampled
        store.set(b"other", b"w")
        return runtime, store

    def test_warm_get_reads_the_slot_holding_no_store_lock(self, hook_slots):
        """The skip list's one writer lock is free while a get reads; the
        hash map has no store lock at all.  The arena's `word_lock`, which
        the store keeps for first touches, is no store lock, and a warm
        get does not take it either."""
        runtime, store = self.setup()
        word_lock = runtime.registry.word_lock
        locks = [value for value in vars(store).values()
                 if isinstance(value, LOCK_TYPE) and value is not word_lock]
        assert len(locks) == (self.structure == "skiplist")
        held = []
        hook_slots(store, lambda: held.append(
            [lock.locked() for lock in locks + [word_lock]]))
        assert store.get(b"k") == b"value"
        assert held == [[False] * (len(locks) + 1)]
        entry, words = entry_of(store, b"k"), runtime.registry.words
        assert runtime.access_log.pending[-4:] == [
            words[entry] & LOCATOR_MASK, 1,
            words[entry + 1] & LOCATOR_MASK, 5]

    def test_first_touch_sets_the_accessed_bit_inline(self, monkeypatch):
        """The window clears the accessed bits, so the next get stores
        them back itself, with no `registry.dereference`, and returns the
        value; the next window sees that access, and the get after it is
        warm again."""
        runtime, store = self.setup()
        registry = runtime.registry
        entry, other = entry_of(store, b"k"), entry_of(store, b"other")
        guides = (entry, entry + 1)
        runtime.collector.run_scan_window()
        words = registry.words
        aged = [words[guide] for guide in guides]
        assert not any(word & ACCESSED_BIT for word in aged)
        derefs = []
        monkeypatch.setattr(registry, "dereference", derefs.append)
        assert store.get(b"k") == b"value"
        assert derefs == []
        assert [words[guide] for guide in guides] == [
            word | ACCESSED_BIT for word in aged]
        assert store.get(b"k") == b"value"
        runtime.collector.run_scan_window()
        assert [unpack(words[guide]).ciw for guide in guides] == [0, 0]
        assert unpack(words[other + 1]).ciw == 1
        assert derefs == []
        runtime.audit()

    @pytest.mark.parametrize("role", ["key_guide", "value_guide"])
    def test_locked_word_is_unlocked_inline(self, role):
        """A first touch of a word under a migration lock sets the
        accessed bit, clears the lock and returns the value, in the get's
        own frame."""
        runtime, store = self.setup()
        registry = runtime.registry
        guide = entry_of(store, b"k") + ROLE_OFFSET[role]
        runtime.collector.run_scan_window()
        word = registry.words[guide]
        locked = word | LOCK_BIT
        assert registry.compare_and_swap(guide, word, locked)
        assert store.get(b"k") == b"value"
        assert registry.words[guide] == (word | ACCESSED_BIT)
        assert not registry.compare_and_swap(guide, locked, word)
        runtime.audit()

    @pytest.mark.parametrize(
        "moment, registration",
        [(moment, registration) for registration in ("inline", "enter_scope")
         for moment in ("before lookup", "after lookup")],
        # The inline cases keep the ids they had before `registration`.
        ids=["before lookup", "after lookup", "before lookup-enter_scope",
             "after lookup-enter_scope"])
    def test_value_moved_mid_read_runs_read(self, monkeypatch, hook_slots,
                                            moment, registration):
        """A migration commits the value word to HOT while the get reads
        its slot dict: before the lookup the slot is gone, after it the
        re-check finds the word moved.  Either way the get reads the new
        slot, and the log names it, whether its scope registers inline or
        through `enter_scope`."""
        runtime, store = self.setup()
        if registration == "enter_scope":
            monkeypatch.setattr(tierheap.store, "SCOPE_SAMPLE_MASK", 0)
        entries = []
        real_enter = runtime.scope.enter_scope

        def counted_enter():
            entries.append(1)
            return real_enter()

        monkeypatch.setattr(runtime.scope, "enter_scope", counted_enter)
        entry = entry_of(store, b"k")
        moved = []
        hook_slots(store,
                   lambda: moved.append(move_slot(runtime, entry + 1)),
                   after=moment == "after lookup")
        assert store.get(b"k") == b"value"
        assert len(moved) == 1
        assert len(entries) == (registration == "enter_scope")
        assert runtime.access_log.pending[-2:] == [moved[0], 5]
        assert word_heap(runtime.registry.words[entry + 1]) \
            is HeapId.HOT
        runtime.audit()

    def test_warm_get_folds_a_full_access_log(self, monkeypatch):
        runtime, store = self.setup()
        log = runtime.access_log
        log.pending.extend([0, 1] * ((FOLD_LENGTH - 4 - len(log.pending))
                                     // 2))
        folds = []
        real_record = log.record

        def counted_record(*pairs):
            folds.append((pairs, len(log.pending)))
            real_record(*pairs)

        monkeypatch.setattr(log, "record", counted_record)
        assert store.get(b"k") == b"value"
        assert folds == [((), FOLD_LENGTH)]
        assert log.pending == []

    def test_missing_key_logs_nothing(self):
        runtime, store = self.setup()
        pending = list(runtime.access_log.pending)
        assert store.get(b"missing") is None
        assert runtime.access_log.pending == pending

    def test_without_an_access_log(self):
        runtime, store = self.setup(track_access_log=False)
        assert runtime.access_log is None
        assert store.get(b"k") == b"value"
        runtime.collector.run_scan_window()
        assert store.get(b"k") == b"value"  # a first touch
        runtime.audit()

    def test_read_stream_logs_as_the_read_path(self, monkeypatch):
        """A stream of gets, sets and deletes with scan windows between
        them gives the same results, words and access-log entries whether
        its operations register their scopes inline or through
        `enter_scope`."""
        outcomes = []
        for inline in (True, False):
            if not inline:
                monkeypatch.setattr(tierheap.store, "SCOPE_SAMPLE_MASK", 0)
            runtime = make_runtime()
            store = make_store(runtime, self.structure)
            get = store.get
            rng = random.Random(7)
            results = []
            for i in range(3000):
                key = b"key-%03d" % rng.randrange(80)
                roll = rng.random()
                if roll < 0.8:
                    results.append(get(key))
                elif roll < 0.95:
                    store.set(key, key * rng.randrange(1, 40))
                else:
                    results.append(store.delete(key))
                if i % 400 == 399:
                    runtime.collector.run_scan_window()
            runtime.audit()
            outcomes.append((results, list(runtime.registry.words),
                             runtime.access_log.entries()))
        assert outcomes[0] == outcomes[1]
        assert sum(r is not None for r in outcomes[0][0]) > 1000


class TestOneFrameGetSkipList(TestOneFrameGet):
    structure = "skiplist"


class TestDirectWrites:
    """Inserts, updates and deletes install, write and free slots through
    the heap regions themselves (`RegionManager.heaps`), create an entry's
    two guides as one adjacent pair (`registry.create`) and retire them as
    one (`registry.retire`, which stores both tombstones)."""

    def test_writes_call_no_manager_or_single_guide_method(self, store,
                                                           monkeypatch):
        """No write calls a `RegionManager` method.  Each insert makes one
        `registry.create` call and each delete one `registry.retire`, both
        looked up on the registry at call time, so wrappers installed
        after the store was made see them all."""
        def refuse(*args, **kwargs):
            raise AssertionError("called on a write path")

        for name in ("allocate", "write", "free", "_region_of"):
            monkeypatch.setattr(RegionManager, name, refuse)
        runtime = store.runtime
        registry, calls = runtime.registry, Counter()
        for name in ("create", "retire"):
            def counted(*args, _call=getattr(registry, name), _name=name):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(registry, name, counted)
        store.set(b"k", b"one")  # insert
        store.set(b"other", b"x")
        entry = entry_of(store, b"k")
        store.set(b"k", b"two")  # update
        assert store.get(b"k") == b"two"
        assert entry_of(store, b"k") == entry
        assert store.delete(b"k") is True
        assert store.get(b"k") is None and store.get(b"other") == b"x"
        words = runtime.registry.words
        assert [word_heap(words[guide]) for guide in
                (entry, entry + 1)] == [HeapId.RESERVED] * 2
        assert runtime.registry.live_count == 2
        assert runtime.regions.live_slot_count() == 2
        runtime.audit()
        store.set(b"k", b"three")  # fresh guides: the old are still parked
        runtime.registry.reclaim_retired()
        store.set(b"new", b"four")
        new = entry_of(store, b"new")  # reuses the reclaimed guides
        assert new == entry
        assert store.get(b"k") == b"three" and store.get(b"new") == b"four"
        assert calls == {"create": 4, "retire": 1}
        runtime.audit()

    @pytest.mark.parametrize("heap", [HeapId.HOT, HeapId.COLD],
                             ids=["HOT", "COLD"])
    def test_same_length_update_stores_into_the_value_slot(
            self, store, monkeypatch, heap):
        """A value of the current payload's length is stored into the slot
        the value guide names, here moved to HOT or COLD and locked by a
        migration: the locator and heap stay, the accessed bit is set, the
        migration lock is cleared, the live bytes and slots are unchanged,
        and no slot is installed or freed and no word CASed."""
        runtime = store.runtime
        registry, regions = runtime.registry, runtime.regions
        store.set(b"k", b"old-value")
        entry = entry_of(store, b"k")
        guide = entry + 1
        locator = move_slot(runtime, guide, heap)
        word = registry.words[guide]
        assert registry.compare_and_swap(
            guide, word, (word & ~ACCESSED_BIT) | LOCK_BIT)
        live_bytes = [region.live_bytes for region in regions.heaps]
        live_slots = regions.live_slot_count()
        calls = count_slot_calls(monkeypatch, runtime)
        store.set(b"k", b"new-value")
        assert calls == Counter()
        fields = unpack(registry.words[guide])
        assert fields.locator == locator and fields.heap is heap
        assert fields.accessed and not fields.migration_lock
        assert regions.read(locator) == b"new-value"
        assert store.get(b"k") == b"new-value"
        assert [region.live_bytes for region in regions.heaps] == live_bytes
        assert regions.live_slot_count() == live_slots
        key_loc = registry.words[entry] & LOCATOR_MASK
        assert runtime.access_log.pending[-8:-4] == [key_loc, 1, locator, 9]
        runtime.audit()

    def test_other_length_update_swings_the_word_to_a_new_slot(
            self, store, monkeypatch):
        """A value of another length is installed in a fresh NEW slot, the
        word is swung to it by one `compare_and_swap`, and the old slot is
        freed."""
        runtime = store.runtime
        registry, regions = runtime.registry, runtime.regions
        store.set(b"k", b"old")
        guide = entry_of(store, b"k") + 1
        old_loc = move_slot(runtime, guide)
        calls = count_slot_calls(monkeypatch, runtime)
        store.set(b"k", b"new-value")
        assert calls == {"install": 1, "compare_and_swap": 1, "free": 1}
        fields = unpack(registry.words[guide])
        assert fields.heap is HeapId.NEW and fields.locator != old_loc
        assert regions.read(fields.locator) == b"new-value"
        with pytest.raises(RegionError):
            regions.read(old_loc)
        assert store.get(b"k") == b"new-value"
        runtime.audit()

    def test_insert_of_an_unstorable_value_leaves_nothing(self, store):
        runtime = store.runtime
        with pytest.raises(RegionError, match="largest size class"):
            store.set(b"k", bytes(SIZE_CLASSES[-1] + 1))
        assert store.get(b"k") is None
        assert runtime.regions.live_slot_count() == 0
        assert runtime.registry.live_count == 0
        runtime.audit()

    def test_create_reuses_the_last_freed_pair_else_appends(self):
        """With no freed pair, `create` appends both words, at
        `(len(words), len(words) + 1)`; freed pairs are reused last freed
        first.  A RESERVED word in either place raises and creates
        nothing."""
        registry = GuideRegistry()
        for locator in range(3):
            registry.create(pack(locator * 32), pack(locator * 32 + 16))
        words = [pack(96), pack(112)]
        assert registry.create(*words) == 6
        assert registry.words[6:].tolist() == words
        for pair in ((pack(0), pack(0, heap=HeapId.RESERVED)),
                     (pack(0, heap=HeapId.RESERVED), pack(0))):
            with pytest.raises(ValueError, match="RESERVED"):
                registry.create(*pair)
        assert len(registry.words) == 8  # nothing created
        for g in (4, 0, 2):
            registry.retire(g)
        registry.reclaim_retired()
        assert [registry.create(pack(0), pack(16)) for _ in range(4)] \
            == [2, 0, 4, 8]
        registry.audit()

    def test_pair_is_parked_whole_until_both_words_drain(self):
        """A deleted pair whose value word still carries ATC stays parked
        whole through `reclaim_retired`, key word included, and `create`
        appends meanwhile; once both words drain, `create` reuses the
        pair."""
        registry = GuideRegistry()
        g = registry.create(pack(0x40), pack(0x80))
        registry.atc_increment(g + 1)  # a scope still holds the value
        registry.retire(g)
        assert registry.live_count == 0
        registry.reclaim_retired()
        assert registry.graveyard_mark() == 1  # the pair, as one item
        assert registry.create(pack(0x100), pack(0x140)) == 2
        registry.audit()
        registry.atc_decrement(g + 1)
        registry.reclaim_retired()
        assert registry.graveyard_mark() == 0
        assert registry.create(pack(0x200), pack(0x240)) == g
        assert [registry.words[i] for i in (g, g + 1)] == [pack(0x200),
                                                          pack(0x240)]
        assert registry.live_count == 4
        registry.audit()

    def test_delete_in_a_tracked_scope_keeps_its_atc(self, store):
        """A delete inside an open tracked scope tombstones both words with
        the scope's ATC kept, so the scope's exit balances its decrements
        and only then can the guides be reclaimed."""
        runtime = store.runtime
        registry = runtime.registry
        store.set(b"k", b"v")
        entry = entry_of(store, b"k")
        guides = (entry, entry + 1)
        runtime.epoch_state.tracking_enabled = True
        runtime.scope.enter_scope()
        try:
            assert store.delete(b"k") is True
            assert [unpack(registry.words[guide]) for guide in guides] == [
                GuideWord(0, atc=1, heap=HeapId.RESERVED)] * 2
            registry.reclaim_retired()
            assert registry.graveyard_mark() == 1  # the pair, still parked
        finally:
            runtime.scope.exit_scope()
        assert [registry.words[guide] for guide in guides] == [
            pack(0, heap=HeapId.RESERVED)] * 2
        registry.reclaim_retired()
        assert registry.graveyard_mark() == 0
        runtime.audit()


class TestConcurrency:
    def test_concurrent_set_get_returns_intact_values(self, store):
        """Three readers get one key that a writer keeps setting, while a
        collector thread runs scan windows, so gets also meet first
        touches, moved words and migrations: every get returns an intact
        value, never None."""
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
                if value is None or not verify(value):
                    failures.append(value)

        def collector():
            while not stop.is_set():
                store.runtime.collector.run_scan_window()

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=collector)] + \
            [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for t in threads:
                t.join(30.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert len(store.runtime.collector.reports) >= 2
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

    def test_writers_of_the_same_keys_leave_one_entry_each(self, store):
        """Four threads set, get and delete the same eight keys at a short
        switch interval, so lookups, installs, updates and removes of one
        key interleave: every get returns its own key's value, and
        afterwards each key has at most one entry, whose two slots and
        guides are the only ones live."""
        keys = [b"shared-%d" % i for i in range(8)]
        errors = []

        def body(worker):
            rng = random.Random(worker)
            try:
                for i in range(2000):
                    key = rng.choice(keys)
                    roll = rng.random()
                    if roll < 0.5:
                        store.set(key, key + b"/%d/%d" % (worker, i))
                    elif roll < 0.8:
                        value = store.get(key)
                        assert value is None or value.startswith(key + b"/")
                    else:
                        store.delete(key)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=body, args=(w,))
                   for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        runtime = store.runtime
        live = [key for key in keys if store.get(key) is not None]
        assert len(store) == len(live)
        assert runtime.regions.live_slot_count() == 2 * len(live)
        assert runtime.registry.live_count == 2 * len(live)
        runtime.audit()


class TestWriteRaces:
    """Both structures run one write protocol over their key index: an
    insert that loses its install to another set retires its own entry,
    and an update that finds its entry tombstoned inserts anew."""

    def test_same_key_insert_race_keeps_one_entry(self, store, monkeypatch):
        """A set of the same key lands between an insert's first lookup
        and its install: the later install finds that entry, retires its
        own, and its value wins."""
        runtime = store.runtime
        real_make_entry = store._make_entry
        nested = []

        def racing_make_entry(key, value, tracked):
            if not nested:
                nested.append(key)
                store.set(key, b"inner")
            return real_make_entry(key, value, tracked)

        monkeypatch.setattr(store, "_make_entry", racing_make_entry)
        store.set(b"k", b"outer")
        assert nested == [b"k"]
        assert store.get(b"k") == b"outer"
        assert len(store) == 1
        assert runtime.registry.live_count == 2  # one key + one value guide
        assert runtime.regions.live_slot_count() == 2
        runtime.registry.reclaim_retired()
        runtime.audit()

    def test_set_racing_a_delete_of_its_entry_inserts_anew(
            self, store, monkeypatch):
        """A delete retires the entry that a set of the same key found,
        between the set's lookup and its value swing: the set must not
        revive the tombstone, and inserts the key again instead."""
        runtime = store.runtime
        store.set(b"k", b"old")
        real_update = store._update
        deleted = []

        def racing_update(entry, key_len, value, tracked):
            if not deleted:
                deleted.append(store.delete(b"k"))
            return real_update(entry, key_len, value, tracked)

        monkeypatch.setattr(store, "_update", racing_update)
        store.set(b"k", b"new")
        assert deleted == [True]
        assert store.get(b"k") == b"new"
        assert len(store) == 1
        assert runtime.regions.live_slot_count() == 2
        runtime.audit()

    def test_open_scope_keeps_a_deleted_entry_from_reuse(self, store,
                                                         hook_slots):
        """A get holds an entry that is deleted while its scope is open,
        and a scan window that cannot converge past that scope runs: the
        window must not recycle the entry's guides, or a later insert would
        hand them, and the get, another key's bytes."""
        runtime = store.runtime
        store.set(b"k1", b"v1")
        reports = []

        def racing_delete():
            assert store.delete(b"k1")
            reports.append(runtime.collector.run_scan_window())
            store.set(b"k2", b"v2")

        hook_slots(store, racing_delete)
        assert store.get(b"k1") is None
        assert [r.converged for r in reports] == [False]
        assert store.get(b"k2") == b"v2"
        runtime.collector.run_scan_window()  # converges: now they recycle
        store.set(b"k3", b"v3")
        assert runtime.registry.live_count == 4
        assert len(runtime.registry.words) == 4  # k3 took k1's guides
        runtime.audit()

    @pytest.mark.parametrize("op", ["get", "update"])
    def test_a_stale_entry_leaves_its_tombstone_as_it_is(
            self, store, monkeypatch, op):
        """A get whose lookup ran before a delete retired the entry, or an
        update that reaches the retired entry, finds both words tombstoned
        and never touched since: it writes neither word, logs nothing and
        leaves no new slot live."""
        runtime = store.runtime
        store.set(b"k", b"value")
        entry = entry_of(store, b"k")
        assert store.delete(b"k")
        words, log = runtime.registry.words, runtime.access_log
        pending = list(log.pending)
        live = runtime.regions.live_slot_count()
        if op == "get":
            monkeypatch.setattr(store, "_entry", lambda key: entry)
            assert store.get(b"k") is None
        else:
            assert not store._update(entry, 1, b"new", False)
        assert [words[entry], words[entry + 1]] == [TOMBSTONE_BASE] * 2
        assert log.pending == pending
        assert runtime.regions.live_slot_count() == live
        runtime.audit()


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

    def test_get_rereads_a_value_slot_reused_mid_read(self, hook_slots):
        """While get reads the value slot, a set of the same key frees it
        and the next allocation reuses it for other bytes: get still
        returns the intact current value.  The old value's length differs
        from the new one's, so the set swings the word to a fresh slot
        instead of storing into this one."""
        runtime = make_runtime()
        store = GuideSkipList(runtime)
        store.set(b"k", b"old")
        regions = runtime.regions
        locator = runtime.registry.words[
            entry_of(store, b"k") + 1] & LOCATOR_MASK
        raced = []

        def racing_set():
            store.set(b"k", b"new-value")  # frees the slot being read
            raced.append(regions.heaps[HeapId.NEW].install(b"other-key"))

        hook_slots(store, racing_set)
        assert store.get(b"k") == b"new-value"
        assert raced == [locator]
        assert regions.read(locator) == b"other-key"

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

    def test_baseline_is_one_dict_of_exact_bytes(self):
        """The baseline holds no lock: `set` stores the key and value as
        exact `bytes`, so each call is one atomic dict step."""
        store = make_store(make_runtime(), baseline=True)
        assert not [value for value in vars(store).values()
                    if isinstance(value, LOCK_TYPE)]
        store.set(bytearray(b"k"), memoryview(b"v"))
        assert list(store._data.items()) == [(b"k", b"v")]
        assert [type(item) for item in store._data.popitem()] == [bytes,
                                                                  bytes]


def entry_of(store, key: bytes):
    """The live entry of `key` in either structure: its key guide, whose
    value guide is the next index."""
    return store._entry(key)


def hook_lookup(monkeypatch, store, key: bytes, hook) -> None:
    """Run `hook()` each time an op looks up `key`'s entry through the
    structure's `_entry`, before the lookup."""
    real_entry = store._entry

    def hooked_entry(k):
        if k == key:
            hook()
        return real_entry(k)

    monkeypatch.setattr(store, "_entry", hooked_entry)


def move_slot(runtime, guide: int, heap: HeapId = HeapId.HOT) -> int:
    """The collector's two-CAS move of `guide`'s slot into `heap`; returns
    the new locator."""
    registry, regions = runtime.registry, runtime.regions
    word = registry.words[guide]
    locked = word | LOCK_BIT
    assert registry.compare_and_swap(guide, word, locked)
    old = word & LOCATOR_MASK
    new = regions.heaps[heap].install(regions.read(old))
    assert registry.compare_and_swap(guide, locked, pack(new, heap=heap))
    regions.free(old)
    return new


def count_slot_calls(monkeypatch, runtime) -> Counter:
    """Count each heap region's `install` and `free` calls and the
    registry's `compare_and_swap` calls from here on, by name."""
    calls = Counter()

    def counting(owner, name):
        call = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(owner, name, counted)

    for region in runtime.regions.heaps:
        counting(region, "install")
        counting(region, "free")
    counting(runtime.registry, "compare_and_swap")
    return calls


def record_uses(monkeypatch, scope) -> list[int]:
    """Collect every guide index passed to `scope.record_guide_use`."""
    record = scope.record_guide_use
    used: list[int] = []

    def counted(index):
        used.append(index)
        record(index)

    monkeypatch.setattr(scope, "record_guide_use", counted)
    return used


def hook_epoch_read(monkeypatch, state):
    """Run a hook once, on the next read of `state.epoch`, before the read
    returns; returns `arm(hook)`."""
    armed = []

    class HookedEpochState(EpochState):
        __slots__ = ()

        @property
        def epoch(self):
            if armed:
                armed.pop()()
            return EpochState.epoch.__get__(self)

        @epoch.setter
        def epoch(self, value):
            EpochState.epoch.__set__(self, value)

    monkeypatch.setattr(state, "__class__", HookedEpochState)
    return armed.append


def checksummed(i: int) -> bytes:
    body = b"payload-%09d" % i
    return body + zlib.crc32(body).to_bytes(4, "big")


def verify(value: bytes) -> bool:
    return zlib.crc32(value[:-4]).to_bytes(4, "big") == value[-4:]


def test_unknown_structure_rejected():
    with pytest.raises(ValueError):
        make_store(make_runtime(), "btree")
