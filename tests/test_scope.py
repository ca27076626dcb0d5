"""Scope guards, the base+delta used-guide set, and the TAI."""
import random
import sys
import threading

import pytest

from tierheap import scope as scope_module
from tierheap.collector import Collector
from tierheap.guideword import pack, word_atc
from tierheap.runtime import GuideRegistry
from tierheap.scope import (BaseDeltaSet, EpochState, Phase, ScopeError,
                            ScopeManager, ThreadActivityIndex)


class TestBaseDeltaSet:
    def test_basic_membership(self):
        s = BaseDeltaSet()
        assert s.add(10)
        assert not s.add(10)
        assert 10 in s and 11 not in s
        assert len(s) == 1

    def test_nearby_values_share_a_group(self):
        s = BaseDeltaSet()
        for v in range(100, 116):
            s.add(v)
        assert s.group_count == 1
        s.add(116)  # 17th value overflows the 16-delta group
        assert s.group_count == 2

    def test_distant_values_get_new_groups(self):
        s = BaseDeltaSet()
        s.add(0)
        s.add(1 << 33)  # outside the 32-bit delta range
        assert s.group_count == 2

    def test_out_of_range_rejected(self):
        s = BaseDeltaSet()
        with pytest.raises(ValueError):
            s.add(1 << 48)
        with pytest.raises(ValueError):
            s.add(-1)

    def test_iteration_and_clear(self):
        s = BaseDeltaSet()
        values = {5, 6, 1000, 2 ** 40}
        for v in values:
            s.add(v)
        assert set(s) == values
        s.clear()
        assert len(s) == 0 and 5 not in s

    def test_fuzz_against_reference_set(self):
        rng = random.Random(6)
        s, reference = BaseDeltaSet(), set()
        for _ in range(20_000):
            # Mix clustered and scattered values to exercise group packing.
            if rng.random() < 0.7:
                v = rng.randrange(0, 4096)
            else:
                v = rng.getrandbits(48)
            assert s.add(v) == (v not in reference)
            reference.add(v)
        assert len(s) == len(reference)
        assert set(s) == reference
        for _ in range(2000):
            v = rng.getrandbits(48)
            assert (v in s) == (v in reference)


class TestThreadActivityIndex:
    def test_enter_exit_counts(self):
        tai = ThreadActivityIndex(16)
        tai.slots[1].append(5)
        assert not tai.converged(6)
        tai.slots[1].remove(5)
        assert tai.converged(6)  # empty slots are ignored

    def test_exit_without_enter_raises(self):
        """`exit_scope` raises ScopeError when the slot no longer holds the
        scope's epoch, and leaves the slot's other epochs alone."""
        _, scopes, _ = make_scope_env(epoch=7)
        scope = scopes.enter_scope()
        scope.slot.remove(7)
        scope.slot.append(8)  # an epoch the scope never entered
        with pytest.raises(ScopeError):
            scopes.exit_scope()
        assert scope.slot == [8]

    def test_collision_merge_waits_for_all(self):
        """A shared slot holds back a window exactly as long as one of its
        scopes entered under an older epoch."""
        tai = ThreadActivityIndex(1)  # every thread collides
        slot = tai.slots[0]
        slot.append(7)
        slot.append(7)
        assert tai.converged(7)
        slot.append(8)
        assert not tai.converged(8)
        slot.remove(7)
        assert not tai.converged(8)  # one scope of epoch 7 is still open
        slot.remove(7)
        assert tai.converged(8)  # no need to wait for the slot to drain
        assert slot == [8]
        slot.remove(8)
        assert tai.converged(9)

    def test_shared_slot_under_thread_switches(self):
        """Four threads open and close scopes under the new epoch on one
        shared slot while an older scope opens and closes among them; no
        converged() reading may miss the older scope."""
        registry = GuideRegistry()
        state = EpochState()
        state.epoch = 2
        tai = ThreadActivityIndex(1)
        scope = ScopeManager(registry, tai, state)
        stop = threading.Event()
        errors = []

        def worker():
            try:
                while not stop.is_set():
                    scope.enter_scope()
                    scope.exit_scope()
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=worker) for _ in range(4)]
        early = 0
        try:
            for t in threads:
                t.start()
            for _ in range(400):
                tai.slots[0].append(1)  # an old-epoch scope, among theirs
                for _ in range(1000):
                    early += tai.converged(2)
                tai.slots[0].remove(1)
                assert tai.converged(2)  # only new-epoch scopes are open
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert early == 0
        assert tai.converged(-1)  # every slot is empty

    def test_slots_assigned_in_order(self):
        tai = ThreadActivityIndex(4)
        assert [tai.assign_slot() for _ in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_slot_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ThreadActivityIndex(12)


def make_scope_env(tracking=False, epoch=0):
    registry = GuideRegistry()
    state = EpochState()
    state.epoch = epoch
    state.tracking_enabled = tracking
    tai = ThreadActivityIndex(16)
    return registry, ScopeManager(registry, tai, state), state


class TestScopeManager:
    def test_nesting_single_outermost(self, tai_calls):
        registry, scope, _ = make_scope_env()
        calls = tai_calls(scope.tai)
        scope.enter_scope()
        scope.enter_scope()
        scope.exit_scope()
        assert scope.in_scope()
        scope.exit_scope()
        assert not scope.in_scope()
        assert calls == {"enter": 1, "exit": 1}

    def test_unbalanced_exit_raises(self):
        _, scope, _ = make_scope_env()
        with pytest.raises(ScopeError):
            scope.exit_scope()

    def test_guide_use_outside_scope_raises(self):
        registry, scope, _ = make_scope_env()
        index = registry.create(pack(0x10), pack(0x20))
        with pytest.raises(ScopeError):
            scope.record_guide_use(index)

    def test_atc_tracked_exactly_once_per_scope(self):
        registry, scope, _ = make_scope_env(tracking=True)
        index = registry.create(pack(0x10), pack(0x20))
        scope.enter_scope()
        for _ in range(5):
            scope.record_guide_use(index)
        assert word_atc(registry.words[index]) == 1
        scope.exit_scope()
        assert word_atc(registry.words[index]) == 0

    def test_atc_once_per_scope_across_nesting(self):
        registry, scope, _ = make_scope_env(tracking=True)
        guides = [registry.create(pack(0x20 * i), pack(0x20 * i + 0x10))
                  for i in range(3)]

        def atcs():
            return [word_atc(registry.words[g]) for g in guides]

        for _ in range(2):  # a second scope tracks afresh
            scope.enter_scope()
            for g in guides:
                scope.record_guide_use(g)
            scope.enter_scope()
            for g in guides + guides:
                scope.record_guide_use(g)
            scope.exit_scope()
            assert atcs() == [1, 1, 1]  # inner exit keeps the debt
            scope.exit_scope()
            assert atcs() == [0, 0, 0]

    def test_no_used_set_without_tracking_or_sampling(self, monkeypatch):
        created = []

        class CountingSet(BaseDeltaSet):
            def __init__(self):
                created.append(self)
                super().__init__()

        monkeypatch.setattr(scope_module, "BaseDeltaSet", CountingSet)
        registry, scope, state = make_scope_env(tracking=False)
        index = registry.create(pack(0x10), pack(0x20))
        for _ in range(3):
            scope.enter_scope()
            scope.record_guide_use(index)
            scope.exit_scope()
        assert created == []
        state.tracking_enabled = True
        scope.enter_scope()
        scope.record_guide_use(index)
        scope.exit_scope()
        assert len(created) == 1

    @pytest.mark.parametrize("before_registration", [True, False])
    def test_window_racing_scope_entry_is_safe(self, before_registration,
                                               hook_slot_append):
        """A window that begins while a scope registers in the TAI either
        waits for that scope or sees it tracked, never converges past an
        untracked one."""
        registry = GuideRegistry()
        state = EpochState()
        outcome = {}
        tai = ThreadActivityIndex(16)
        arm = hook_slot_append(tai, before_registration)
        scope = ScopeManager(registry, tai, state)
        collector = Collector(registry, None, tai, state)

        def window_begins():
            collector.begin_epoch()
            outcome["converged"] = collector.await_convergence(0.05)

        arm(window_begins)
        index = registry.create(pack(0x10), pack(0x20))
        scope.enter_scope()
        scope.record_guide_use(index)
        if before_registration:
            assert outcome["converged"] and state.phase == Phase.ACTIVE
            assert word_atc(registry.words[index]) == 1  # tracked
        else:
            assert not outcome["converged"]  # waited for the open scope
        scope.exit_scope()
        assert word_atc(registry.words[index]) == 0
        assert tai.converged(state.epoch)

    def test_no_atc_when_tracking_disabled(self):
        registry, scope, _ = make_scope_env(tracking=False)
        index = registry.create(pack(0x10), pack(0x20))
        scope.enter_scope()
        scope.record_guide_use(index)
        assert word_atc(registry.words[index]) == 0
        scope.exit_scope()

    def test_tracking_sampled_at_outermost_entry(self):
        registry, scope, state = make_scope_env(tracking=False)
        index = registry.create(pack(0x10), pack(0x20))
        scope.enter_scope()
        state.tracking_enabled = True  # flipped mid-scope: entry view holds
        scope.record_guide_use(index)
        assert word_atc(registry.words[index]) == 0
        scope.exit_scope()

    def test_tai_registration_uses_entry_epoch(self):
        registry, scope, state = make_scope_env(epoch=4)
        scope.enter_scope()
        state.epoch = 5
        assert not scope.tai.converged(5)  # still registered under epoch 4
        scope.exit_scope()
        assert scope.tai.converged(5)

    def test_threads_are_independent(self):
        registry, scope, _ = make_scope_env(tracking=True)
        index = registry.create(pack(0x10), pack(0x20))
        scope.enter_scope()
        scope.record_guide_use(index)
        errors = []

        def other():
            try:
                scope.record_guide_use(index)
            except ScopeError:
                errors.append("no-scope")

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert errors == ["no-scope"]  # other thread has no open scope
        scope.exit_scope()


class TestPhaseEnum:
    def test_phase_values(self):
        assert list(Phase) == [Phase.INACTIVE, Phase.PREPARE, Phase.ACTIVE]
