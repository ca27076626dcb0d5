"""Thread-local scope guards, the compact used-guide set, and the TAI.

Every public store operation runs inside a scope.  The outermost entry
registers the thread in the Thread Activity Index (TAI) under the global
epoch and samples whether ATC tracking is on.  While it is, guide uses are
collected in a base+delta set and increment the guide's active-thread count
exactly once per scope; the matching decrements happen when the outermost
scope exits.  With tracking off a scope keeps no used-guide set at all,
and since `enter_scope` returns the thread's scope record, a caller that
finds its `used` set None skips recording guide uses altogether.

Registration takes no lock: a TAI slot is a list of the entry epochs of
its open scopes, and entering or leaving one is a single list append or
remove, which the interpreter lock makes atomic.  Each thread's record
holds its slot list, so `enter_scope` and `exit_scope` append and remove
there directly.  Scope durations, which size the collector's convergence
wait, are timed on every 64th outermost scope of a thread only.

The guided stores run the common outermost scope inline instead of
calling `enter_scope` and `exit_scope`: one that tracks no ATC, whose
epoch holds across the registration, and that is not sampled for timing.
They follow the same order (append to the slot, then read the tracking
flag and the epoch again) and fall back to the two calls in any other
case, so the two paths register identically.
"""
from __future__ import annotations

import itertools
import threading
import time
from bisect import bisect_right
from enum import IntEnum


class Phase(IntEnum):
    INACTIVE = 0
    PREPARE = 1
    ACTIVE = 2


class EpochState:
    """Collector-published epoch number, phase, and ATC-tracking flag.

    Written only by the collector thread; read without locks by mutators.
    A mutator that races a transition keeps its entry-time view for the whole
    scope, and the convergence protocol waits such scopes out.
    """

    __slots__ = ("epoch", "phase", "tracking_enabled")

    def __init__(self):
        self.epoch = 0
        self.phase = Phase.INACTIVE
        self.tracking_enabled = False


class ScopeError(RuntimeError):
    pass


class BaseDeltaSet:
    """Set of 48-bit values stored as group bases plus 32-bit deltas.

    Groups hold up to 16 deltas; membership and insertion are O(1) when an
    existing group covers the value, O(log G) plus a bounded backward scan
    otherwise.
    """

    DELTA_RANGE = 1 << 32
    GROUP_CAPACITY = 16

    __slots__ = ("_bases", "_groups", "_size")

    def __init__(self):
        self._bases: list[int] = []
        self._groups: list[set[int]] = []
        self._size = 0

    def add(self, value: int) -> bool:
        """Insert; returns True when the value was newly added."""
        if not 0 <= value < 1 << 48:
            raise ValueError("value outside the 48-bit space")
        bases = self._bases
        i = bisect_right(bases, value)
        low = value - self.DELTA_RANGE
        open_group = -1
        j = i - 1
        while j >= 0 and bases[j] > low:
            if value - bases[j] in self._groups[j]:
                return False
            if open_group < 0 and len(self._groups[j]) < self.GROUP_CAPACITY:
                open_group = j
            j -= 1
        if open_group >= 0:
            self._groups[open_group].add(value - bases[open_group])
        else:
            bases.insert(i, value)
            self._groups.insert(i, {0})
        self._size += 1
        return True

    def __contains__(self, value: int) -> bool:
        bases = self._bases
        j = bisect_right(bases, value) - 1
        low = value - self.DELTA_RANGE
        while j >= 0 and bases[j] > low:
            if value - bases[j] in self._groups[j]:
                return True
            j -= 1
        return False

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        for base, deltas in zip(self._bases, self._groups):
            for delta in deltas:
                yield base + delta

    @property
    def group_count(self) -> int:
        return len(self._bases)

    def clear(self) -> None:
        self._bases.clear()
        self._groups.clear()
        self._size = 0


class ThreadActivityIndex:
    """Fixed array of slots, one handed to each thread; each slot is the
    list of the entry epochs of the scopes open on it.

    `assign_slot` hands slots out in order, so threads share one only when
    more threads than slots have entered scopes.  A scope's registration
    appends its entry epoch to its slot in `slots` and its exit removes it,
    each one list call that the interpreter lock makes atomic, so no slot
    needs a lock.  Equal epochs are interchangeable, which keeps a shared
    slot exact: it holds the epoch of every open scope and nothing else.
    `converged` copies each slot with `tuple()`, since iterating a list
    while another thread removes from it can skip an element.
    """

    def __init__(self, slot_count: int = 256):
        if slot_count <= 0 or slot_count & (slot_count - 1):
            raise ValueError("slot_count must be a power of two")
        self._mask = slot_count - 1
        self.slots: list[list[int]] = [[] for _ in range(slot_count)]
        self._next_slot = itertools.count()

    def assign_slot(self) -> int:
        return next(self._next_slot) & self._mask

    def converged(self, epoch: int) -> bool:
        """True when every open scope entered under `epoch`."""
        for slot in self.slots:
            if slot and any(entered != epoch for entered in tuple(slot)):
                return False
        return True


SCOPE_SAMPLE_MASK = 63  # time one outermost scope in 64 per thread


class ThreadScope:
    """One thread's scope state, read and written by that thread only."""

    __slots__ = ("depth", "used", "atc_recorded", "slot", "epoch",
                 "outermost", "entered_at")

    def __init__(self, slot: list[int]):
        self.depth = 0
        # Both are None unless the open outermost scope tracks ATC.
        self.used: BaseDeltaSet | None = None
        self.atc_recorded: list[int] | None = None
        self.slot = slot  # the thread's TAI slot list
        self.epoch = 0  # registration of a scope enter_scope opened
        self.outermost = 0  # outermost scopes exited so far
        self.entered_at = 0.0  # set only on sampled scopes


class ScopeManager:
    def __init__(self, registry, tai: ThreadActivityIndex,
                 epoch_state: EpochState):
        self._registry = registry
        self.tai = tai
        self.epoch_state = epoch_state
        # `tls.scope` is the calling thread's ThreadScope, once it has one.
        self.tls = threading.local()
        # The longest sampled scope (see SCOPE_SAMPLE_MASK).
        self.max_scope_seconds = 0.0

    def enter_scope(self) -> ThreadScope:
        """Enter a scope; returns the thread's scope record, whose `used`
        is None unless the outermost scope tracks ATC."""
        try:
            scope = self.tls.scope
        except AttributeError:
            tai = self.tai
            scope = self.tls.scope = ThreadScope(
                tai.slots[tai.assign_slot()])
        depth = scope.depth = scope.depth + 1
        if depth == 1:
            state = self.epoch_state
            slot = scope.slot
            # Register before sampling tracking, then re-check the epoch: a
            # window that begins before the registration is seen here and
            # retried under its epoch, and one that begins after it must
            # wait for this scope to exit before it converges.
            epoch = state.epoch
            while True:
                slot.append(epoch)
                tracking = state.tracking_enabled
                current = state.epoch
                if current == epoch:
                    break
                slot.remove(epoch)
                epoch = current
            scope.epoch = epoch
            if tracking:
                scope.used = BaseDeltaSet()
                scope.atc_recorded = []
            if not scope.outermost & SCOPE_SAMPLE_MASK:
                scope.entered_at = time.monotonic()
        return scope

    def record_guide_use(self, index: int) -> None:
        scope = getattr(self.tls, "scope", None)
        if scope is None or scope.depth == 0:
            raise ScopeError("guide use outside any scope")
        used = scope.used
        if used is not None and used.add(index):
            if self._registry.atc_increment(index):
                scope.atc_recorded.append(index)
            # Saturated ATC: the object stays migration-ineligible this
            # epoch anyway, so the scope simply records no debt.

    def exit_scope(self) -> None:
        try:
            scope = self.tls.scope
        except AttributeError:
            raise ScopeError("unbalanced scope exit") from None
        depth = scope.depth
        if depth == 0:
            raise ScopeError("unbalanced scope exit")
        scope.depth = depth - 1
        if depth == 1:
            recorded = scope.atc_recorded
            if recorded is not None:
                decrement = self._registry.atc_decrement
                for index in recorded:
                    decrement(index)
                scope.used = scope.atc_recorded = None
            try:
                scope.slot.remove(scope.epoch)
            except ValueError:
                raise ScopeError("TAI exit without matching enter") from None
            if not scope.outermost & SCOPE_SAMPLE_MASK:
                duration = time.monotonic() - scope.entered_at
                if duration > self.max_scope_seconds:
                    self.max_scope_seconds = duration
            scope.outermost += 1

    @property
    def depth(self) -> int:
        scope = getattr(self.tls, "scope", None)
        return 0 if scope is None else scope.depth

    def in_scope(self) -> bool:
        return self.depth > 0
