"""Guide-managed concurrent key-value stores.

Two structures share the same guide discipline: a striped-lock hash map and
a skip list whose readers take no lock and whose writers link under one
lock, deleting logically.  Every public operation runs inside a scope guard,
every key/value access goes through its guide word, and keys and values are
handed over to region slots as immutable `bytes` (a `bytes` argument itself,
anything else converted), so the runtime owns the authoritative bytes.
Both structures share their public operations through `_GuideOps`: each
registers its scope inline in the common case (see `tierheap.scope`), runs
the structure's body, and does its guided work in one `_GuideOps` method,
which appends the key and value slots to the access log's pending list in
one call.  The hash map's `get` runs all of that in one frame in the common
case.  PlainStore is the untiered baseline for overhead comparisons: a
locked dict with no guides, scopes or regions.
"""
from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass

from .guideword import (ACCESSED_BIT, ATC_FIELD, HEAP_FIELD, LOCATOR_MASK,
                        LOCK_BIT, HeapId)
from .metrics import FOLD_LENGTH
from .regions import RegionError
from .runtime import TierRuntime
from .scope import SCOPE_SAMPLE_MASK

# A hash-map key's stripe is `hash(key) % MAP_STRIPES`: the stripe dict's
# lookup computes that hash anyway and `bytes` caches it, where a CRC-32 of a
# 30 B key costs about 100 ns more.  Stripes only pick a lock, so the
# per-process hash seed changes no layout.
MAP_STRIPES = 64

# A word with exactly ACCESSED_BIT of these set dereferences by a plain load.
_DEREF_BITS = ACCESSED_BIT | LOCK_BIT


@dataclass
class KvEntry:
    __slots__ = ("key_guide", "value_guide")
    key_guide: int
    value_guide: int


class _GuideOps:
    """The public operations and guided paths both store structures share.

    `get`, `set` and `delete` run the structure's `_get`, `_set` or
    `_delete` inside one outermost scope.  In the common case (no scope
    open on the thread, ATC tracking off, the epoch stable across the
    registration, and not the thread's sampled scope) they register it
    inline, in the order `ScopeManager.enter_scope` uses: append the epoch
    to the thread's TAI slot, then read the tracking flag and the epoch
    again.  Any other case goes through `enter_scope` and `exit_scope`.

    The guided paths take one call per operation.  `tracked` says whether
    the caller's scope tracks ATC; only then are guide uses recorded, each
    before its guide is dereferenced.  A word with the accessed bit set and
    no migration lock dereferences by a plain load; any other goes through
    `registry.dereference`.  Access-log pairs are appended to the log's
    pending list in one call, and the log is called only to fold it.  New
    slots are installed with their payload in one region call.
    `StripedGuideMap.get` runs the common case of `get`, `_get` and `_read`
    in one frame of its own.
    """

    def __init__(self, runtime: TierRuntime):
        self.runtime = runtime
        self._scopes = runtime.scope
        self._tls = runtime.scope.tls
        self._epoch_state = runtime.epoch_state
        self._registry = runtime.registry
        self._words = runtime.registry.words
        self._regions = runtime.regions
        self._log = runtime.access_log

    def get(self, key: bytes) -> bytes | None:
        scope, state = getattr(self._tls, "scope", None), self._epoch_state
        if (scope is not None and not scope.depth
                and scope.outermost & SCOPE_SAMPLE_MASK
                and not state.tracking_enabled):
            slot, epoch = scope.slot, state.epoch
            slot.append(epoch)
            if not state.tracking_enabled and state.epoch == epoch:
                scope.depth = 1
                try:
                    return self._get(key, False)
                finally:
                    slot.remove(epoch)
                    scope.depth = 0
                    scope.outermost += 1
            slot.remove(epoch)
        return self._scoped(self._get, key)

    def set(self, key: bytes, value: bytes) -> None:
        if type(key) is not bytes:
            key = bytes(key)
        if type(value) is not bytes:
            value = bytes(value)
        scope, state = getattr(self._tls, "scope", None), self._epoch_state
        if (scope is not None and not scope.depth
                and scope.outermost & SCOPE_SAMPLE_MASK
                and not state.tracking_enabled):
            slot, epoch = scope.slot, state.epoch
            slot.append(epoch)
            if not state.tracking_enabled and state.epoch == epoch:
                scope.depth = 1
                try:
                    return self._set(key, value, False)
                finally:
                    slot.remove(epoch)
                    scope.depth = 0
                    scope.outermost += 1
            slot.remove(epoch)
        return self._scoped(self._set, key, value)

    def delete(self, key: bytes) -> bool:
        scope, state = getattr(self._tls, "scope", None), self._epoch_state
        if (scope is not None and not scope.depth
                and scope.outermost & SCOPE_SAMPLE_MASK
                and not state.tracking_enabled):
            slot, epoch = scope.slot, state.epoch
            slot.append(epoch)
            if not state.tracking_enabled and state.epoch == epoch:
                scope.depth = 1
                try:
                    return self._delete(key, False)
                finally:
                    slot.remove(epoch)
                    scope.depth = 0
                    scope.outermost += 1
            slot.remove(epoch)
        return self._scoped(self._delete, key)

    def _scoped(self, body, *args):
        """`body(*args, tracked)` in a scope that `enter_scope` opens."""
        scopes = self._scopes
        tracked = scopes.enter_scope().used is not None
        try:
            return body(*args, tracked)
        finally:
            scopes.exit_scope()

    def _make_entry(self, key: bytes, value: bytes, tracked: bool) -> KvEntry:
        regions, registry = self._regions, self._registry
        key_loc = regions.install(HeapId.NEW, key)
        key_guide = registry.create(key_loc | ACCESSED_BIT)  # heap=NEW
        value_loc = regions.install(HeapId.NEW, value)
        value_guide = registry.create(value_loc | ACCESSED_BIT)
        if tracked:
            self._scopes.record_guide_use(key_guide)
            self._scopes.record_guide_use(value_guide)
        log = self._log
        if log is not None:
            pending = log.pending
            pending.extend((key_loc, len(key), value_loc, len(value)))
            if len(pending) >= FOLD_LENGTH:
                log.record()  # no pairs: folds the full list
        return KvEntry(key_guide, value_guide)

    def _read(self, entry: KvEntry, key_len: int,
              tracked: bool) -> bytes | None:
        """Touch the key, then read the value slot and confirm the guide
        still names it.

        The hash map reads under the key's stripe lock, which keeps the
        key's setters out, so for it the check costs one word load.  The
        skip list takes no lock, so a racing set may publish a new slot and
        free the one being read, and the next allocation may reuse it at
        once.  If the word moved on, the read is repeated at the new
        locator.  A setter writes its slot before its CAS publishes it, so
        a slot the word still names after the read held this guide's
        value, unless within that window the slot was freed, reused
        elsewhere and then published for this guide again.
        """
        registry, words = self._registry, self._words
        key_guide, guide = entry.key_guide, entry.value_guide
        if tracked:
            self._scopes.record_guide_use(key_guide)
            self._scopes.record_guide_use(guide)
        word = words[key_guide]
        key_loc = (word & LOCATOR_MASK if word & _DEREF_BITS == ACCESSED_BIT
                   else registry.dereference(key_guide))
        word = words[guide]
        locator = (word & LOCATOR_MASK if word & _DEREF_BITS == ACCESSED_BIT
                   else registry.dereference(guide))
        read = self._regions.read
        while True:
            try:
                data = read(locator)
            except RegionError:
                data = None
            word = words[guide]
            if (word & HEAP_FIELD) == HEAP_FIELD:
                data = None  # lost a race with delete; entry is gone
                break
            if word & LOCATOR_MASK == locator:
                break
            locator = registry.dereference(guide)
        log = self._log
        if log is not None:
            pending = log.pending
            pending.extend((key_loc, key_len) if data is None
                           else (key_loc, key_len, locator, len(data)))
            if len(pending) >= FOLD_LENGTH:
                log.record()
        return data

    def _update(self, entry: KvEntry, key_len: int, value: bytes,
                tracked: bool) -> bool:
        """Touch the key, then publish a fresh NEW-heap slot for the value
        via guide CAS.

        Whoever succeeds a CAS frees exactly the slot named by the word it
        replaced, so racing setters and an in-flight migration can never
        free the same slot twice.  A tombstoned word is never replaced: the
        entry was deleted, so the fresh slot is freed and False returned.
        """
        regions, registry, words = self._regions, self._registry, self._words
        key_guide, guide = entry.key_guide, entry.value_guide
        if tracked:
            self._scopes.record_guide_use(key_guide)
            self._scopes.record_guide_use(guide)
        word = words[key_guide]
        key_loc = (word & LOCATOR_MASK if word & _DEREF_BITS == ACCESSED_BIT
                   else registry.dereference(key_guide))
        new_loc = regions.install(HeapId.NEW, value)
        new_base = new_loc | ACCESSED_BIT  # heap=NEW, ciw=0, lock clear
        while True:
            word = words[guide]
            if (word & HEAP_FIELD) == HEAP_FIELD:
                regions.free(new_loc)
                updated = False
                break
            if registry.compare_and_swap(guide, word,
                                         new_base | (word & ATC_FIELD)):
                regions.free(word & LOCATOR_MASK)
                updated = True
                break
        log = self._log
        if log is not None:
            pending = log.pending
            pending.extend((key_loc, key_len, new_loc, len(value)) if updated
                           else (key_loc, key_len))
            if len(pending) >= FOLD_LENGTH:
                log.record()
        return updated

    def _retire_entry(self, entry: KvEntry, tracked: bool) -> None:
        regions, registry = self._regions, self._registry
        for guide in (entry.key_guide, entry.value_guide):
            if tracked:
                self._scopes.record_guide_use(guide)
            old_word = registry.tombstone(guide)
            regions.free(old_word & LOCATOR_MASK)
            registry.retire(guide)


class StripedGuideMap(_GuideOps):
    """Hash map with per-stripe locks; guide CAS arbitrates with migration."""

    def __init__(self, runtime: TierRuntime):
        super().__init__(runtime)
        self._stripes: list[dict[bytes, KvEntry]] = \
            [{} for _ in range(MAP_STRIPES)]
        self._locks = [threading.Lock() for _ in range(MAP_STRIPES)]
        self._slots = runtime.regions.slots
        self._region_length = runtime.regions.region_length

    def get(self, key: bytes) -> bytes | None:
        """`_GuideOps.get` with `_get` and the common case of `_read` in
        this one frame.

        It registers the scope inline as `_GuideOps.get` does and, under
        the key's stripe lock, reads the value slot straight from its
        region's slot dict when both words dereference by a plain load, then
        re-checks the value word as `_read` does and appends `_read`'s
        access-log pairs.  Any other case (a word without the accessed bit
        or with the migration lock, a missing slot, a word that moved) runs
        `_read`, still under the lock; a tracked, sampled or nested scope
        runs `_get` through `_scoped`.
        """
        scope, state = getattr(self._tls, "scope", None), self._epoch_state
        if (scope is not None and not scope.depth
                and scope.outermost & SCOPE_SAMPLE_MASK
                and not state.tracking_enabled):
            slot, epoch = scope.slot, state.epoch
            slot.append(epoch)
            if not state.tracking_enabled and state.epoch == epoch:
                scope.depth = 1
                try:
                    i = hash(key) % MAP_STRIPES
                    with self._locks[i]:
                        entry = self._stripes[i].get(key)
                        if entry is None:
                            return None
                        words = self._words
                        key_word = words[entry.key_guide]
                        guide = entry.value_guide
                        word = words[guide]
                        if (key_word & _DEREF_BITS == ACCESSED_BIT
                                and word & _DEREF_BITS == ACCESSED_BIT):
                            locator = word & LOCATOR_MASK
                            length = self._region_length
                            data = self._slots[locator // length].get(
                                locator % length)
                            word = words[guide]
                            if (data is not None
                                    and word & LOCATOR_MASK == locator
                                    and word & HEAP_FIELD != HEAP_FIELD):
                                log = self._log
                                if log is not None:
                                    pending = log.pending
                                    pending.extend((key_word & LOCATOR_MASK,
                                                    len(key), locator,
                                                    len(data)))
                                    if len(pending) >= FOLD_LENGTH:
                                        log.record()
                                return data
                        return self._read(entry, len(key), False)
                finally:
                    slot.remove(epoch)
                    scope.depth = 0
                    scope.outermost += 1
            slot.remove(epoch)
        return self._scoped(self._get, key)

    def _set(self, key: bytes, value: bytes, tracked: bool) -> None:
        i = hash(key) % MAP_STRIPES
        with self._locks[i]:
            stripe = self._stripes[i]
            entry = stripe.get(key)
            if entry is None:
                stripe[key] = self._make_entry(key, value, tracked)
            else:
                self._update(entry, len(key), value, tracked)

    def _get(self, key: bytes, tracked: bool) -> bytes | None:
        i = hash(key) % MAP_STRIPES
        with self._locks[i]:
            entry = self._stripes[i].get(key)
            if entry is None:
                return None
            return self._read(entry, len(key), tracked)

    def _delete(self, key: bytes, tracked: bool) -> bool:
        i = hash(key) % MAP_STRIPES
        with self._locks[i]:
            entry = self._stripes[i].pop(key, None)
            if entry is None:
                return False
            self._retire_entry(entry, tracked)
            return True

    def __len__(self) -> int:
        return sum(len(s) for s in self._stripes)


# -- skip list ---------------------------------------------------------------

_MAX_LEVEL = 16


class _Node:
    __slots__ = ("key", "entry", "nexts")

    def __init__(self, key: bytes | None, level: int, entry=None):
        self.key = key
        self.entry = entry  # live KvEntry, or None when deleted
        self.nexts: list[_Node | None] = [None] * level


def _node_level(key: bytes) -> int:
    # Deterministic per key so runs are reproducible regardless of thread
    # interleaving.
    h = zlib.crc32(key, 0x9E3779B9)
    level = 1
    while h & 1 and level < _MAX_LEVEL:
        level += 1
        h >>= 1
    return level


class GuideSkipList(_GuideOps):
    """Ordered map: plain-load readers, one writer lock, logical deletion.

    Readers (`get`, `__len__`, `keys` and every search) take no lock; they
    follow links and read entries with plain loads.  Every write to a link
    or an entry happens under `_lock`: an insert searches again under it
    and links the new node at all its levels, level 0 first and each level
    only after the node's own link there is set, so a reader that meets
    the node at level l also finds it at every level below.  Deleted keys
    leave their node in place with a cleared entry; a later insert of the
    same key resurrects the node.  This avoids unlink races at the cost of
    node memory for deleted keys, which is acceptable for a benchmark
    store.
    """

    def __init__(self, runtime: TierRuntime):
        super().__init__(runtime)
        self._head = _Node(None, _MAX_LEVEL)
        self._lock = threading.Lock()

    def _find(self, key: bytes):
        """Predecessors per level plus the matching node, if any."""
        preds = [self._head] * _MAX_LEVEL
        node = self._head
        for level in range(_MAX_LEVEL - 1, -1, -1):
            nxt = node.nexts[level]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.nexts[level]
            preds[level] = node
        candidate = preds[0].nexts[0]
        if candidate is not None and candidate.key == key:
            return preds, candidate
        return preds, None

    def _install(self, key: bytes, fresh: KvEntry) -> KvEntry:
        """Link or resurrect the key's node holding `fresh`.

        Returns the entry live afterwards: `fresh`, or the entry another
        set installed first.
        """
        with self._lock:
            preds, node = self._find(key)
            if node is None:
                node = _Node(key, _node_level(key), fresh)
                for level, pred in enumerate(preds[:len(node.nexts)]):
                    node.nexts[level] = pred.nexts[level]
                    pred.nexts[level] = node
            elif node.entry is None:
                node.entry = fresh
            return node.entry

    def _set(self, key: bytes, value: bytes, tracked: bool) -> None:
        while True:
            _, node = self._find(key)
            entry = None if node is None else node.entry
            if entry is None:
                fresh = self._make_entry(key, value, tracked)
                entry = self._install(key, fresh)
                if entry is fresh:
                    return
                # Another set installed first.
                self._retire_entry(fresh, tracked)
            if self._update(entry, len(key), value, tracked):
                return
            # A delete retired the entry after the search: insert anew.

    def _get(self, key: bytes, tracked: bool) -> bytes | None:
        _, node = self._find(key)
        entry = None if node is None else node.entry
        if entry is None:
            return None
        return self._read(entry, len(key), tracked)

    def _delete(self, key: bytes, tracked: bool) -> bool:
        _, node = self._find(key)
        if node is None:
            return False
        with self._lock:
            entry = node.entry
            node.entry = None
        if entry is None:
            return False
        self._retire_entry(entry, tracked)
        return True

    def _live_nodes(self):
        node = self._head.nexts[0]
        while node is not None:
            if node.entry is not None:
                yield node
            node = node.nexts[0]

    def __len__(self) -> int:
        return sum(1 for _ in self._live_nodes())

    def keys(self) -> list[bytes]:
        return [node.key for node in self._live_nodes()]


class PlainStore:
    """Untiered baseline: a dict under one lock, no guides or regions."""

    def __init__(self):
        self._data: dict[bytes, bytes] = {}
        self._lock = threading.Lock()

    def set(self, key: bytes, value: bytes) -> None:
        with self._lock:
            self._data[key] = bytes(value)

    def get(self, key: bytes) -> bytes | None:
        with self._lock:
            return self._data.get(key)

    def delete(self, key: bytes) -> bool:
        with self._lock:
            return self._data.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._data)


def make_store(runtime: TierRuntime, structure: str = "hashmap",
               baseline: bool = False):
    """A guided store of the given structure, or a PlainStore if baseline.

    The baseline ignores the runtime: it has nothing to tier.
    """
    if structure not in ("hashmap", "skiplist"):
        raise ValueError(f"unknown structure {structure!r}")
    if baseline:
        return PlainStore()
    if structure == "hashmap":
        return StripedGuideMap(runtime)
    return GuideSkipList(runtime)
