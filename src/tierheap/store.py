"""Guide-managed concurrent key-value stores.

Two structures share the same guide discipline: a striped-lock hash map and
a skip list whose readers take no lock and whose writers link under one
lock, deleting logically.  Every public operation runs inside a scope guard,
every key/value access goes through its guide word, and inserted data is
deep-copied into region slots so the runtime owns the authoritative bytes.
PlainStore is the untiered baseline for overhead comparisons: a locked dict
with no guides, scopes or regions.
"""
from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass

from .guideword import (ACCESSED_BIT, ATC_FIELD, HEAP_FIELD, LOCATOR_MASK,
                        HeapId, pack)
from .regions import RegionError
from .runtime import TierRuntime

MAP_STRIPES = 64


@dataclass
class KvEntry:
    __slots__ = ("key_guide", "value_guide")
    key_guide: int
    value_guide: int


class _GuideOps:
    """Guide plumbing shared by both store structures."""

    def __init__(self, runtime: TierRuntime):
        self.runtime = runtime

    def _make_entry(self, key: bytes, value: bytes) -> KvEntry:
        rt = self.runtime
        key_loc = rt.regions.allocate(HeapId.NEW, len(key))
        rt.regions.write(key_loc, key)
        key_guide = rt.registry.create(
            pack(key_loc, heap=HeapId.NEW, accessed=True))
        value_loc = rt.regions.allocate(HeapId.NEW, len(value))
        rt.regions.write(value_loc, value)
        value_guide = rt.registry.create(
            pack(value_loc, heap=HeapId.NEW, accessed=True))
        rt.record_access(key_loc, len(key))
        rt.record_access(value_loc, len(value))
        return KvEntry(key_guide, value_guide)

    def _touch_key(self, entry: KvEntry, key_len: int) -> None:
        rt = self.runtime
        rt.scope.record_guide_use(entry.key_guide)
        locator = rt.registry.dereference(entry.key_guide)
        rt.record_access(locator, key_len)

    def _swing_value(self, entry: KvEntry, value: bytes) -> bool:
        """Publish a fresh NEW-heap slot for the value via guide CAS.

        Whoever succeeds a CAS frees exactly the slot named by the word it
        replaced, so racing setters and an in-flight migration can never
        free the same slot twice.  A tombstoned word is never replaced: the
        entry was deleted, so the fresh slot is freed and False returned.
        """
        rt = self.runtime
        guide, registry = entry.value_guide, rt.registry
        rt.scope.record_guide_use(guide)
        new_loc = rt.regions.allocate(HeapId.NEW, len(value))
        rt.regions.write(new_loc, value)
        new_base = new_loc | ACCESSED_BIT  # heap=NEW, ciw=0, lock clear
        while True:
            word = registry.words[guide]
            if (word & HEAP_FIELD) == HEAP_FIELD:
                rt.regions.free(new_loc)
                return False
            if registry.compare_and_swap(guide, word,
                                         new_base | (word & ATC_FIELD)):
                rt.regions.free(word & LOCATOR_MASK)
                break
        rt.record_access(new_loc, len(value))
        return True

    def _read_value(self, entry: KvEntry) -> bytes | None:
        rt = self.runtime
        rt.scope.record_guide_use(entry.value_guide)
        locator = rt.registry.dereference(entry.value_guide)
        try:
            data = rt.regions.read(locator)
        except RegionError:
            return None  # lost a race with delete; entry is gone
        rt.record_access(locator, len(data))
        return data

    def _retire_entry(self, entry: KvEntry) -> None:
        rt = self.runtime
        for guide in (entry.key_guide, entry.value_guide):
            rt.scope.record_guide_use(guide)
            old_word = rt.registry.tombstone(guide)
            rt.regions.free(old_word & LOCATOR_MASK)
            rt.registry.retire(guide)


class StripedGuideMap(_GuideOps):
    """Hash map with per-stripe locks; guide CAS arbitrates with migration."""

    def __init__(self, runtime: TierRuntime):
        super().__init__(runtime)
        self._stripes: list[dict[bytes, KvEntry]] = \
            [{} for _ in range(MAP_STRIPES)]
        self._locks = [threading.Lock() for _ in range(MAP_STRIPES)]

    def _stripe(self, key: bytes) -> int:
        return zlib.crc32(key) % MAP_STRIPES

    def set(self, key: bytes, value: bytes) -> None:
        i = self._stripe(key)
        scope = self.runtime.scope
        scope.enter_scope()
        try:
            with self._locks[i]:
                entry = self._stripes[i].get(key)
                if entry is None:
                    entry = self._make_entry(key, value)
                    self._stripes[i][key] = entry
                    scope.record_guide_use(entry.key_guide)
                    scope.record_guide_use(entry.value_guide)
                else:
                    self._touch_key(entry, len(key))
                    self._swing_value(entry, value)
        finally:
            scope.exit_scope()

    def get(self, key: bytes) -> bytes | None:
        i = self._stripe(key)
        scope = self.runtime.scope
        scope.enter_scope()
        try:
            with self._locks[i]:
                entry = self._stripes[i].get(key)
                if entry is None:
                    return None
                self._touch_key(entry, len(key))
                return self._read_value(entry)
        finally:
            scope.exit_scope()

    def delete(self, key: bytes) -> bool:
        i = self._stripe(key)
        scope = self.runtime.scope
        scope.enter_scope()
        try:
            with self._locks[i]:
                entry = self._stripes[i].pop(key, None)
                if entry is None:
                    return False
                self._retire_entry(entry)
                return True
        finally:
            scope.exit_scope()

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

    def set(self, key: bytes, value: bytes) -> None:
        scope = self.runtime.scope
        scope.enter_scope()
        try:
            while True:
                _, node = self._find(key)
                entry = None if node is None else node.entry
                if entry is None:
                    fresh = self._make_entry(key, value)
                    scope.record_guide_use(fresh.key_guide)
                    scope.record_guide_use(fresh.value_guide)
                    entry = self._install(key, fresh)
                    if entry is fresh:
                        return
                    self._retire_entry(fresh)  # another set installed first
                self._touch_key(entry, len(key))
                if self._swing_value(entry, value):
                    return
                # A delete retired the entry after the search: insert anew.
        finally:
            scope.exit_scope()

    def _read_value(self, entry: KvEntry) -> bytes | None:
        """Read the value slot, then confirm the guide still names it.

        The hash map reads under the key's stripe lock, which keeps the
        key's setters out.  The skip list takes no lock, so a racing set
        may publish a new slot and free the one being read, and the next
        allocation may reuse it at once.  If the word moved on, the read is
        repeated at the new locator.  A setter writes its slot before its
        CAS publishes it, so a slot the word still names after the read
        held this guide's value, unless within that window the slot was
        freed, reused elsewhere and then published for this guide again.
        """
        rt = self.runtime
        guide, registry = entry.value_guide, rt.registry
        rt.scope.record_guide_use(guide)
        locator = registry.dereference(guide)
        while True:
            try:
                data = rt.regions.read(locator)
            except RegionError:
                data = None
            word = registry.words[guide]
            if (word & HEAP_FIELD) == HEAP_FIELD:
                return None  # lost a race with delete; entry is gone
            if word & LOCATOR_MASK == locator:
                break
            locator = registry.dereference(guide)
        if data is not None:
            rt.record_access(locator, len(data))
        return data

    def get(self, key: bytes) -> bytes | None:
        scope = self.runtime.scope
        scope.enter_scope()
        try:
            _, node = self._find(key)
            entry = None if node is None else node.entry
            if entry is None:
                return None
            self._touch_key(entry, len(key))
            return self._read_value(entry)
        finally:
            scope.exit_scope()

    def delete(self, key: bytes) -> bool:
        scope = self.runtime.scope
        scope.enter_scope()
        try:
            _, node = self._find(key)
            if node is None:
                return False
            with self._lock:
                entry = node.entry
                node.entry = None
            if entry is None:
                return False
            self._retire_entry(entry)
            return True
        finally:
            scope.exit_scope()

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
