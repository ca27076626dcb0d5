"""Guide-managed concurrent key-value stores.

Two structures, a hash map and a skip list, share one guide discipline and
one read and write protocol, `_GuideOps`; a structure is only a key index.
Readers take no store lock.  Every public operation runs inside a scope
guard, every key/value access goes through its guide word, and keys and
values are handed over to region slots as immutable `bytes` (a `bytes`
argument itself, anything else converted), so the runtime owns the
authoritative bytes.  An entry is one int `g`, the index of its key guide;
its value guide is `g + 1`.  An update that keeps the value's length stores
it into the slot its guide names, as the paper's mutators write objects
through their guides, so only the collector relocates a value; any other
update publishes a fresh slot.  PlainStore is the untiered baseline for
overhead comparisons: one dict with no lock, guides, scopes or regions.
"""
from __future__ import annotations

import threading
import zlib

from .guideword import (ACCESSED_BIT, ATC_FIELD, DEREF_BITS, HEAP_FIELD,
                        LOCATOR_MASK, LOCK_BIT, HeapId)
from .metrics import FOLD_LENGTH
from .regions import RegionError
from .runtime import TierRuntime
from .scope import SCOPE_SAMPLE_MASK


class _GuideOps:
    """The public operations and the one read and write protocol that
    both store structures share.

    A structure supplies only its key index: `_entry(key)`, the key's
    entry or None; `_install(key, fresh)`, which adds `fresh` unless the
    key has an entry and returns the entry live afterwards; `_remove(key)`,
    which takes the key's entry out and returns it, or None; and
    `__len__`.  Each is atomic against the others on other threads.  On
    top runs the logical deletion of Harris (DISC 2001), with the guide
    words marking the entries: lookups take no lock; an insert retires its
    fresh entry if another set's install won; an update stores into the
    value's slot or CASes the value word to a fresh one, and inserts again
    if a delete tombstoned the word first; a delete removes the entry,
    then retires it.  A retired entry's guides are not reused while a
    scope that may hold it is open (`GuideRegistry`), so a lookup that
    raced a delete meets a tombstone, never another key's.

    `get` reads in its own frame; `set` and `delete` run `_set` or
    `_delete`.  Each runs inside one outermost scope.  In the common case
    (no scope open on the thread, ATC tracking off, the epoch stable
    across the registration, and not the thread's sampled scope) they
    register it inline, in the order `ScopeManager.enter_scope` uses:
    append the epoch to the thread's TAI slot, then read the tracking flag
    and the epoch again.  Any other case goes through `enter_scope` and
    `exit_scope`; `get` runs the same body after either.

    The guided paths take one call per operation.  Guide uses are recorded
    only when the caller's scope tracks ATC (`tracked`, or a `used` set on
    the scope record), each before its guide is dereferenced.  A word with
    the accessed bit set and no migration lock dereferences by a plain load.
    Any other, such as a first touch after a scan window, is stored back as
    `(word | ACCESSED_BIT) & ~LOCK_BIT` under the arena's `word_lock`, the
    store `GuideArena.dereference` makes; clearing the lock makes a racing
    migration's commit fail.  A tombstone, which never carries the accessed
    bit, is left as it is, and nothing is logged for it.  Access-log pairs
    are appended to the log's pending list in one call, and the log is
    called only to fold it.

    Writes call the heap regions directly: a slot is installed with its
    payload by `HeapRegion.install` on the NEW region, and freed by
    `HeapRegion.free` on the region its locator lies in.  An insert
    installs both slots, then creates the entry's guide pair, key `g` and
    value `g + 1`, in one `registry.create` call.  An update of the same
    length replaces the value slot's payload by `HeapRegion.write` under
    `word_lock`; one of another length installs a fresh slot, swings the
    value word to it by `compare_and_swap` and frees the old one (see
    `_update`).  The lock order is the registry lock, then `word_lock`,
    then a region's lock.  A delete retires the pair in one
    `registry.retire` call, which tombstones both words and parks the
    entry, then frees the two slots it returns.  Both registry calls are
    looked up on each use, so a wrapper installed on the registry sees
    every insert and delete.
    """

    def __init__(self, runtime: TierRuntime):
        self.runtime = runtime
        self._scopes = runtime.scope
        self._tls = runtime.scope.tls
        self._epoch_state = runtime.epoch_state
        self._registry = runtime.registry
        self._words = runtime.registry.words
        self._word_lock = runtime.registry.word_lock
        self._heaps = runtime.regions.heaps
        self._new_heap = runtime.regions.heaps[HeapId.NEW]
        self._slots = runtime.regions.slots
        self._region_length = runtime.regions.region_length
        self._log = runtime.access_log

    def get(self, key: bytes) -> bytes | None:
        """The key's value, or None: touch the key, then read the value
        slot and confirm the guide still names it.

        Neither structure holds a lock while it reads, so a racing set may
        publish a new slot and free the one being read, and the next
        allocation may reuse it at once.  If the word moved on, the read is
        repeated at the new locator, touching the word again.  A setter of
        a value of another length writes its slot before its CAS publishes
        it, so a slot the word still names after the read held this guide's
        value, unless within that window the slot was freed, reused
        elsewhere and then published for this guide again.  A setter of a
        same-length value replaces the payload of the slot the word names,
        in one dict store, and leaves the word's locator as it is: the read
        returns the old `bytes` or the new, never a mix.  A tombstoned word
        reads as a missing key, and is not written.
        """
        scope, state = getattr(self._tls, "scope", None), self._epoch_state
        inline = False
        if (scope is not None and not scope.depth
                and scope.outermost & SCOPE_SAMPLE_MASK
                and not state.tracking_enabled):
            slot, epoch = scope.slot, state.epoch
            slot.append(epoch)
            if not state.tracking_enabled and state.epoch == epoch:
                scope.depth = 1
                inline = True
            else:
                slot.remove(epoch)
        if not inline:
            scope = self._scopes.enter_scope()
        try:
            key_guide = self._entry(key)
            if key_guide is None:
                return None
            words, word_lock = self._words, self._word_lock
            guide = key_guide + 1
            if scope.used is not None:
                self._scopes.record_guide_use(key_guide)
                self._scopes.record_guide_use(guide)
            key_word = words[key_guide]
            if key_word & DEREF_BITS != ACCESSED_BIT:
                with word_lock:
                    key_word = words[key_guide]
                    if key_word & HEAP_FIELD != HEAP_FIELD:
                        key_word = (key_word | ACCESSED_BIT) & ~LOCK_BIT
                        words[key_guide] = key_word
                if key_word & HEAP_FIELD == HEAP_FIELD:
                    return None  # deleted after the lookup
            slots, length = self._slots, self._region_length
            word = words[guide]
            while True:
                if word & DEREF_BITS != ACCESSED_BIT:
                    with word_lock:
                        word = words[guide]
                        if word & HEAP_FIELD != HEAP_FIELD:
                            word = (word | ACCESSED_BIT) & ~LOCK_BIT
                            words[guide] = word
                locator = word & LOCATOR_MASK
                data = slots[locator // length].get(locator % length)
                word = words[guide]
                if word & HEAP_FIELD == HEAP_FIELD:
                    data = None  # lost a race with delete; entry is gone
                    break
                if word & LOCATOR_MASK == locator:
                    break
            log = self._log
            if log is not None:
                pending = log.pending
                key_loc = key_word & LOCATOR_MASK
                pending.extend((key_loc, len(key)) if data is None
                               else (key_loc, len(key), locator, len(data)))
                if len(pending) >= FOLD_LENGTH:
                    log.record()
            return data
        finally:
            if inline:
                slot.remove(epoch)
                scope.depth = 0
                scope.outermost += 1
            else:
                self._scopes.exit_scope()

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

    def _set(self, key: bytes, value: bytes, tracked: bool) -> None:
        while True:
            entry = self._entry(key)
            if entry is None:
                fresh = self._make_entry(key, value, tracked)
                entry = self._install(key, fresh)
                if entry == fresh:
                    return
                # Another set installed first.
                self._retire_entry(fresh, tracked)
            if self._update(entry, len(key), value, tracked):
                return
            # A delete retired the entry after the lookup: insert anew.

    def _delete(self, key: bytes, tracked: bool) -> bool:
        entry = self._remove(key)
        if entry is None:
            return False
        self._retire_entry(entry, tracked)
        return True

    def _scoped(self, body, *args):
        """`body(*args, tracked)` in a scope that `enter_scope` opens."""
        scopes = self._scopes
        tracked = scopes.enter_scope().used is not None
        try:
            return body(*args, tracked)
        finally:
            scopes.exit_scope()

    def _make_entry(self, key: bytes, value: bytes, tracked: bool) -> int:
        new = self._new_heap
        key_loc = new.install(key)
        try:
            value_loc = new.install(value)
        except RegionError:  # e.g. a value past the largest size class
            new.free(key_loc)
            raise
        entry = self._registry.create(
            key_loc | ACCESSED_BIT, value_loc | ACCESSED_BIT)  # heap=NEW
        if tracked:
            self._scopes.record_guide_use(entry)
            self._scopes.record_guide_use(entry + 1)
        log = self._log
        if log is not None:
            pending = log.pending
            pending.extend((key_loc, len(key), value_loc, len(value)))
            if len(pending) >= FOLD_LENGTH:
                log.record()  # no pairs: folds the full list
        return entry

    def _update(self, entry: int, key_len: int, value: bytes,
                tracked: bool) -> bool:
        """Touch the key, then store the value into the slot its guide
        names if the value keeps that slot's length, else publish a fresh
        NEW-heap slot for it via guide CAS.

        A key word that fails the plain-load test goes through
        `registry.dereference`, the same locked store `get` makes inline;
        a set's first touch is off the get path, and it keeps the mutator's
        one call the benchmark's tracer times as `guideword.deref`.

        The length test runs under `word_lock`, where the word cannot move
        and so the slot it names stays live with its payload's length.  A
        same-length value replaces the payload by `HeapRegion.write`, under
        the region's lock, and the word is stored back as `(word |
        ACCESSED_BIT) & ~LOCK_BIT`, so a migration that locked it before
        commits nothing and frees its copy.  The slot, its heap and the
        region's live bytes stay as they were.

        Otherwise, whoever succeeds a CAS frees exactly the slot named by
        the word it replaced, so racing setters and an in-flight migration
        can never free the same slot twice.  A tombstoned word is never
        written: the entry was deleted, so nothing is logged and False is
        returned (the CAS path frees its fresh slot first).
        """
        registry, words, new = self._registry, self._words, self._new_heap
        key_guide, guide = entry, entry + 1
        if tracked:
            self._scopes.record_guide_use(key_guide)
            self._scopes.record_guide_use(guide)
        word = words[key_guide]
        key_loc = (word & LOCATOR_MASK if word & DEREF_BITS == ACCESSED_BIT
                   else registry.dereference(key_guide))
        length = self._region_length
        with self._word_lock:
            word = words[guide]
            if word & HEAP_FIELD == HEAP_FIELD:
                return False
            new_loc = word & LOCATOR_MASK
            region = new_loc // length
            in_place = len(self._slots[region].get(new_loc % length)) \
                == len(value)
            if in_place:
                self._heaps[region].write(new_loc, value)
                words[guide] = (word | ACCESSED_BIT) & ~LOCK_BIT
        if not in_place:
            new_loc = new.install(value)
            new_base = new_loc | ACCESSED_BIT  # heap=NEW, ciw=0, lock clear
            while True:
                word = words[guide]
                if word & HEAP_FIELD == HEAP_FIELD:
                    new.free(new_loc)
                    return False
                if registry.compare_and_swap(guide, word,
                                             new_base | (word & ATC_FIELD)):
                    break
            old_loc = word & LOCATOR_MASK
            self._heaps[old_loc // length].free(old_loc)
        log = self._log
        if log is not None:
            pending = log.pending
            pending.extend((key_loc, key_len, new_loc, len(value)))
            if len(pending) >= FOLD_LENGTH:
                log.record()
        return True

    def _retire_entry(self, entry: int, tracked: bool) -> None:
        """Retire the entry in one `registry.retire` call, which tombstones
        both words and parks the pair, then free the two slots they
        named."""
        if tracked:
            self._scopes.record_guide_use(entry)
            self._scopes.record_guide_use(entry + 1)
        key_word, word = self._registry.retire(entry)
        heaps, length = self._heaps, self._region_length
        key_loc, loc = key_word & LOCATOR_MASK, word & LOCATOR_MASK
        heaps[key_loc // length].free(key_loc)
        heaps[loc // length].free(loc)


class GuideHashMap(_GuideOps):
    """Hash map: one dict from key to entry, written with no lock.

    `_entry` and `_install` are the dict's own `get` and `setdefault`,
    bound at construction so that neither adds a Python frame; `_remove`
    is its `pop`.  Each is one atomic step under the interpreter lock only
    because every stored key is an exact `bytes` (`set` converts others),
    whose hash and comparison run no Python code.
    """

    def __init__(self, runtime: TierRuntime):
        super().__init__(runtime)
        self._map: dict[bytes, int] = {}
        self._entry = self._map.get
        self._install = self._map.setdefault

    def _remove(self, key: bytes) -> int | None:
        return self._map.pop(key, None)

    def __len__(self) -> int:
        return len(self._map)


# -- skip list ---------------------------------------------------------------

_MAX_LEVEL = 16


class _Node:
    __slots__ = ("key", "entry", "nexts")

    def __init__(self, key: bytes | None, level: int, entry=None):
        self.key = key
        self.entry = entry  # the live entry's key guide, None when deleted
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

    def _search(self, key: bytes) -> _Node | None:
        """The key's node, if any, found without predecessors."""
        node = self._head
        for level in range(_MAX_LEVEL - 1, -1, -1):
            nxt = node.nexts[level]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.nexts[level]
        if nxt is not None and nxt.key == key:
            return nxt
        return None

    def _entry(self, key: bytes) -> int | None:
        node = self._search(key)
        return None if node is None else node.entry

    def _find(self, key: bytes):
        """Predecessors per level plus the matching node, if any; only
        `_install` needs the predecessors."""
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

    def _install(self, key: bytes, fresh: int) -> int:
        """Link the key's node holding `fresh`, or resurrect its deleted
        node with it.  Returns the entry live afterwards: `fresh`, or the
        entry another set installed first.
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

    def _remove(self, key: bytes) -> int | None:
        node = self._search(key)
        if node is None:
            return None
        with self._lock:
            entry = node.entry
            node.entry = None
        return entry

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
    """Untiered baseline: one dict written with no lock, and no guides or
    regions.  Each call is one atomic dict step for the reason
    `GuideHashMap` gives: `set` stores exact `bytes` keys and values."""

    def __init__(self):
        self._data: dict[bytes, bytes] = {}

    def set(self, key: bytes, value: bytes) -> None:
        if type(key) is not bytes:
            key = bytes(key)
        if type(value) is not bytes:
            value = bytes(value)
        self._data[key] = value

    def get(self, key: bytes) -> bytes | None:
        return self._data.get(key)

    def delete(self, key: bytes) -> bool:
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
        return GuideHashMap(runtime)
    return GuideSkipList(runtime)
