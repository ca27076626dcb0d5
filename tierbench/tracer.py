"""Span tracer that wraps tierheap's public functions from outside the package.

The tracer replaces bound methods on the runtime's component instances (and
methods of ``GuideCell``, whose instances have ``__slots__``) with wrappers
that record one span per call: name, start, end and parent.  Spans are kept
in per-thread arrays in memory and written out when the run ends.  Nothing
inside ``src/tierheap`` is changed; ``uninstall`` restores every attribute.

Each thread's current root span decides which wrappers record.  A store
operation opens a mutator root and a collector window opens a collector root.
Layer wrappers (scope, guide word, regions, access log, registry) record only
under a mutator root, collector wrappers (migrate, convergence wait, reclaim,
hints) only under a collector root.  So per-call figures of a layer describe
the mutator path alone, and the scan's own compare-and-swap calls do not
flood the trace.
"""
from __future__ import annotations

import threading
import time
from array import array

import numpy as np

from tierheap.guideword import LOCATOR_MASK, GuideCell
from tierheap.regions import RegionError

MUTATOR = 1
COLLECTOR = 2


class _Buffer:
    """Spans of one thread in call order; parents index this buffer."""

    __slots__ = ("names", "parents", "starts", "ends", "stack", "side",
                 "cas_failures", "bytes_moved")

    def __init__(self):
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.side = 0
        self.cas_failures = 0
        self.bytes_moved = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._tls = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def buffer(self) -> _Buffer:
        """The calling thread's span buffer, created on first use."""
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = self._tls.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, side: int, root: bool, on_result):
        nid = self._name_id(name)
        tls = self._tls
        new_buffer = self.buffer
        perf = time.perf_counter_ns

        def traced(*args, **kwargs):
            buf = getattr(tls, "buf", None) or new_buffer()
            stack = buf.stack
            if root:
                if stack:
                    return fn(*args, **kwargs)
                buf.side = side
            elif buf.side != side:
                return fn(*args, **kwargs)
            idx = len(buf.names)
            buf.names.append(nid)
            buf.parents.append(stack[-1] if stack else -1)
            buf.ends.append(0)
            stack.append(idx)
            buf.starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.ends[idx] = perf()
                stack.pop()
                if root:
                    buf.side = 0
            if on_result is not None:
                on_result(buf, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, side: int,
               root: bool = False, on_result=None) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
        else:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, None))
        setattr(owner, attr,
                self._wrap(original, name, side, root, on_result))

    def install(self, runtime, store) -> None:
        """Wrap the store's operations and the runtime's layer functions."""
        m, c = MUTATOR, COLLECTOR
        for op in ("get", "set", "delete"):
            self._patch(store, op, f"store.{op}", m, root=True)
        scope = runtime.scope
        self._patch(scope, "enter_scope", "scope.enter", m)
        self._patch(scope, "exit_scope", "scope.exit", m)
        self._patch(scope, "record_guide_use", "scope.record_use", m)
        self._patch(GuideCell, "dereference", "guideword.deref", m)
        self._patch(GuideCell, "compare_and_swap", "guideword.cas", m,
                    on_result=_count_cas_failure)
        self._patch(GuideCell, "atc_increment", "guideword.atc_increment", m)
        regions = runtime.regions
        for fn in ("read", "write", "allocate", "free"):
            self._patch(regions, fn, f"regions.{fn}", m)
        self._patch(runtime.access_log, "record", "metrics.access_log_record",
                    m)
        registry = runtime.registry
        self._patch(registry, "create", "runtime.registry_create", m)
        self._patch(registry, "retire", "runtime.registry_retire", m)

        collector = runtime.collector

        def count_bytes(buf, args, outcome):
            if outcome != "moved":
                return
            word = registry.cell(args[0]).load()
            try:
                buf.bytes_moved += len(regions.read(word & LOCATOR_MASK))
            except RegionError:
                pass  # deleted by a mutator since the move

        self._patch(collector, "run_scan_window", "collector.window", c,
                    root=True)
        self._patch(collector, "migrate", "collector.migrate", c,
                    on_result=count_bytes)
        self._patch(collector, "await_convergence", "collector.convergence",
                    c)
        self._patch(registry, "reclaim_retired", "collector.reclaim", c)
        self._patch(collector, "maybe_emit_hints", "collector.hints", c)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; parents are global indices (-1: root)."""
        names, parents, starts, ends, threads = [], [], [], [], []
        base = 0
        for t, buf in enumerate(self._buffers):
            p = np.frombuffer(buf.parents, dtype=np.int32).astype(np.int64)
            parents.append(np.where(p >= 0, p + base, -1))
            names.append(np.frombuffer(buf.names, dtype=np.uint16))
            starts.append(np.frombuffer(buf.starts, dtype=np.int64))
            ends.append(np.frombuffer(buf.ends, dtype=np.int64))
            threads.append(np.full(len(buf.names), t, dtype=np.int16))
            base += len(buf.names)
        cat = np.concatenate
        out = {"name": cat(names), "parent": cat(parents),
               "start": cat(starts), "end": cat(ends), "thread": cat(threads)}
        duration = out["end"] - out["start"]
        child = np.zeros(len(duration), dtype=np.int64)
        has_parent = out["parent"] >= 0
        np.add.at(child, out["parent"][has_parent], duration[has_parent])
        out["duration"] = duration
        out["self"] = duration - child
        return out

    @property
    def cas_failures(self) -> int:
        return sum(buf.cas_failures for buf in self._buffers)

    @property
    def bytes_moved(self) -> int:
        return sum(buf.bytes_moved for buf in self._buffers)

    def save(self, path, spans: dict[str, np.ndarray]) -> None:
        np.savez(path, names=np.array(self.names),
                 **{k: spans[k] for k in ("name", "parent", "start", "end",
                                          "thread")})


def _count_cas_failure(buf, args, swapped) -> None:
    if not swapped:
        buf.cas_failures += 1
