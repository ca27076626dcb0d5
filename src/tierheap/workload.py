"""Synthetic and trace-driven workloads for the benchmark harness.

Key popularity follows a Zipfian law: P(rank k) proportional to 1/(k+1)^a.
Popularity ranks are decorrelated from allocation order through a seeded
permutation, so hot keys start out scattered across the address space the
way organically grown heaps look, instead of being packed together by
insertion order.
"""
from __future__ import annotations

import csv
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .regions import SIZE_CLASSES

OPS = ("get", "set", "del")


class TraceParseError(ValueError):
    pass


@dataclass
class WorkloadSpec:
    keys: int = 100_000
    key_size: int = 30
    value_size: int = 1024
    zipf_alpha: float = 0.99
    read_pct: float = 100.0
    update_pct: float = 0.0
    insert_pct: float = 0.0
    delete_pct: float = 0.0
    ops: int = 1_000_000
    threads: int = 1
    seed: int = 42

    def __post_init__(self):
        pcts = (self.read_pct, self.update_pct, self.insert_pct,
                self.delete_pct)
        if not all(0 <= pct <= 100 for pct in pcts):  # NaN fails too
            raise ValueError("each operation percentage must lie in [0, 100]")
        total = sum(pcts)
        if abs(total - 100.0) > 1e-6:
            raise ValueError(
                f"operation percentages sum to {total}, expected 100")
        if self.keys <= 0 or self.ops < 0 or self.seed < 0:
            raise ValueError("keys must be positive, and ops and seed "
                             "non-negative")
        if self.key_size < 20:
            raise ValueError("key_size must be at least 20 bytes, the "
                             "length of make_key's id prefix")
        if not 0 <= self.zipf_alpha < math.inf:
            raise ValueError("zipf_alpha must be finite and non-negative")


def make_key(key_id: int, key_size: int) -> bytes:
    return b"k%019d" % key_id + b"x" * (key_size - 20)


def make_value(key_id: int, version: int, value_size: int) -> bytes:
    stamp = b"v%011d.%07d" % (key_id % 10 ** 11, version % 10 ** 7)
    reps = -(-value_size // len(stamp))
    return (stamp * reps)[:value_size]


class ZipfianGenerator:
    """Seeded sampler of key ids under a Zipfian popularity law.

    Rank r (0 = most popular) has weight 1/(r+1)^alpha; a seeded permutation
    maps ranks onto key ids.  Sampling draws uniforms and binary-searches the
    cumulative weight table, vectorized in batches.
    """

    def __init__(self, keys: int, alpha: float, seed: int = 42,
                 permute: bool = True):
        if keys <= 0:
            raise ValueError("keys must be positive")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.keys = keys
        self.alpha = alpha
        weights = (np.arange(1, keys + 1, dtype=np.float64)) ** -alpha
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._rng = np.random.default_rng(seed)
        if permute:
            perm_rng = np.random.default_rng(seed ^ 0x5DEECE66D)
            self._rank_to_key = perm_rng.permutation(keys)
        else:
            self._rank_to_key = np.arange(keys)
        self._buffer = np.empty(0, dtype=np.int64)
        self._pos = 0

    def rank_probability(self, rank: int) -> float:
        prev = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - prev)

    def sample_ranks(self, n: int) -> np.ndarray:
        u = self._rng.random(n)
        return np.searchsorted(self._cdf, u, side="left")

    def sample(self, n: int) -> np.ndarray:
        return self._rank_to_key[self.sample_ranks(n)]

    def next_key(self) -> int:
        if self._pos >= len(self._buffer):
            self._buffer = self.sample(4096)
            self._pos = 0
        key = self._buffer[self._pos]
        self._pos += 1
        return int(key)


class OpStream:
    """Deterministic per-worker stream of (op, key_id) pairs."""

    def __init__(self, spec: WorkloadSpec, worker: int = 0):
        self.spec = spec
        seed = spec.seed * 1_000_003 + worker
        self._zipf = ZipfianGenerator(spec.keys, spec.zipf_alpha, seed)
        self._op_rng = np.random.default_rng(seed ^ 0x0BAD5EED)
        self._cuts = np.cumsum([spec.read_pct, spec.update_pct,
                                spec.insert_pct, spec.delete_pct]) / 100.0
        self._next_insert_id = spec.keys + worker  # strided fresh ids
        self._stride = max(spec.threads, 1)

    def __iter__(self):
        spec = self.spec
        per_worker = spec.ops // max(spec.threads, 1)
        emitted = 0
        while emitted < per_worker:
            batch = min(4096, per_worker - emitted)
            keys = self._zipf.sample(batch)
            draws = self._op_rng.random(batch)
            kinds = np.searchsorted(self._cuts, draws, side="right")
            for key, kind in zip(keys, kinds):
                if kind == 0:
                    yield "get", int(key)
                elif kind == 1:
                    yield "set", int(key)
                elif kind == 2:
                    yield "set", self._next_insert_id
                    self._next_insert_id += self._stride
                else:
                    yield "del", int(key)
            emitted += batch


# -- traces ------------------------------------------------------------------

@dataclass
class TraceRecord:
    ts_ms: int
    op: str
    key: bytes
    size: int

    def format_row(self) -> list:
        return [self.ts_ms, self.op, self.key.decode("latin-1"), self.size]


def write_trace(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ts_ms", "op", "key", "size"])
        for record in records:
            writer.writerow(record.format_row())


def read_trace(path) -> list[TraceRecord]:
    """Parse a `ts_ms,op,key,size` CSV; errors carry 1-based line numbers.
    Keys and sizes must fit a size class, so that a set can store them."""
    largest = SIZE_CLASSES[-1]
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and row and row[0] == "ts_ms":
                continue
            if not row:
                continue
            if len(row) != 4:
                raise TraceParseError(
                    f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            ts_raw, op, key, size_raw = row
            if op not in OPS:
                raise TraceParseError(
                    f"{path}:{lineno}: unknown op {op!r}")
            try:
                ts_ms = int(ts_raw)
                size = int(size_raw)
            except ValueError as exc:
                raise TraceParseError(
                    f"{path}:{lineno}: non-integer field: {exc}") from None
            try:
                key = key.encode("latin-1")
            except UnicodeEncodeError:
                raise TraceParseError(
                    f"{path}:{lineno}: key {key!r} has a character outside "
                    f"latin-1") from None
            if ts_ms < 0 or not 0 <= size <= largest \
                    or not 0 < len(key) <= largest:
                raise TraceParseError(
                    f"{path}:{lineno}: ts_ms must be non-negative, size "
                    f"in [0, {largest}] and the key 1 to {largest} bytes; "
                    f"got {ts_ms}, {size} and {len(key)}")
            records.append(TraceRecord(ts_ms, op, key, size))
    return records


def replay_trace(records: list[TraceRecord], store, *,
                 window_ms: int, on_window=None,
                 value_size: int = 128) -> dict:
    """Run a trace against a store, firing on_window at each boundary.

    Records must be in non-decreasing timestamp order.  Window k covers
    timestamps [k*window_ms, (k+1)*window_ms); on_window(k) runs after the
    last record of window k.  Set sizes of 0 fall back to value_size.
    """
    counts = {"get": 0, "set": 0, "del": 0}
    versions: dict[bytes, int] = {}
    current = 0
    last_ts = -1
    for record in records:
        if record.ts_ms < last_ts:
            raise TraceParseError("trace timestamps are not sorted")
        last_ts = record.ts_ms
        window = record.ts_ms // window_ms
        while current < window:
            if on_window is not None:
                on_window(current)
            current += 1
        if record.op == "get":
            store.get(record.key)
        elif record.op == "set":
            version = versions.get(record.key, 0)
            versions[record.key] = version + 1
            size = record.size or value_size
            store.set(record.key, make_value(
                zlib.crc32(record.key), version, size))
        else:
            store.delete(record.key)
        counts[record.op] += 1
    if on_window is not None and last_ts >= 0:
        on_window(current)
    return counts


def synthesize_phase_shift_trace(keys: int, key_size: int, *,
                                 hot_fraction: float = 0.1,
                                 windows: int = 8,
                                 shift_window: int = 4,
                                 ops_per_window: int = 5000,
                                 window_ms: int = 1000,
                                 value_size: int = 128,
                                 seed: int = 42) -> list[TraceRecord]:
    """Trace whose hot set jumps to a disjoint key range mid-run.

    Windows before shift_window read hot set A; later windows read hot set
    B, which starts entirely outside A.  The shift forces a burst of
    promotions from wherever B's keys had settled.
    """
    hot = max(1, int(keys * hot_fraction))
    if 2 * hot > keys:
        raise ValueError("hot_fraction too large for a disjoint shift")
    rng = np.random.default_rng(seed)
    records = []
    for window in range(windows):
        base = 0 if window < shift_window else hot
        picks = rng.integers(0, hot, size=ops_per_window)
        step = window_ms / ops_per_window
        for i, pick in enumerate(picks):
            ts = window * window_ms + int(i * step)
            key = make_key(base + int(pick), key_size)
            records.append(TraceRecord(ts, "get", key, value_size))
    return records

