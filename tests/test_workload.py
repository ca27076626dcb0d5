"""Zipfian generation, op streams, and trace replay."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tierheap.runtime import TierRuntime
from tierheap.store import StripedGuideMap
from tierheap.workload import (OpStream, TraceParseError, TraceRecord,
                               WorkloadSpec, ZipfianGenerator, make_key,
                               make_value, read_trace, replay_trace,
                               synthesize_phase_shift_trace, write_trace)


class TestZipfian:
    def test_single_key_always_zero(self):
        gen = ZipfianGenerator(1, 0.99, seed=1)
        assert all(gen.next_key() == 0 for _ in range(100))

    def test_alpha_zero_is_uniform(self):
        n_keys, draws = 50, 200_000
        gen = ZipfianGenerator(n_keys, 0.0, seed=2, permute=False)
        counts = np.bincount(gen.sample(draws), minlength=n_keys)
        expected = draws / n_keys
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 49 dof; 0.999 quantile ~= 85.4
        assert chi2 < 85.4

    def test_top_key_frequency_matches_harmonic_oracle(self):
        n_keys, alpha, draws = 1000, 0.99, 1_000_000
        gen = ZipfianGenerator(n_keys, alpha, seed=3, permute=False)
        ranks = gen.sample_ranks(draws)
        top_freq = float(np.mean(ranks == 0))
        harmonic = sum(k ** -alpha for k in range(1, n_keys + 1))
        expected = 1.0 / harmonic
        assert abs(top_freq - expected) / expected < 0.01

    def test_rank_probability_sums_to_one(self):
        gen = ZipfianGenerator(100, 0.99, seed=4)
        total = sum(gen.rank_probability(r) for r in range(100))
        assert abs(total - 1.0) < 1e-9

    def test_permutation_decorrelates_but_is_deterministic(self):
        a = ZipfianGenerator(1000, 0.99, seed=5)
        b = ZipfianGenerator(1000, 0.99, seed=5)
        assert list(a.sample(1000)) == list(b.sample(1000))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0, 0.99)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, -1.0)


class TestWorkloadSpec:
    def test_percentages_must_sum_to_100(self):
        with pytest.raises(ValueError):
            WorkloadSpec(read_pct=50.0, update_pct=40.0)

    def test_defaults_valid(self):
        spec = WorkloadSpec()
        assert spec.read_pct == 100.0

    def test_key_and_value_helpers(self):
        key = make_key(17, 30)
        assert len(key) == 30 and key.startswith(b"k")
        assert make_key(17, 30) == key
        value = make_value(17, 3, 1024)
        assert len(value) == 1024

    def test_key_size_covers_the_id_prefix(self):
        assert len(make_key(5, 20)) == 20
        with pytest.raises(ValueError):
            WorkloadSpec(key_size=19)

    def test_negative_zipf_alpha_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(zipf_alpha=-0.5)


class TestOpStream:
    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(keys=100, ops=5000, seed=11,
                            read_pct=60, update_pct=25, insert_pct=10,
                            delete_pct=5)
        assert list(OpStream(spec, 0)) == list(OpStream(spec, 0))

    def test_workers_get_distinct_streams(self):
        spec = WorkloadSpec(keys=100, ops=5000, seed=11, threads=2)
        assert list(OpStream(spec, 0)) != list(OpStream(spec, 1))

    def test_mix_fractions_respected(self):
        spec = WorkloadSpec(keys=1000, ops=40_000, seed=12,
                            read_pct=70, update_pct=20, insert_pct=5,
                            delete_pct=5)
        ops = [op for op, _ in OpStream(spec, 0)]
        n = len(ops)
        assert n == 40_000
        assert abs(ops.count("get") / n - 0.70) < 0.01
        assert abs(ops.count("del") / n - 0.05) < 0.005

    def test_inserts_use_fresh_ids(self):
        spec = WorkloadSpec(keys=100, ops=2000, seed=13,
                            read_pct=0, update_pct=0, insert_pct=100,
                            delete_pct=0)
        ids = [key for op, key in OpStream(spec, 0)]
        assert min(ids) >= 100
        assert len(set(ids)) == len(ids)

    def test_ops_split_across_threads(self):
        spec = WorkloadSpec(keys=100, ops=1000, threads=4, seed=14)
        assert len(list(OpStream(spec, 2))) == 250


class TestTraceFormat:
    def test_roundtrip(self, tmp_path):
        records = [TraceRecord(0, "set", b"k1", 64),
                   TraceRecord(5, "get", b"k1", 0),
                   TraceRecord(9, "del", b"k1", 0)]
        path = tmp_path / "t.csv"
        write_trace(records, path)
        assert path.read_text().splitlines()[0] == "ts_ms,op,key,size"
        assert read_trace(path) == records

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts_ms,op,key,size\n0,get,k,0\nbroken,row\n")
        with pytest.raises(TraceParseError, match=":3:"):
            read_trace(path)

    def test_unknown_op_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,scan,k,0\n")
        with pytest.raises(TraceParseError, match="unknown op"):
            read_trace(path)

    def test_non_integer_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("zero,get,k,0\n")
        with pytest.raises(TraceParseError, match=":1:"):
            read_trace(path)

    @pytest.mark.parametrize("row,got", [
        ("0,set,,10", "0, 10 and 0"),
        ("0,set," + "k" * 65537 + ",10", "0, 10 and 65537"),
        ("0,set,k1,70000", "0, 70000 and 2"),
    ], ids=["empty-key", "long-key", "large-size"])
    def test_row_a_set_cannot_store_rejected(self, tmp_path, row, got):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,set,k{'x' * 65535},65536\n{row}\n")
        with pytest.raises(TraceParseError, match=f":2: .*got {got}$"):
            read_trace(path)

    def test_key_outside_latin_1_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,set,k1,10\n0,set,k\u20ac,10\n", encoding="utf-8")
        with pytest.raises(TraceParseError,
                           match=":2: key 'k\u20ac' has a character outside"):
            read_trace(path)


class TestReplay:
    def make_store(self):
        return StripedGuideMap(TierRuntime(region_length=1 << 22))

    def test_empty_trace(self):
        counts = replay_trace([], self.make_store(), window_ms=1000)
        assert counts == {"get": 0, "set": 0, "del": 0}

    def test_set_then_get(self):
        store = self.make_store()
        records = [TraceRecord(0, "set", b"k", 32),
                   TraceRecord(1, "get", b"k", 0)]
        counts = replay_trace(records, store, window_ms=1000)
        assert counts["set"] == 1 and counts["get"] == 1
        assert store.get(b"k") is not None

    def test_window_callback_fires_per_boundary(self):
        store = self.make_store()
        records = [TraceRecord(t, "set", b"k%d" % t, 16)
                   for t in (0, 500, 1500, 3500)]
        fired = []
        replay_trace(records, store, window_ms=1000,
                     on_window=fired.append)
        # boundaries crossed at windows 0..2 plus the final flush
        assert fired == [0, 1, 2, 3]

    def test_unsorted_timestamps_rejected(self):
        records = [TraceRecord(5, "get", b"k", 0),
                   TraceRecord(1, "get", b"k", 0)]
        with pytest.raises(TraceParseError):
            replay_trace(records, self.make_store(), window_ms=1000)

    def test_values_do_not_depend_on_the_hash_seed(self):
        script = (
            "from tierheap.workload import TraceRecord, replay_trace\n"
            "class Store(dict):\n"
            "    def set(self, key, value): self[key] = value\n"
            "records = [TraceRecord(0, 'set', b'alpha', 64),\n"
            "           TraceRecord(1, 'set', b'beta', 0),\n"
            "           TraceRecord(2, 'set', b'alpha', 0)]\n"
            "store = Store()\n"
            "replay_trace(records, store, window_ms=1000)\n"
            "print(sorted(store.items()))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=60, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert "alpha" in outputs[0]

    def test_phase_shift_trace_shape(self):
        records = synthesize_phase_shift_trace(
            1000, 30, hot_fraction=0.1, windows=4, shift_window=2,
            ops_per_window=100, window_ms=1000, seed=15)
        assert len(records) == 400
        early = {r.key for r in records if r.ts_ms < 2000}
        late = {r.key for r in records if r.ts_ms >= 2000}
        assert early.isdisjoint(late)

