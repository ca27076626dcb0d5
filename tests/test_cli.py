"""Benchmark driver: flags, report artifacts, determinism, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tierheap import cli
from tierheap.cli import (SUMMARY_FIELDS, RunConfig, build_parser,
                          config_from_args, main, run_benchmark)
from tierheap.collector import WindowReport
from tierheap.runtime import TierRuntime
from tierheap.workload import TraceRecord, write_trace

SMALL = dict(keys=400, key_size=30, value_size=256, ops=8000, windows=4,
             clock="logical", seed=7)


def small_config(**overrides):
    return RunConfig(**{**SMALL, **overrides})


class TestParser:
    def test_all_flags_exist(self):
        flags = ["--keys", "--key-size", "--value-size", "--zipf-alpha",
                 "--read-pct", "--update-pct", "--insert-pct",
                 "--delete-pct", "--ops", "--threads", "--windows",
                 "--scan-interval", "--pr-target", "--ct-init", "--hinted",
                 "--trace", "--report", "--clock", "--seed", "--baseline",
                 "--structure"]
        parser = build_parser()
        known = {opt for action in parser._actions
                 for opt in action.option_strings}
        for flag in flags:
            assert flag in known

    def test_structure_choices(self):
        config = config_from_args(["--structure", "skiplist"])
        assert config.structure == "skiplist"
        with pytest.raises(SystemExit):
            config_from_args(["--structure", "btree"])

    def test_defaults(self):
        """Every option's default is `RunConfig`'s."""
        config = config_from_args([])
        assert config.scan_interval == 120.0
        assert config.pr_target == 0.01
        assert config.ct_init == 3
        assert config.clock == "logical"
        assert vars(config) == vars(RunConfig())


class TestRunBenchmark:
    def test_window_count_contract(self):
        result = run_benchmark(small_config(windows=6, ops=6000))
        assert len(result.reports) == 6
        assert [r.window_index for r in result.reports] == [1, 2, 3, 4, 5, 6]

    def test_summary_schema_golden(self):
        result = run_benchmark(small_config())
        summary = result.summary
        assert set(summary) == set(SUMMARY_FIELDS)
        json.dumps(summary)  # everything serializable
        assert len(summary["prSeries"]) == SMALL["windows"]
        assert len(summary["ctSeries"]) == SMALL["windows"]
        for key in ("promotedToHot", "demotedToCold", "newToHot",
                    "aborted", "skipped"):
            assert summary["migrationCounts"][key] >= 0

    def test_deterministic_in_logical_mode(self):
        a = run_benchmark(small_config())
        b = run_benchmark(small_config())
        assert [r.to_json() for r in a.reports] == \
            [r.to_json() for r in b.reports]
        assert a.summary["prSeries"] == b.summary["prSeries"]

    def test_layout_digest_agrees_across_hash_seeds(self):
        """Two small mixes with inserts and deletes, one per structure,
        give the same layout digests in processes with different hash
        seeds (the hash map's dict hashes each key by `hash(key)`, which
        the layout must not follow), and the digests committed here.  A
        change that alters the layout on purpose updates these constants
        and says so."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        script = (
            "from tierheap.cli import RunConfig, layout_digest\n"
            "for structure, seed in (('hashmap', 7), ('skiplist', 8)):\n"
            "    print(layout_digest(RunConfig(\n"
            "        keys=2000, key_size=30, value_size=200, ops=12000,\n"
            "        windows=4, read_pct=55, update_pct=25, insert_pct=10,\n"
            "        delete_pct=10, ct_init=1, seed=seed,\n"
            "        structure=structure)))\n")
        digests = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": src + (os.pathsep + path if path else "")}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert digests[0] == digests[1]
        assert len(set(digests[0])) == 2  # the digest tells runs apart
        assert digests[0] == [
            "2ab06c8ec77f323eee4c54db74a34ea7e8938ed5268aa7b78c6019a0e413a092",
            "da991c6704e8124b4732e4e8235fab94504952c3632c9907cdacad668f124a02",
        ]

    def test_digest_flag_prints_the_layout_digest(self):
        """`python -m tierheap --digest` prints `layout_digest` of the
        configuration its other flags give (here the small hash-map mix
        above) and exits 0; a bad configuration exits 2 as a run does."""
        args = ["--keys", "2000", "--value-size", "200", "--ops", "12000",
                "--windows", "4", "--read-pct", "55", "--update-pct", "25",
                "--insert-pct", "10", "--delete-pct", "10", "--ct-init", "1",
                "--seed", "7"]
        config = config_from_args(args)
        assert config == RunConfig(
            keys=2000, key_size=30, value_size=200, ops=12000, windows=4,
            read_pct=55, update_pct=25, insert_pct=10, delete_pct=10,
            ct_init=1, seed=7, structure="hashmap")
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run([sys.executable, "-m", "tierheap", "--digest",
                               *args], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == cli.layout_digest(config) + "\n"
        assert main(["--digest", "--read-pct", "50"]) == 2

    def test_baseline_same_seed_runs_clean(self):
        instrumented = run_benchmark(small_config())
        baseline = run_benchmark(small_config(baseline=True))
        # identical op streams by construction (same spec + seed); the
        # baseline simply has no guide activity to report
        assert baseline.summary["prSeries"] == [0.0] * SMALL["windows"]
        assert baseline.summary["aggregateUtilizationBefore"] == 0.0
        assert baseline.summary["throughputOpsPerSec"] > 0
        assert instrumented.summary["throughputOpsPerSec"] > 0
        assert len(baseline.store) == len(instrumented.store)

    def test_mixed_workload_with_audit(self):
        result = run_benchmark(small_config(
            read_pct=70.0, update_pct=20.0, insert_pct=5.0, delete_pct=5.0))
        result.runtime.audit()
        result.runtime.registry.reclaim_retired()

    def test_skiplist_structure(self):
        result = run_benchmark(small_config(structure="skiplist", ops=4000))
        assert len(result.reports) == SMALL["windows"]
        result.runtime.audit()

    def test_report_artifacts(self, tmp_path):
        out = tmp_path / "run1"
        run_benchmark(small_config(report=str(out), hinted=True))
        windows = (out / "windows.jsonl").read_text().strip().splitlines()
        assert len(windows) == SMALL["windows"]
        for line in windows:
            record = json.loads(line)
            assert {"window_index", "pr_actual", "cold_threshold_after",
                    "promoted_to_hot", "demoted_to_cold",
                    "scanned_guides"} <= set(record)
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == set(SUMMARY_FIELDS)
        cdf = (out / "utilization_cdf.csv").read_text().splitlines()
        assert cdf[0] == "utilization,cum_fraction"
        assert (out / "hints.log").exists()

    def test_trace_mode_dispatch(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace([TraceRecord(0, "set", b"a", 64),
                     TraceRecord(100, "get", b"a", 0),
                     TraceRecord(2100, "get", b"a", 0)], path)
        result = run_benchmark(small_config(
            keys=10, ops=0, trace=str(path), scan_interval=1.0))
        assert result.replay_counts == {"get": 2, "set": 1, "del": 0}
        assert len(result.reports) >= 2


def window_report(index: int, pr: float, demoted: int) -> WindowReport:
    return WindowReport(
        window_index=index, pr_actual=pr, cold_threshold_after=3,
        promoted_to_hot=0, demoted_to_cold=demoted, new_to_hot=0,
        aborted_migrations=0, skipped_migrations=0, scanned_guides=0,
        heap_bytes={}, unique_cold_pages_accessed=0, working_set_pages=0,
        converged=True, hints_emitted=0, bytes_moved=0)


class TestAfterPick:
    """"After" utilization comes from the first below-target window whose
    access log was recorded after a window of demotions."""

    @pytest.mark.parametrize("first_demotion", [0, 1, 3, 5, None])
    def test_after_follows_the_first_demotions(self, monkeypatch,
                                               first_demotion):
        # PR is below target in every window, but before any demotion that
        # is vacuous.  Access window i is recorded before scan window i
        # demotes, so the first access log to follow demotions is k + 1;
        # with none inside the run the last window stands in.
        runtime = TierRuntime(region_length=1 << 20)
        target = runtime.collector.controller.pr_target
        demoting = range(6 if first_demotion is None else first_demotion, 6)
        runtime.collector.reports[:] = [
            window_report(i + 1, pr=target / 2,
                          demoted=100 if i in demoting else 0)
            for i in range(6)]
        access_windows = [10, 11, 12, 13, 14, 15]
        monkeypatch.setattr(
            cli, "_utilization_for",
            lambda _rt, window: SimpleNamespace(aggregate=float(window)))
        summary, after = cli._build_summary(small_config(), runtime,
                                            access_windows, 1, 1.0)
        pick = 5 if first_demotion is None else min(first_demotion + 1, 5)
        assert summary["aggregateUtilizationAfter"] == access_windows[pick]
        assert after.aggregate == access_windows[pick]


class TestExitCodes:
    def test_success(self, capsys):
        code = main(["--keys", "200", "--ops", "2000", "--windows", "2",
                     "--value-size", "128"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == set(SUMMARY_FIELDS)

    def test_package_runs_as_a_module_with_empty_stderr(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run(
            [sys.executable, "-m", "tierheap", "--keys", "200", "--ops",
             "400", "--windows", "1"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert set(json.loads(proc.stdout)) == set(SUMMARY_FIELDS)

    def test_invalid_mix_is_usage_error(self, capsys):
        code = main(["--read-pct", "50"])  # percentages sum to 50
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--windows", "0"],
        ["--ct-init", "0"], ["--ct-init", "40"],
        ["--value-size", "0"], ["--value-size", "70000"],
        ["--zipf-alpha", "-1"], ["--key-size", "19"],
        ["--read-pct", "150", "--update-pct", "-50"],
        ["--read-pct", "nan", "--update-pct", "100"],
        ["--zipf-alpha", "nan"], ["--scan-interval", "nan"],
        ["--pr-target", "nan"], ["--pr-target", "-1"],
        ["--seed", "-1"],
    ], ids="-".join)
    def test_invalid_windows_is_usage_error(self, args):
        assert main(["--keys", "50", "--ops", "100", "--windows", "1"]
                    + args) == 2

    def test_malformed_trace_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        code = main(["--keys", "10", "--ops", "0", "--value-size", "64",
                     "--trace", str(path)])
        assert code == 2

    @pytest.mark.parametrize("row", [
        "0,set,,10", "0,get," + "k" * 65537 + ",0", "0,set,k1,70000",
    ], ids=["empty-key", "long-key", "large-size"])
    def test_unstorable_trace_row_is_usage_error(self, tmp_path, capsys,
                                                 row):
        path = tmp_path / "bad.csv"
        path.write_text(f"ts_ms,op,key,size\n0,set,k0,64\n{row}\n")
        code = main(["--keys", "10", "--ops", "0", "--value-size", "64",
                     "--trace", str(path)])
        assert code == 2
        assert ":3:" in capsys.readouterr().err

    def test_trace_key_outside_latin_1_is_usage_error(self, tmp_path,
                                                       capsys):
        path = tmp_path / "bad.csv"
        path.write_text("ts_ms,op,key,size\n0,set,k\u20ac,10\n",
                        encoding="utf-8")
        code = main(["--keys", "10", "--ops", "0", "--value-size", "64",
                     "--trace", str(path)])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_missing_trace_is_runtime_fault(self, tmp_path):
        code = main(["--keys", "10", "--ops", "0", "--value-size", "64",
                     "--trace", str(tmp_path / "absent.csv")])
        assert code == 1

    @pytest.mark.parametrize("clock", ["logical", "realtime"])
    def test_worker_thread_fault_is_runtime_fault(self, monkeypatch, capsys,
                                                  clock):
        make_store = cli.make_store

        def faulty_store(*args, **kwargs):
            store = make_store(*args, **kwargs)

            def get(key):
                raise RuntimeError("injected get fault")

            store.get = get
            return store

        monkeypatch.setattr(cli, "make_store", faulty_store)
        code = main(["--keys", "100", "--ops", "200", "--threads", "2",
                     "--windows", "1", "--clock", clock,
                     "--scan-interval", "0.01"])
        assert code == 1
        assert "injected get fault" in capsys.readouterr().err
