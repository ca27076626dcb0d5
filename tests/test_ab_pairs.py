"""`tools/ab_pairs.py`'s summary of paired benchmark runs, on canned lines."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ab_pairs  # noqa: E402


def result_line(del_p50: float, ops: float, **extra) -> str:
    """A `run.py` output whose last line is its JSON result; `extra`
    overrides its top-level fields or, given as `metrics`, adds metrics."""
    result = {"correct": True, "attempted": 100, "failed": 0,
              "metrics": {"del_p50_us": {"value": del_p50, "unit": "us"},
                          "mutator_ops_s": {"value": ops, "unit": "ops/s"}}}
    result["metrics"].update(extra.pop("metrics", {}))
    return "del_p50_us  7.7 us\n" + json.dumps({**result, **extra})


def run_result(attempted=100, failed=0, hot=4096.0, cold=8192.0):
    """A parsed `run.py` result with its operation counts and layout
    metrics."""
    return ab_pairs.parse_result(result_line(
        7.0, 100.0, attempted=attempted, failed=failed,
        metrics={"hot_footprint_bytes": {"value": hot, "unit": "B"},
                 "cold_bytes": {"value": cold, "unit": "B"}}))


def test_summary_gives_medians_parent_quartiles_and_lower_pairs():
    parent = [7.9, 7.5, 7.7, 7.6, 7.8]
    change = [6.7, 6.6, 7.8, 6.8, 6.5]  # lower in 4 of 5 pairs
    pairs = [(ab_pairs.parse_result(result_line(p, 100.0 + i)),
              ab_pairs.parse_result(result_line(c, 200.0)))
             for i, (p, c) in enumerate(zip(parent, change))]
    delete, ops = ab_pairs.summarise(pairs)
    assert (delete.metric, delete.unit) == ("del_p50_us", "us")
    assert delete.parent_median == 7.7 and delete.change_median == 6.7
    assert delete.parent_quartiles == pytest.approx((7.55, 7.85))
    assert delete.wins == 4
    assert ops.parent_median == 102.0 and ops.change_median == 200.0
    assert ops.wins == 5  # mutator_ops_s: higher is better
    line = delete.format()
    assert line.split()[:4] == ["del_p50_us", "7.7", "6.7", "7.55"]
    assert "4/5" in line and "-12.99%" in line
    assert delete.format_pairs().split(None, 1) == [
        "del_p50_us", "7.9->6.7, 7.5->6.6, 7.7->7.8, 7.6->6.8, 7.8->6.5"]


def test_one_pair_has_its_own_value_as_quartiles():
    pair = (ab_pairs.parse_result(result_line(7.0, 1.0)),
            ab_pairs.parse_result(result_line(7.0, 1.0)))
    (delete, _) = ab_pairs.summarise([pair])
    assert delete.parent_quartiles == (7.0, 7.0) and delete.wins == 0


def paired(metric, parent, change):
    """Canned (parent, change) results of one metric, pair by pair."""
    def result(value):
        return ab_pairs.parse_result(json.dumps(
            {"metrics": {metric: {"value": value, "unit": "u"}}}))
    return [(result(p), result(c)) for p, c in zip(parent, change)]


SPEC = {"collector_s": {"better": "lower", "bound": 0.25},
        "cold_bytes": {"better": "higher", "bound": 0.1}}


def test_directions_and_bounds_come_from_the_benchmark():
    (ops,) = ab_pairs.summarise(paired("mutator_ops_s", [100.0, 100.0],
                                       [90.0, 110.0]))
    assert (ops.better, ops.bound) == ("higher", 0.25)
    assert ops.wins == 1


def test_a_higher_is_better_regression_is_not_a_win():
    (cold,) = ab_pairs.summarise(
        paired("cold_bytes", [100.0] * 4, [99.0, 98.0, 101.0, 97.0]), SPEC)
    assert cold.wins == 1  # lower in 3 of 4 pairs
    assert "1/4" in cold.format()


PARENT = [0.70, 0.72, 0.74, 0.76, 0.78, 0.80, 0.71, 0.75, 0.77, 0.79]


def test_claim_ok_needs_nine_of_ten_and_a_gap_past_the_quartiles():
    q1, q3 = ab_pairs.Row("x", "s", PARENT, PARENT).parent_quartiles
    faster = [value - 0.12 for value in PARENT]
    assert 0.12 > q3 - q1
    (row,) = ab_pairs.summarise(paired("collector_s", PARENT, faster), SPEC)
    assert row.wins == 10 and row.verdict == "claim-ok"
    assert row.format().split()[-1] == "claim-ok"
    # Better in only 8 of 10 pairs.
    (row,) = ab_pairs.summarise(
        paired("collector_s", PARENT, faster[:8] + PARENT[8:]), SPEC)
    assert row.wins == 8 and row.verdict == ""
    # Better in every pair, by less than the quartiles are apart.
    (row,) = ab_pairs.summarise(
        paired("collector_s", PARENT, [v - 0.01 for v in PARENT]), SPEC)
    assert row.wins == 10 and row.verdict == ""


def test_claim_ok_on_a_higher_is_better_metric():
    more = [value + 0.12 for value in PARENT]
    (row,) = ab_pairs.summarise(paired("cold_bytes", PARENT, more), SPEC)
    assert row.verdict == "claim-ok"
    (row,) = ab_pairs.summarise(paired("collector_s", PARENT, more), SPEC)
    assert row.wins == 0 and row.verdict == ""  # +16 %, within 25 %


@pytest.mark.parametrize("metric, factor, verdict", [
    ("collector_s", 1.30, "worse>bound"), ("collector_s", 1.20, ""),
    ("cold_bytes", 0.85, "worse>bound"), ("cold_bytes", 0.95, "")])
def test_worse_than_the_bound(metric, factor, verdict):
    (row,) = ab_pairs.summarise(
        paired(metric, PARENT, [v * factor for v in PARENT]), SPEC)
    assert row.verdict == verdict
    assert row.format().endswith(verdict)


@pytest.fixture
def offline(monkeypatch):
    """`main` with `extract` and `run_once` replaced: returns the revisions
    extracted and the (workload, seed) of every run."""
    extracted, ran = [], []
    monkeypatch.setattr(ab_pairs, "extract",
                        lambda rev, into: extracted.append(rev))

    def run_once(tree, workload, seed):
        ran.append((workload, seed))
        return run_result()

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    return extracted, ran


WORKLOADS = [w["name"] for w in json.loads(
    (ab_pairs.ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_every_workload_flag_runs_its_workload(offline, capsys):
    extracted, ran = offline
    assert ab_pairs.main(["--workload", "zipf-update-skiplist",
                          "--workload", "zipf-read-hashmap",
                          "--pairs", "2"]) == 0
    assert ran == [(workload, seed)
                   for workload in ("zipf-update-skiplist",
                                    "zipf-read-hashmap")
                   for seed in (1, 1, 2, 2)]
    out = capsys.readouterr().out
    assert "== zipf-update-skiplist: 2 pairs" in out
    assert "== zipf-read-hashmap: 2 pairs" in out
    assert out.count("failed share: parent 0.0000%, change 0.0000%\n") == 2
    assert out.count("layout identical (hot_footprint_bytes, cold_bytes): "
                     "2/2 pairs\n") == 2


@pytest.mark.parametrize("argv", [[], ["--workload", "all"]])
def test_all_workloads_by_default(offline, argv):
    extracted, ran = offline
    assert ab_pairs.main([*argv, "--pairs", "1"]) == 0
    assert extracted == ["HEAD"]
    assert [workload for workload, _ in ran[::2]] == WORKLOADS


def test_a_misspelt_workload_fails_before_extracting(offline, capsys):
    extracted, ran = offline
    with pytest.raises(SystemExit) as exited:
        ab_pairs.main(["--workload", "zipf-read-hashmap",
                       "--workload", "zipf-raed-hashmap"])
    assert exited.value.code == 2
    assert extracted == [] and ran == []
    assert "'zipf-raed-hashmap'" in capsys.readouterr().err


def test_failed_share_sums_over_pairs_and_flags_a_rise():
    # Parent: 3 of 400 failed; change: 4 of 500, a higher share only
    # when summed, since its pairs' own shares straddle the parent's.
    pairs = [(run_result(100, 0), run_result(400, 4)),
             (run_result(300, 3), run_result(100, 0))]
    assert ab_pairs.failed_share([p for p, _ in pairs]) == 3 / 400
    assert ab_pairs.failed_share([c for _, c in pairs]) == 4 / 500
    assert ab_pairs.format_failed(pairs) == (
        "failed share: parent 0.7500%, change 0.8000%  failed-share-rose")
    same = [(run_result(200, 1), run_result(200, 1))]
    assert not ab_pairs.format_failed(same).endswith("rose")
    lower = [(run_result(200, 2), run_result(200, 1))]
    assert ab_pairs.format_failed(lower) == (
        "failed share: parent 1.0000%, change 0.5000%")
    assert ab_pairs.failed_share([run_result(0, 0)]) == 0.0


def test_layout_counts_pairs_where_every_layout_metric_matches():
    pairs = [(run_result(), run_result()),
             (run_result(hot=1.0), run_result(hot=2.0)),
             (run_result(cold=1.0), run_result(cold=2.0)),
             (run_result(hot=5.0, cold=6.0), run_result(hot=5.0, cold=6.0))]
    assert ab_pairs.format_layout(pairs) == (
        "layout identical (hot_footprint_bytes, cold_bytes): 2/4 pairs")
