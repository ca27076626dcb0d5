"""`tools/ab_pairs.py`'s summary of paired benchmark runs, on canned lines."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ab_pairs  # noqa: E402


def result_line(del_p50: float, ops: float) -> str:
    """A `run.py` output whose last line is its JSON result."""
    return "del_p50_us  7.7 us\n" + json.dumps({
        "correct": True, "attempted": 100, "failed": 0,
        "metrics": {"del_p50_us": {"value": del_p50, "unit": "us"},
                    "mutator_ops_s": {"value": ops, "unit": "ops/s"}}})


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
    assert delete.lower == 4
    assert ops.parent_median == 102.0 and ops.change_median == 200.0
    assert ops.lower == 0
    line = delete.format()
    assert line.split()[:4] == ["del_p50_us", "7.7", "6.7", "7.55"]
    assert "4/5" in line and "-12.99%" in line
    assert delete.format_pairs().split(None, 1) == [
        "del_p50_us", "7.9->6.7, 7.5->6.6, 7.7->7.8, 7.6->6.8, 7.8->6.5"]


def test_one_pair_has_its_own_value_as_quartiles():
    pair = (ab_pairs.parse_result(result_line(7.0, 1.0)),
            ab_pairs.parse_result(result_line(7.0, 1.0)))
    (delete, _) = ab_pairs.summarise([pair])
    assert delete.parent_quartiles == (7.0, 7.0) and delete.lower == 0
