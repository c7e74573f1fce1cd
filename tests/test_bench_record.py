"""tools/bench_record.py's gain numbers, on synthetic run records."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

METRICS = [{"name": "op_p50_s", "better": "lower"}, {"name": "ok_share", "better": "higher"}]


def _run(tree, pair, op, ok=1.0):
    return {"tree": tree, "pair": pair, "rc": 0,
            "metrics": {"op_p50_s": {"value": op}, "ok_share": {"value": ok}}}


def test_pairs_won_follow_each_metrics_direction():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # the change is faster in pairs 0-7, ties in pair 8 and is slower in 9;
    # its ok_share is higher in pair 3 only
    change = [v - 1 for v in parent[:8]] + [parent[8], parent[9] + 1]
    runs = [_run("parent", p, v) for p, v in enumerate(parent)]
    runs += [_run("change", p, v, ok=1.0 if p != 3 else 1.5) for p, v in enumerate(change)]
    got = bench_record.gain(runs, METRICS)
    assert got["op_p50_s"] == {"better": "lower", "pairs_won": 8, "pairs": 10, "parent_iqr": 4.5}
    assert got["ok_share"] == {"better": "higher", "pairs_won": 1, "pairs": 10, "parent_iqr": 0.0}


def test_a_failed_run_drops_its_pair_but_not_the_other_trees_spread():
    runs = [_run("parent", p, v) for p, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
    runs += [_run("change", p, 0.5) for p in range(4)]
    runs.append({"tree": "change", "pair": 4, "rc": 1})
    got = bench_record.gain(runs, METRICS[:1])["op_p50_s"]
    assert (got["pairs_won"], got["pairs"]) == (4, 4)
    assert got["parent_iqr"] == pytest.approx(2.0)  # quartiles 2 and 4 of 1..5


def test_no_parent_run_has_no_spread():
    got = bench_record.gain([_run("change", 0, 1.0)], METRICS[:1])["op_p50_s"]
    assert got == {"better": "lower", "pairs_won": 0, "pairs": 0, "parent_iqr": None}
