"""``tools/bench_pairs.py`` summarizes paired benchmark runs: each side's
median and quartiles per workload and metric, the failed cells, and how far
apart the two sides of a pair read sum_bits."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, pair, side, cells_per_s, sum_bits=7.0, failed=0, correct=True):
    metrics = {"cells_per_s": {"value": cells_per_s, "unit": "1/s"},
               "sum_bits_mean": {"value": sum_bits, "unit": "bit"}}
    return {"workload": workload, "seed": 100 + pair, "side": side, "pair": pair,
            "first": "parent" if pair % 2 == 0 else "change",
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_summary_of_synthetic_runs(tool):
    parent = [10.0, 20.0, 30.0, 40.0, 50.0]
    change = [12.0, 22.0, 32.0, 42.0, 52.0]
    runs = [_run("a", i, side, v) for i, (p, c) in enumerate(zip(parent, change))
            for side, v in (("parent", p), ("change", c))]
    runs += [_run("b", 0, "parent", 1.0, sum_bits=5.0), _run("b", 0, "change", 2.0, failed=3),
             _run("b", 1, "change", 3.0), _run("b", 1, "parent", 4.0, correct=False)]
    summary = tool.summarize(runs)
    assert list(summary) == ["a", "b"]
    a = summary["a"]
    assert a["all_correct"] and a["failed"] == 0 and a["sum_bits_max_rel_diff"] == 0.0
    assert a["cells_per_s"] == {"parent_median": 30.0, "parent_quartiles": [20.0, 40.0],
                                "change_median": 32.0, "change_quartiles": [22.0, 42.0]}
    assert a["sum_bits_mean"]["parent_median"] == a["sum_bits_mean"]["change_median"] == 7.0
    b = summary["b"]
    assert not b["all_correct"] and b["failed"] == 3
    assert b["sum_bits_max_rel_diff"] == pytest.approx(2.0 / 7.0)
    assert b["cells_per_s"]["parent_median"] == 2.5
    assert b["cells_per_s"]["change_quartiles"] == [2.25, 2.75]


def test_a_failed_run_counts_as_incorrect(tool):
    # a run that exited with an error has no metrics: it is not correct, and
    # its pair shows no sum_bits difference
    runs = [_run("a", 0, "parent", 1.0), _run("a", 1, "parent", 1.0),
            _run("a", 0, "change", 1.0), {"workload": "a", "seed": 101, "side": "change",
                                          "pair": 1, "first": "change",
                                          "result": {"correct": False, "returncode": 1}}]
    entry = tool.summarize(runs)["a"]
    assert not entry["all_correct"] and entry["sum_bits_max_rel_diff"] is None
    assert entry["cells_per_s"]["parent_median"] == 1.0
    assert "change_median" not in entry["cells_per_s"]
