"""``tools/trajectory.py`` chains the paired change/parent medians of every
benchmark file: pairs are matched by (workload, seed) within a file, and the
per-file medians multiply across files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trajectory.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, seed, side, **metrics):
    return {"workload": workload, "seed": seed, "side": side,
            "result": {"correct": True,
                       "metrics": {m: {"value": v, "unit": "1"} for m, v in metrics.items()}}}


def _write(path, runs, **extra):
    path.write_text(json.dumps({"summary": {}, **extra, "runs": runs}))
    return path


def test_pairs_by_seed_and_chains_medians(tool, tmp_path):
    # the first file lists its sides in any order and pools two seed sets;
    # its cells_per_s ratios are 2, 3 and 4 (median 3), its rss ratios 1
    first = _write(tmp_path / "BENCH_10.json", [
        _run("w", 1, "change", cells_per_s=20.0, rss=5.0),
        _run("w", 1, "parent", cells_per_s=10.0, rss=5.0),
        _run("w", 2, "parent", cells_per_s=10.0, rss=5.0),
        _run("w", 2, "change", cells_per_s=30.0, rss=5.0),
        _run("w", 7, "parent", cells_per_s=5.0, rss=5.0),
        _run("w", 7, "change", cells_per_s=20.0, rss=5.0),
        _run("v", 1, "parent", cells_per_s=4.0), _run("v", 1, "change", cells_per_s=2.0),
    ], summary_second_set={})
    # the second file has a failed change run (no metrics), which pairs with
    # nothing, and a metric only one side reports, which is skipped
    failed = {"workload": "w", "seed": 4, "side": "change", "result": {"correct": False}}
    second = _write(tmp_path / "BENCH_9.json", [
        _run("w", 3, "parent", cells_per_s=8.0, rss=4.0),
        _run("w", 3, "change", cells_per_s=10.0, rss=2.0),
        _run("w", 4, "parent", cells_per_s=1.0, rss=1.0), failed,
        _run("w", 5, "parent", cells_per_s=2.0, extra=1.0), _run("w", 5, "change", cells_per_s=2.5),
    ])
    assert tool.bench_files(tmp_path) == [second, first]      # by number, not by name
    per_file, chained = tool.trajectory([second, first])
    assert per_file["BENCH_10.json"] == {"w": {"cells_per_s": 3.0, "rss": 1.0},
                                         "v": {"cells_per_s": 0.5}}
    assert per_file["BENCH_9.json"] == {"w": {"cells_per_s": 1.25, "rss": 0.5}}
    assert chained == {"w": {"cells_per_s": 3.75, "rss": 0.5}, "v": {"cells_per_s": 0.5}}
    assert list(chained["w"]) == ["cells_per_s", "rss"]


def test_prints_the_product(tool, tmp_path, capsys):
    path = _write(tmp_path / "BENCH_1.json", [_run("w", 1, "parent", cells_per_s=2.0),
                                              _run("w", 1, "change", cells_per_s=3.0)])
    assert tool.main([str(path)]) == 0
    row = next(ln for ln in capsys.readouterr().out.splitlines() if "cells_per_s" in ln)
    assert row.split()[1:] == ["1.500", "1.500"]
