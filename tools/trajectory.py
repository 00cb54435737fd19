"""The benchmark trajectory: chained paired ratios over every BENCH_*.json.

    python3 tools/trajectory.py [BENCH_21.json ...]

With no arguments it reads every ``BENCH_<n>.json`` at the root of the repo,
in the order of <n>. Each file's ``runs`` entries hold a ``workload``, a
``seed``, a ``side`` (parent or change) and the run's ``result.metrics``.
Within a file the parent and change runs are paired by (workload, seed), and
for each workload and metric the file's ratio is the median over its pairs of
change / parent. The trajectory is the product of those medians over the
files. Absolute values do not compare across files, since the machine drifts
between the days the files were measured, but a ratio of alternated pairs
within one file does, and so does their product.

A ratio above 1 is a rise of the metric: a gain for ``cells_per_s``, a loss
for the metrics where lower is better (``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import math
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_files(root: Path = ROOT) -> list[Path]:
    """Every ``BENCH_<n>.json`` under ``root``, in the order of <n>."""
    found = [(int(m.group(1)), p) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return [p for _, p in sorted(found)]


def paired_medians(runs: list[dict]) -> dict[str, dict[str, float]]:
    """Per workload and metric, the median over (workload, seed) pairs of the
    change run's value over the parent run's. A pair counts for a metric only
    if both runs report it, with a nonzero parent value."""
    values: dict[tuple, dict[str, dict]] = {}
    for run in runs:
        metrics = run.get("result", {}).get("metrics", {})
        values.setdefault((run["workload"], run["seed"]), {})[run["side"]] = metrics
    ratios: dict[str, dict[str, list[float]]] = {}
    for (workload, _), sides in values.items():
        parent, change = sides.get("parent", {}), sides.get("change", {})
        for metric in (m for m in parent if m in change):
            before, after = parent[metric]["value"], change[metric]["value"]
            if before:
                ratios.setdefault(workload, {}).setdefault(metric, []).append(after / before)
    return {w: {m: statistics.median(r) for m, r in per.items()} for w, per in ratios.items()}


def trajectory(files: list[Path]) -> tuple[dict, dict]:
    """Per file its paired medians, and per workload and metric their
    product over the files that report it."""
    per_file = {p.name: paired_medians(json.loads(p.read_text())["runs"]) for p in files}
    chained: dict[str, dict[str, float]] = {}
    for medians in per_file.values():
        for workload, per in medians.items():
            for metric, ratio in per.items():
                chained.setdefault(workload, {})[metric] = \
                    chained.get(workload, {}).get(metric, 1.0) * ratio
    return per_file, chained


def main(argv: list[str]) -> int:
    files = [Path(a) for a in argv] or bench_files()
    if not files:
        print("no BENCH_*.json found", file=sys.stderr)
        return 2
    per_file, chained = trajectory(files)
    metrics = list(dict.fromkeys(m for per in chained.values() for m in per))
    names = list(per_file)
    print(f"paired change/parent medians per file; product over {names[0]} to {names[-1]}")
    for workload, per in chained.items():
        print(f"\n{workload}")
        print(f"  {'metric':15s}" + "".join(f"{n.removesuffix('.json'):>10s}" for n in names)
              + f"{'product':>10s}")
        for metric in metrics:
            row = [per_file[n].get(workload, {}).get(metric, math.nan) for n in names]
            print(f"  {metric:15s}" + "".join(f"{r:10.3f}" for r in row)
                  + f"{per.get(metric, math.nan):10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
