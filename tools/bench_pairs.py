"""Paired benchmark runs of a parent revision against this checkout.

    python3 tools/bench_pairs.py <parent-rev> --seeds <first> --out BENCH_<n>.json

Extracts <parent-rev> with ``git archive`` into a temporary directory, then
runs each tree's ``bench/run.py --trace 0`` for 10 pairs on every workload
of ``BENCHMARK.json``, each run as long as its ``run_seconds`` (20 s), one
run at a time. Pair i of a workload runs
seed <first> + i on both sides, and the side that runs first alternates from
pair to pair, so drift of the machine falls on both sides alike. BLAS is
pinned to one thread. Tier-1 runs once on each tree first.

Every run is kept. The output file holds ``what``, ``command``, ``seeds``,
``machine``, ``src_fdiscc_lines``, ``tier1``, ``claim`` (none: a gain is
claimed by hand, against the summary), ``summary`` (per workload and metric,
each side's median and quartiles) and ``runs``. The temporary directory and
every child process are removed when the tool ends, also on an interrupt.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_CMD = "python3 bench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0"
PAIRS = 10
TIER1_CMD = "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"
ENV = os.environ | {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
SIDES = ("parent", "change")


def run_child(cmd: list[str], cwd: Path, env=ENV) -> subprocess.CompletedProcess:
    """``cmd`` in its own process group, which is killed if this tool stops
    before the child ends."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line a benchmark run prints, or a failed record."""
    done = run_child([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                      str(seed), "--seconds", str(seconds), "--trace", "0"], tree)
    if done.returncode:
        return {"correct": False, "returncode": done.returncode,
                "stderr": done.stderr[-2000:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def tier1(tree: Path) -> str:
    """The last line of the tree's tier-1 run, as pytest prints it."""
    done = run_child([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                      "--continue-on-collection-errors"], tree,
                     ENV | {"PYTHONPATH": str(tree / "src")})
    lines = done.stdout.strip().splitlines()
    return lines[-1].strip("= ") if lines else f"exit {done.returncode}"


def src_lines(tree: Path) -> dict:
    per_file = {p.name: len(p.read_text().splitlines())
                for p in sorted((tree / "src" / "fdiscc").glob("*.py"))}
    return {"total": sum(per_file.values()), "per_file": per_file}


def machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1}


def summarize(runs: list[dict]) -> dict:
    """Per workload: whether every run was correct, the failed cells over all
    runs, the largest relative difference of ``sum_bits_mean`` between the
    two sides of a pair (None when a run has none; sides that ran different
    pass counts differ in rounding), and per metric each side's median and
    quartiles (inclusive method)."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {"all_correct": all(r["result"].get("correct", False) for r in mine),
                 "failed": sum(r["result"].get("failed", 0) for r in mine)}
        bits = {}
        for r in mine:
            bits.setdefault(r["pair"], []).append(
                r["result"].get("metrics", {}).get("sum_bits_mean", {}).get("value", math.nan))
        diffs = [abs(b[0] - b[-1]) / (max(abs(b[0]), abs(b[-1])) or 1.0) if len(b) == 2
                 else math.nan for b in bits.values()]
        entry["sum_bits_max_rel_diff"] = None if any(map(math.isnan, diffs)) else max(diffs)
        metrics = dict.fromkeys(m for r in mine for m in r["result"].get("metrics", {}))
        for metric in metrics:
            for side in SIDES:
                vals = [r["result"]["metrics"][metric]["value"] for r in mine
                        if r["side"] == side and metric in r["result"].get("metrics", {})]
                if len(vals) >= 2:
                    entry.setdefault(metric, {})[f"{side}_median"] = statistics.median(vals)
                    entry[metric][f"{side}_quartiles"] = statistics.quantiles(
                        vals, n=4, method="inclusive")[::2]
        summary[workload] = entry
    return summary


def extract(rev: str, into: Path) -> str:
    """The tree of ``rev`` under ``into``; returns its short commit id."""
    commit = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--seeds", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    # a plain kill ends the tool through its finally blocks, as Ctrl-C does
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        commit = extract(args.parent_rev, trees["parent"])
        tier = {side: tier1(tree) for side, tree in trees.items()}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        runs = []
        for workload in workloads:
            for pair in range(PAIRS):
                seed = args.seeds + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = bench_run(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "pair": pair, "first": order[0], "result": result})
                    print(f"{workload} pair {pair} {side}: correct={result.get('correct')}",
                          file=sys.stderr)

    command = BENCH_CMD.format(seconds=seconds)
    what = (f"Parent (commit {commit}) against this change, {command}, {PAIRS} pairs per "
            "workload, the side that runs first alternating from pair to pair, one run at a "
            "time, BLAS pinned to one thread. Each side ran from its own copy of the source "
            "tree (the parent's taken by git archive).")
    report = {
        "what": what,
        "command": command,
        "seeds": dict.fromkeys(workloads, f"{args.seeds}-{args.seeds + PAIRS - 1}"),
        "machine": machine(),
        "src_fdiscc_lines": lines,
        "tier1": {"command": TIER1_CMD} | tier,
        "claim": None,
        "summary": summarize(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
