"""Benchmark of the fdiscc resource-allocation solver.

    python3 bench/run.py --workload paper-schemes --seed 0 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) with one BLAS thread. Set-up time
is the median over fresh interpreters, started one after another, that import
numpy and fdiscc and build the run's inputs. Then this process alone builds the
inputs, runs one warm-up cell and then whole passes over the workload's cells,
serially, until at least ``--seconds`` of timed work have passed. Every cell is
checked (``checks.py``) after its pass, outside the timed window. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is imported anywhere in this process

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5

import checks  # noqa: E402  (these import numpy: after the thread settings)
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the workload's inputs, then exit (set-up probe)")
    ap.add_argument("--smoke", action="store_true",
                    help="one channel seed and a short iteration cap (tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0 (it seeds numpy generators)")
    return args


def import_package():
    """The fdiscc modules, from the checkout's own source tree."""
    sys.path.insert(0, str(SRC))
    from fdiscc import (beamforming, cacheopt, channels, config, conic, harness,
                        orchestrator, phaseadmm, powercomp, sysmodel, wmmse)
    return SimpleNamespace(beamforming=beamforming, cacheopt=cacheopt, channels=channels,
                           config=config, conic=conic, harness=harness,
                           orchestrator=orchestrator, phaseadmm=phaseadmm,
                           powercomp=powercomp, sysmodel=sysmodel, wmmse=wmmse)


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import numpy and fdiscc and
    build this run's configs and channel sets, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=30, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Verifier:
    """Checks the cells of each pass once the pass has ended, and keeps only
    what the metrics need, so memory does not grow with the number of passes."""

    def __init__(self, fd, plan):
        self.fd, self.plan = fd, plan
        self.correct = True
        self.failed = 0
        self.first_bits: dict = {}       # cell key -> sum_bits of its first run
        self.lp_share: dict = {}         # skew -> optimal uncached share
        self.done = 0                    # cells that returned a result
        self.wall_s: list[float] = []    # per cell that passed every check
        self.sum_bits: list[float] = []
        self.iter_ms: list[float] = []
        self.iterations = 0
        self.cell_s = 0.0                # wall time of every timed cell

    def warmup(self, cells) -> None:
        for cell in cells:
            if cell.result is not None:
                self.first_bits.setdefault(cell.key, cell.result.metrics.sum_bits)

    def check_pass(self, cells) -> None:
        infeasible = self.fd.orchestrator.INFEASIBLE_SENSING
        bad = set()

        def reject(i, problems):
            self.correct = False
            bad.add(i)
            for p in problems:
                print(f"check failed: {cells[i].key}: {p}", file=sys.stderr)

        for i, cell in enumerate(cells):
            self.cell_s += cell.wall_s
            if cell.result is None:
                bad.add(i)
                print(f"cell raised: {cell.key}: {cell.error}", file=sys.stderr)
                continue
            self.done += 1
            self.iterations += cell.result.iterations
            if cell.result.status == infeasible:
                bad.add(i)
                continue
            problems = checks.check_cell(cell.cfg, cell.ch, cell.result)
            # equal inputs give bit-identical results (warm-up and later passes)
            bits = self.first_bits.setdefault(cell.key, cell.result.metrics.sum_bits)
            if bits != cell.result.metrics.sum_bits:
                problems.append(f"repeat: sum_bits {cell.result.metrics.sum_bits!r} != {bits!r}")
            if problems:
                reject(i, problems)
        if self.plan.name == "cache-catalogue":
            self._check_cache_groups(cells, bad, reject)

        self.failed += len(bad)
        for i, cell in enumerate(cells):
            if i not in bad:
                walls = [row.wall_ms for row in cell.result.trace]
                self.iter_ms += [b - a for a, b in zip([0.0] + walls, walls)]
                self.wall_s.append(cell.wall_s)
                self.sum_bits.append(cell.result.metrics.sum_bits)
            cell.cfg = cell.ch = cell.result = None

    def _check_cache_groups(self, cells, bad, reject) -> None:
        groups: dict = {}
        for i, cell in enumerate(cells):
            if i not in bad:
                scheme, skew, seed = cell.key
                groups.setdefault((skew, seed), {})[scheme] = (i, cell)
        for (skew, _), members in sorted(groups.items()):
            if len(members) != len(workloads.CACHE_SCHEMES):
                continue      # a member failed and is already counted
            cfg = next(iter(members.values()))[1].cfg
            if skew not in self.lp_share:
                self.lp_share[skew] = checks.lp_uncached_share(cfg)
            problems = checks.check_cache_group(
                cfg, {s: c.result for s, (_, c) in members.items()}, self.lp_share[skew])
            if problems:
                for i, _ in members.values():
                    reject(i, problems)

    def end_to_end(self, timed_s: float, setup_s: float, peak_rss_mb: float) -> dict:
        # Iteration times cluster by scheme, floor and iteration index, so a
        # percentile of them jumps between clusters from run to run; the mean
        # does not (see README.md, "End-to-end metrics").
        metrics = {
            "setup_s": (setup_s, "s"),
            "cells_per_s": (self.done / timed_s, "1/s"),
            "cell_s_p50": (statistics.median(self.wall_s), "s"),
            "iter_ms_mean": (statistics.fmean(self.iter_ms), "ms"),
            "sum_bits_mean": (statistics.fmean(self.sum_bits), "bit"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "fdiscc" / "__init__.py").is_file():
        print(f"benchmark: no fdiscc package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.build(import_package(), args.workload, args.seed, args.smoke)
        return 0

    setup_s = measure_setup(args) if not args.trace else 0.0
    fd = import_package()
    rec = None
    if args.trace:
        rec = tracing.Recorder()
        rec.install(fd)
    try:
        plan = workloads.build(fd, args.workload, args.seed, args.smoke)
        log = workloads.CellLog(rec)
        verifier = Verifier(fd, plan)
        workloads.warm_up(fd, plan, log)
        verifier.warmup(log.warmup)
        log.timed = True
        timed_s = 0.0
        attempted = 0
        peak_rss_mb = None
        while True:
            before = len(log.cells)
            t0 = time.perf_counter()
            workloads.run_pass(fd, plan, log)
            timed_s += time.perf_counter() - t0
            attempted += plan.n_cells
            if peak_rss_mb is None:     # before the checks import scipy
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            lost = plan.n_cells - (len(log.cells) - before)
            verifier.check_pass(log.cells[before:])
            verifier.failed += lost
            if lost or timed_s >= args.seconds:
                break
    finally:
        if rec is not None:
            rec.uninstall()
    if not verifier.wall_s:
        print("benchmark: no cell passed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = tracing.layer_metrics(
            tracing.span_stats(rec), n_cells=len(log.cells), n_iters=verifier.iterations,
            cell_s=verifier.cell_s, timed_s=timed_s, span_cost_s=tracing.wrapper_cost_s())
        rec.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        width = max(len(k) for k in metrics)
        for name, m in metrics.items():
            print(f"{name:<{width}}  {m['value']:12.5g} {m['unit']}", file=sys.stderr)
    else:
        metrics = verifier.end_to_end(timed_s, setup_s, peak_rss_mb)
        for name, m in metrics.items():
            print(f"{name:<16} {m['value']:14.6g} {m['unit']}", file=sys.stderr)

    print(json.dumps({"correct": verifier.correct, "attempted": attempted,
                      "failed": verifier.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
