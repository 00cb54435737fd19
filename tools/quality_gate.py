"""Solution quality of the radio solver on a fixed set of runs.

    python3 tools/quality_gate.py <src-dir> [--against <src-dir>] [--json]

Runs the 6 schemes on desk and paper scale, seeds 0-9 (120 runs),
``max_iter=50``, through ``orchestrator.run`` of the ``fdiscc``
package found in <src-dir>, and reports per (scale, scheme):

- the mean and per-seed ``sum_bits``;
- the status counts and the iterations;
- the runs that end with every CP-UE power p = 0 (as an infeasible run does);
- the runs that leave a CM-UE below 1e-3 of the best CM-UE's rate (starved);
- the phase-block calls, and those that kept the incoming phases because
  they were reverted or infeasible, counted by wrapping
  ``phaseadmm.optimize_phase``.

It then reports dominance per seed: ``fixed-phase`` and ``full-offloading``
are ``proposed`` with the phases pinned and with f = 0, so neither should
end above ``proposed``. Seeds where ``fixed-phase`` is infeasible are listed
apart.

With ``--against``, each tree runs in its own process, one after the other,
and the tool prints, per (scale, scheme), the per-seed ratio of this tree's
``sum_bits`` to the other's, the wins, the losses, the worst loss and the
runs whose status or iteration count differ. ``--json`` prints the raw
report of <src-dir> instead of the tables.

BLAS is pinned to one thread and every figure is deterministic but the wall
times, which are printed apart at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"       # before numpy is imported

SCALES = ("desk", "paper")
SEEDS = 10
MAX_ITER = 50
STARVED = 1e-3          # a CM-UE below this share of the best CM-UE's rate


def collect(src: str, seeds: int = SEEDS) -> dict:
    """The raw report of the ``fdiscc`` package in ``src``: one record per
    (scale, scheme) and seed 0 to ``seeds`` - 1, and the wall seconds per
    (scale, scheme)."""
    sys.path.insert(0, os.path.abspath(src))
    from fdiscc import channels, config, orchestrator, phaseadmm

    make = {"desk": config.desk_config, "paper": config.paper_config}
    optimize_phase, calls = phaseadmm.optimize_phase, []

    def recorded(*args):
        phi, info = optimize_phase(*args)
        calls.append(info)
        return phi, info

    phaseadmm.optimize_phase = recorded
    runs, wall = {}, {}
    try:
        for scale in SCALES:
            for scheme in orchestrator.SCHEMES:
                records, t0 = [], time.perf_counter()
                for seed in range(seeds):
                    cfg = make[scale](seed=seed)
                    calls.clear()
                    res = orchestrator.run(cfg, channels.draw_channels(cfg),
                                           orchestrator.RunOptions(scheme=scheme,
                                                                   max_iter=MAX_ITER))
                    rate = res.metrics.rate_com
                    records.append({
                        "seed": seed, "status": res.status, "iterations": res.iterations,
                        "sum_bits": float(res.metrics.sum_bits),
                        "p_zero": bool(res.solution.p.size) and not res.solution.p.any(),
                        "starved": bool(rate.size) and bool(rate.min() < STARVED * rate.max()),
                        "phase_calls": len(calls),
                        "phase_reverted": sum(info.reverted for info in calls),
                        "phase_infeasible": sum(info.infeasible for info in calls),
                    })
                runs[f"{scale} {scheme}"] = records
                wall[f"{scale} {scheme}"] = time.perf_counter() - t0
    finally:
        phaseadmm.optimize_phase = optimize_phase
    return {"seeds": seeds, "max_iter": MAX_ITER, "runs": runs, "wall_s": wall}


def summarize(records: list[dict]) -> dict:
    """Totals of one (scale, scheme)'s records."""
    return {
        "mean_sum_bits": sum(r["sum_bits"] for r in records) / len(records),
        "statuses": dict(sorted(Counter(r["status"] for r in records).items())),
        "iterations": sum(r["iterations"] for r in records),
        "p_zero": sum(r["p_zero"] for r in records),
        "starved": sum(r["starved"] for r in records),
        **{k: sum(r[k] for r in records)
           for k in ("phase_calls", "phase_reverted", "phase_infeasible")},
    }


def dominance(report: dict, scale: str, rival: str) -> dict:
    """Per seed, how far ``rival`` ends above ``proposed`` (rival / proposed
    - 1, where positive), and the seeds where the rival is infeasible."""
    infeasible, beats = [], {}
    runs = report["runs"]
    for mine, theirs in zip(runs[f"{scale} proposed"], runs[f"{scale} {rival}"]):
        if theirs["status"] == "infeasible-sensing":
            infeasible.append(theirs["seed"])
        elif theirs["sum_bits"] > mine["sum_bits"]:
            beats[theirs["seed"]] = theirs["sum_bits"] / mine["sum_bits"] - 1.0
    return {"infeasible": infeasible, "beats": beats}


def paired(mine: dict, other: dict) -> dict:
    """Per (scale, scheme), this tree's runs against the other's, seed by seed."""
    table = {}
    for key, records in mine["runs"].items():
        ratios, wins, losses, lost, changed = [], [], [], [], []
        for a, b in zip(records, other["runs"][key]):
            ratio = a["sum_bits"] / b["sum_bits"] if b["sum_bits"] else None
            ratios.append(ratio)
            if a["sum_bits"] > b["sum_bits"]:
                wins.append(a["seed"])
            elif a["sum_bits"] < b["sum_bits"]:
                losses.append(a["seed"])
                lost += [ratio] if ratio is not None else []
            if (a["status"], a["iterations"]) != (b["status"], b["iterations"]):
                changed.append(a["seed"])
        table[key] = {"ratios": ratios, "wins": wins, "losses": losses,
                      "worst_loss": min(lost) if lost else None, "changed": changed}
    return table


def _seeds(seeds) -> str:
    return ", ".join(map(str, seeds)) or "none"


def print_report(report: dict) -> None:
    n = report["seeds"]
    print(f"quality gate: 6 schemes x desk, paper x seeds 0-{n - 1}, "
          f"max_iter {report['max_iter']}, BLAS at 1 thread\n")
    print(f"{'run':22s}{'mean sum_bits':>15s}  {'statuses':34s}{'iters':>6s}{'p=0':>5s}"
          f"{'starved':>8s}{'phase calls':>12s}{'reverted':>9s}{'infeasible':>11s}")
    for key, records in report["runs"].items():
        s = summarize(records)
        statuses = ", ".join(f"{k} {v}" for k, v in s["statuses"].items())
        print(f"{key:22s}{s['mean_sum_bits']:15.7g}  {statuses:34s}{s['iterations']:6d}"
              f"{s['p_zero']:5d}{s['starved']:8d}{s['phase_calls']:12d}"
              f"{s['phase_reverted']:9d}{s['phase_infeasible']:11d}")
    print("\nper-seed sum_bits")
    for key, records in report["runs"].items():
        print(f"{key:22s}" + " ".join(f"{r['sum_bits']:.6g}" for r in records))
    print("\ndominance: seeds where a restriction of proposed ends above it")
    for scale in SCALES:
        for rival in ("fixed-phase", "full-offloading"):
            d = dominance(report, scale, rival)
            beats = ", ".join(f"{seed} by {100 * gain:.3g}%" for seed, gain in d["beats"].items())
            feasible = n - len(d["infeasible"])
            print(f"{scale:5s} {rival:15s} beats proposed on {len(d['beats'])} of {feasible} "
                  f"feasible seeds ({beats or 'none'}); infeasible on {_seeds(d['infeasible'])}")


def print_paired(table: dict) -> None:
    print("\nthis tree against the other: per-seed sum_bits ratio")
    print(f"{'run':22s}{'wins':>5s}{'losses':>7s}{'worst loss':>12s}  "
          f"{'status/iter changed':20s}ratios")
    for key, row in table.items():
        worst = f"{row['worst_loss']:.6g}" if row["worst_loss"] is not None else "-"
        ratios = " ".join("-" if r is None else f"{r:.6g}" for r in row["ratios"])
        print(f"{key:22s}{len(row['wins']):5d}{len(row['losses']):7d}{worst:>12s}  "
              f"{_seeds(row['changed']):20s}{ratios}")
    wins = sum(len(r["wins"]) for r in table.values())
    losses = sum(len(r["losses"]) for r in table.values())
    print(f"{'all':22s}{wins:5d}{losses:7d}")


def print_wall(report: dict, label: str) -> None:
    walls = " ".join(f"{key} {s:.2f}" for key, s in report["wall_s"].items())
    print(f"\nwall s{label} (not part of the report): {walls}; "
          f"total {sum(report['wall_s'].values()):.1f}")


def in_child(src: str) -> dict:
    """The raw report of ``src``, collected by this tool in a child process."""
    done = subprocess.run([sys.executable, __file__, src, "--json"],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src")
    ap.add_argument("--against", metavar="SRC")
    ap.add_argument("--json", action="store_true", help="print the raw report")
    args = ap.parse_args(argv)
    if args.against:
        mine, other = in_child(args.src), in_child(args.against)
    else:
        mine, other = collect(args.src), None
    if args.json:
        print(json.dumps(mine))
        return 0
    print_report(mine)
    if other is not None:
        print_paired(paired(mine, other))
        print_wall(other, f" of {args.against}")
    print_wall(mine, f" of {args.src}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
