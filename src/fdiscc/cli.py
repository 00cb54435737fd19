"""Command-line entry point.

Subcommands:
  run       solve one scenario, print the metrics and write metrics.csv,
            trace.csv and result.json into --out
  sweep     execute a sweep-spec JSON file and write the row + aggregate CSVs
  selftest  quick invariant suite of ``selftest.py`` (no artifacts written)

Exit codes: 0 ok, 1 infeasible scenario, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, orchestrator, selftest
from .channels import draw_channels
from .config import ConfigError, desk_config, load_config, paper_config
from .orchestrator import SCHEMES, RunOptions, result_to_json


def _load_cfg(arg: str, paper_scale: bool, seed: int | None):
    if arg == "default":
        cfg = paper_config() if paper_scale else desk_config()
    else:
        cfg = load_config(arg)
        if paper_scale:
            cfg = replace(cfg, m_passive=50, m_active=10)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_cfg(args.config, args.paper_scale, args.seed)
    ch = draw_channels(cfg)
    result = orchestrator.run(cfg, ch, RunOptions(scheme=args.scheme,
                                                  max_iter=args.max_iter))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_csv([harness.result_row(cfg, result)],
                      harness.RUN_CSV_COLUMNS, out / "metrics.csv")
    harness.write_trace_csv(result, out / "trace.csv")
    (out / "result.json").write_text(result_to_json(result))

    m = result.metrics
    print(f"scheme={result.scheme} status={result.status} iterations={result.iterations}")
    print(f"utility_bits={m.utility:.6g} sum_bits={m.sum_bits:.6g} "
          f"backhaul_cost_bits={m.d_total:.6g}")
    print(f"radar_sinr={m.r_tar:.6g} (threshold {cfg.gamma_tar_linear:.6g})")
    print(f"rate_com={np.array2string(m.rate_com, precision=4)} "
          f"rate_off={np.array2string(m.rate_off, precision=4)} "
          f"rate_loc={np.array2string(m.rate_loc, precision=4)}")
    print(f"wrote {out / 'metrics.csv'}, {out / 'trace.csv'}, {out / 'result.json'}")
    return 1 if result.status == orchestrator.INFEASIBLE_SENSING else 0


def _cmd_sweep(args) -> int:
    spec = harness.load_sweep_spec(args.spec)
    base = load_config(args.config) if args.config != "default" else None
    base = harness.sweep_base_config(spec, base)
    cells = harness.keyed_cells(spec, base)
    print(f"sweep: {len(cells)} cells, {len({key for key, _ in cells})} radio solves")
    rows = harness.run_sweep(spec, base_cfg=base, workers=args.workers)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / spec.output
    harness.write_csv(rows, harness.SWEEP_CSV_COLUMNS, rows_path)
    agg = harness.aggregate(rows, spec.parameter)
    agg_path = rows_path.with_name(rows_path.stem + "_aggregate.csv")
    if agg:
        harness.write_csv(agg, tuple(agg[0].keys()), agg_path)
    print(f"wrote {len(rows)} rows to {rows_path} and aggregates to {agg_path}")
    bad = [r for r in rows if r["status"] == orchestrator.INFEASIBLE_SENSING]
    if bad:
        print(f"{len(bad)} cells were sensing-infeasible")
        return 1
    return 0


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdiscc",
                                     description="IRS-assisted FD sensing/communication/computing resource allocation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one scenario")
    p_run.add_argument("--config", default="default",
                       help="path to a JSON config, or 'default'")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--scheme", default="proposed", choices=SCHEMES)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--max-iter", type=_positive_int, default=50)
    p_run.add_argument("--paper-scale", action="store_true",
                       help="use the full-scale IRS (M=50, M_a=10)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec file")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--config", default="default")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=_positive_int, default=1,
                         help="worker processes (at most one per cell)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_self = sub.add_parser("selftest", help="quick invariant suite")
    p_self.set_defaults(func=lambda args: selftest.main())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
