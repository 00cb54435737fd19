"""Experiment runner: seeded Monte-Carlo sweeps, CSV emission and aggregation.

CSV schemas (all linear units: watts, Hz, bits, joules, seconds):

* run metrics row: ``RUN_CSV_COLUMNS`` -- seed, scheme, the swept scenario
  parameters, the Metrics projection, constraint residuals, iterations and
  status.  Deliberately excludes timing so identical (config, seed) runs give
  byte-identical files.
* sweep row: ``SWEEP_CSV_COLUMNS`` = run columns + wall_time_s.
* trace row: ``TRACE_CSV_COLUMNS`` -- per-iteration surrogate objective,
  utility and residuals (timing lives in the JSON result dump).
"""

from __future__ import annotations

import csv
import multiprocessing
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import orchestrator
from .channels import ChannelSet, draw_channels
from .config import (ConfigError, SystemConfig, check_field_kinds, read_json_object,
                     record_from_dict)
from .orchestrator import RADIO_MODE, RunOptions, RunResult, price, radio_key
from .sysmodel import METRICS_CSV_COLUMNS, metrics_csv_row

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SWEEP_PARAMETERS = ("m_passive", "p_bs_watt", "gamma_tar_linear",
                    "backhaul_rate", "skew", "n_tx")

SCENARIO_COLUMNS = ("m_passive", "m_active", "n_tx", "n_rx", "n_cm", "n_cp",
                    "p_bs_watt", "gamma_tar_linear", "backhaul_rate", "skew")

RESIDUAL_COLUMNS = ("res_power", "res_radar", "res_modulus", "res_energy", "res_cache")

RUN_CSV_COLUMNS = (("seed", "scheme") + SCENARIO_COLUMNS + METRICS_CSV_COLUMNS
                   + RESIDUAL_COLUMNS + ("iterations", "status"))

SWEEP_CSV_COLUMNS = RUN_CSV_COLUMNS + ("wall_time_s",)

TRACE_CSV_COLUMNS = ("iteration", "objective", "utility") + RESIDUAL_COLUMNS


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over schemes and seeds."""

    parameter: str
    values: tuple[float, ...]
    schemes: tuple = ("proposed",)
    n_seeds: int = 10
    output: str = "sweep.csv"
    seed_base: int = 0
    max_iter: int = 50
    base_config: dict | None = None

    def __post_init__(self):
        check_field_kinds(self)
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"unknown sweep parameter '{self.parameter}'; one of {SWEEP_PARAMETERS}")
        if len(self.values) == 0:
            raise ConfigError("sweep needs at least one value")
        if any(v <= 0 for v in self.values):
            raise ConfigError("sweep values must be positive")
        if self.parameter in ("m_passive", "n_tx") and any(int(v) != v or v < 1 for v in self.values):
            raise ConfigError(f"{self.parameter} values must be integers >= 1")
        if len(self.schemes) == 0:
            raise ConfigError("schemes must name at least one scheme")
        for scheme in self.schemes:
            RunOptions(scheme, self.max_iter)
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        if self.seed_base < 0:
            raise ConfigError(f"seed_base must be >= 0, got {self.seed_base}")
        if self.base_config is not None:
            sweep_base_config(self)


def load_sweep_spec(path: str | Path) -> SweepSpec:
    return record_from_dict(SweepSpec, read_json_object(path, SweepSpec, "sweep spec"),
                            "sweep spec")


def apply_parameter(cfg: SystemConfig, name: str, value, **changes) -> SystemConfig:
    """Return a config with one swept parameter, and any other ``changes``,
    replaced: one record built, two for a cache parameter."""
    if name in ("backhaul_rate", "skew"):
        return replace(cfg, cache=replace(cfg.cache, **{name: value}), **changes)
    if name in ("m_passive", "n_tx"):
        value = int(value)
    return replace(cfg, **{name: value}, **changes)


def scenario_values(cfg: SystemConfig) -> list:
    rate = cfg.cache.rate_array(max(cfg.n_cp, 1))
    return [cfg.m_passive, cfg.m_active, cfg.n_tx, cfg.n_rx, cfg.n_cm, cfg.n_cp,
            cfg.p_bs_watt, cfg.gamma_tar_linear, float(rate[0]), cfg.cache.skew]


def result_row(cfg: SystemConfig, result: RunResult, wall_s: float | None = None) -> dict:
    row = dict(zip(("seed", "scheme"), (cfg.seed, result.scheme)))
    row.update(zip(SCENARIO_COLUMNS, scenario_values(cfg)))
    row.update(zip(METRICS_CSV_COLUMNS,
                   metrics_csv_row(result.metrics, cfg.coherence_time_s)))
    # residuals of the last iteration; NaN when none ran
    row.update((c, getattr(result.trace[-1], c) if result.trace else float("nan"))
               for c in RESIDUAL_COLUMNS)
    row["iterations"] = result.iterations
    row["status"] = result.status
    if wall_s is not None:
        row["wall_time_s"] = wall_s
    return row


def evaluate_baseline(cfg: SystemConfig, ch: ChannelSet, scheme: str, max_iter: int = 50,
                      solves: dict | None = None) -> RunResult:
    """One scheme on ``ch``, as ``orchestrator.run``, with radio solves shared
    through ``solves``, a dict keyed by ``orchestrator.radio_key``: a call
    solves and stores its key on a miss, then prices the stored solve. This
    is exact because the radio solve reads neither ``cfg.cache`` nor the
    scheme's cache rule. The calls of one key must pass the channel set of its
    solve, ``RadioSolve.ch``, as ``run_cell`` does."""
    RunOptions(scheme, max_iter)                  # checks the scheme and the cap
    solves = {} if solves is None else solves
    key = radio_key(cfg, scheme, max_iter)
    if key not in solves:
        # read off the module, so that a patch of orchestrator.solve_radio sees sweeps too
        solves[key] = orchestrator.solve_radio(cfg, ch, RADIO_MODE[scheme], max_iter)
    return price(cfg, solves[key], scheme)


def run_cell(cfg: SystemConfig, parameter: str, value, scheme: str, seed: int,
             max_iter: int = 50, solves: dict | None = None) -> dict:
    """One sweep cell: draw channels for the seed, run the scheme through
    ``evaluate_baseline``, build a row.

    A cell whose radio problem is already solved in ``solves`` reuses that
    solve and the channel set it ran on; ``draw_channels`` does not read the
    cache config, so that set equals a fresh draw."""
    cell_cfg = apply_parameter(cfg, parameter, value, seed=seed)
    shared = None if solves is None else solves.get(radio_key(cell_cfg, scheme, max_iter))
    ch = draw_channels(cell_cfg) if shared is None else shared.ch
    t0 = time.perf_counter()
    result = evaluate_baseline(cell_cfg, ch, scheme, max_iter=max_iter, solves=solves)
    return result_row(cell_cfg, result, wall_s=time.perf_counter() - t0)


def sweep_base_config(spec: SweepSpec, base_cfg: SystemConfig | None = None) -> SystemConfig:
    """The sweep's base config: ``base_cfg`` if given, else the spec's own."""
    if base_cfg is not None:
        return base_cfg
    return record_from_dict(SystemConfig, spec.base_config or {}, "base_config")


def keyed_cells(spec: SweepSpec, cfg: SystemConfig) -> list[tuple[tuple, tuple]]:
    """Every cell of the sweep in (value, scheme, seed) order, as its radio key
    (``orchestrator.radio_key``) and its ``run_cell`` arguments."""
    return [(radio_key(apply_parameter(cfg, spec.parameter, value, seed=seed), scheme,
                       spec.max_iter),
             (cfg, spec.parameter, value, scheme, seed, spec.max_iter))
            for value in spec.values for scheme in spec.schemes
            for seed in range(spec.seed_base, spec.seed_base + spec.n_seeds)]


def _run_cells(cells: list[tuple[tuple, tuple]]) -> list[dict]:
    """Run keyed cells in order. Every cell gets one dict of radio solves, in
    which the cells of one key share one solve (``evaluate_baseline``),
    deleted after the last of them."""
    left = Counter(key for key, _ in cells)
    solves: dict = {}
    rows = []
    for key, args in cells:
        rows.append(run_cell(*args, solves=solves))
        left[key] -= 1
        if not left[key]:
            del solves[key]
    return rows


@contextmanager
def _one_blas_thread_env():
    """Set the BLAS thread counts to 1 for the processes started inside the
    block, and put the caller's environment back on exit. A spawned process
    inherits the environment and reads these when numpy loads, which happens
    before any pool initializer could run."""
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_sweep(spec: SweepSpec, base_cfg: SystemConfig | None = None,
              workers: int = 1) -> list[dict]:
    """Execute every (value, scheme, seed) cell; rows come back in a
    deterministic order regardless of worker scheduling.

    A sweep shares two solves between its cells: a radio solve per radio key
    and a cache knapsack per cache config.

    Cells that differ only in the cache share one radio solve, kept and
    priced by ``evaluate_baseline``: those of a ``skew`` or ``backhaul_rate``
    sweep at one seed, and the ``proposed``, ``random-caching`` and
    ``no-caching`` cells of one (value, seed). The key is the cell config's
    fields but its cache, the scheme's radio mode and ``max_iter``
    (``orchestrator.radio_key``). The first cell of a key pays for the solve
    inside its own ``run_cell``, so its ``wall_time_s`` includes it; the cells
    of a key are counted up front, and the solve is deleted after the last of
    them. Cells run in (value, scheme, seed) order, which keeps cells of one
    cache config together, so a sweep over a cache parameter with caching
    schemes only holds at most ``n_seeds`` solves at a time, and the
    ``proposed`` cells of one cache config read one knapsack solve, which
    ``cacheopt.solve_caching`` keeps for the last config it saw in the process
    (the first such cell's ``wall_time_s`` includes it).

    With ``workers > 1`` each key's cells form one task in a pool of spawned
    processes, at most one process per key, each started with one BLAS
    thread. Spawned processes import the caller's main module again, so a
    script that calls this must guard its entry point with
    ``if __name__ == "__main__":``."""
    cells = keyed_cells(spec, sweep_base_config(spec, base_cfg))
    groups: dict = {}
    for key, args in cells:
        groups.setdefault(key, []).append((key, args))
    n_workers = min(workers, len(groups))
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            with _one_blas_thread_env():
                pending = pool.map(_run_cells, groups.values())    # spawns the workers
            rows = [row for group_rows in pending for row in group_rows]
    else:
        rows = _run_cells(cells)
    rows.sort(key=lambda r: (r[spec.parameter], r["scheme"], r["seed"]))
    return rows


def write_csv(rows: list[dict], columns: tuple, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_trace_csv(result: RunResult, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_CSV_COLUMNS)
        for row in result.trace:
            writer.writerow([repr(getattr(row, c)) for c in TRACE_CSV_COLUMNS])


def aggregate(rows: list[dict], parameter: str) -> list[dict]:
    """Median and interquartile range of ``utility_bits`` per (scheme, value of
    the swept ``parameter``), in increasing swept value."""
    if not rows:
        raise ValueError("aggregate needs at least one row")
    groups: dict = {}
    for row in rows:
        groups.setdefault((row[parameter], row["scheme"]), []).append(float(row["utility_bits"]))
    out = []
    for (value, scheme), vals in sorted(groups.items()):
        arr = np.asarray(vals)
        q1, q3 = np.percentile(arr, [25.0, 75.0])
        out.append({
            "scheme": scheme, "value": value, "n": len(vals),
            "utility_bits_median": float(np.median(arr)),
            "utility_bits_iqr": float(q3 - q1),
        })
    return out
