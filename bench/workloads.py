"""The benchmark's workloads.

A *cell* is one call of ``orchestrator.run`` for one scheme on one
(config, seed), made directly or through ``harness.run_cell``. A workload
builds a fixed list of cells from the workload seed; one *pass* runs that
list once.

Cells stop after at most ``max_iter`` block-coordinate iterations (sooner if
they converge). Uncapped, a cell runs 6 to 50 iterations depending on its
channel draw, and a run of a few dozen cells would measure which draws it got
more than the code. For the same reason every paper-schemes scheme and every
sensing floor gets channel draws of its own: a pass covers 80 and 72 distinct
draws. On paper-schemes, 3 iterations halved the run-to-run spread of
``cells_per_s`` against 5.
The cache-catalogue workload keeps its channel seeds fixed and draws
its Zipf skews from the workload seed, so its block-coordinate part repeats
exactly and the cache layer's work is what varies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import tracing

SMOKE_MAX_ITER = 2
PAPER_SCHEMES = ("proposed", "full-offloading", "fixed-phase", "hd")
CACHE_SCHEMES = ("proposed", "random-caching", "no-caching")
SENSING_DB = (0.0, 17.0)
CACHE_SKEW_RANGES = ((0.7, 0.9), (1.3, 1.5))   # one flat and one steep Zipf skew per run
CACHE_FILES = 100_000
CACHE_SLOTS = 2_000          # capacity in files of the common length
CACHE_LENGTH = 1e5           # bits per file
SEED_STRIDE = 1000           # channel seeds of workload seed s start at s * SEED_STRIDE


@dataclass
class Cell:
    key: tuple                       # (scheme, swept value, channel seed)
    cfg: object = None
    ch: object = None
    result: object = None
    wall_s: float = 0.0
    error: str | None = None


@dataclass
class Plan:
    """Inputs of one run, built from the workload seed alone."""

    name: str
    n_cells: int                     # cells in one pass
    max_iter: int
    draws: list = field(default_factory=list)     # paper-schemes: (scheme, cfg, ch)
    specs: tuple = ()                             # sweeps: harness.SweepSpec each
    base_cfg: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_draws: int      # channel seeds per pass: per scheme, per floor, per skew
    max_iter: int     # block-coordinate iterations per cell at most


WORKLOADS = {
    w.name: w for w in (
        Workload("paper-schemes",
                 "paper scale (M=50) scheme comparison; the SDR transmit block dominates",
                 n_draws=20, max_iter=3),
        Workload("sensing-sweep",
                 "radar floor at 0 dB and 17 dB; the phase QCQP path runs ten times as often at the tight end",
                 n_draws=36, max_iter=3),
        Workload("cache-catalogue",
                 "1e5-file catalogue, 2000-file cache, seeded skews; the cache layer does real work",
                 n_draws=3, max_iter=5),
    )
}


class CellLog:
    """Collects the cells of a run and tells the recorder, if any, which cell
    is running. Cells run before ``timed`` is set are the warm-up."""

    def __init__(self, recorder=None):
        self.cells: list[Cell] = []
        self.warmup: list[Cell] = []
        self.timed = False
        self.recorder = recorder

    def begin(self, key: tuple) -> Cell:
        cell = Cell(key=key)
        if self.recorder is not None:
            self.recorder.cell = len(self.cells) if self.timed else tracing.IGNORED_CELL
        (self.cells if self.timed else self.warmup).append(cell)
        return cell

    def end(self) -> None:
        if self.recorder is not None:
            self.recorder.cell = tracing.IGNORED_CELL


def fixed_phase_reachable(fd, cfg, ch) -> bool:
    """Whether the fixed-phase heuristic phases can meet the radar floor with
    all power on the best echo direction: P_BS * lambda_max(Omega0) >= Gamma sigma^2."""
    phi = fd.orchestrator.fixed_phase_heuristic(ch, cfg)
    cascade = ch.g_s @ (phi[:, None] * ch.g_t)
    ceiling = cfg.p_bs_watt * float(np.linalg.eigvalsh(cascade.conj().T @ cascade)[-1])
    return ceiling >= cfg.gamma_tar_linear * cfg.noise_irs_watt * (1.0 + 1e-6)


def build(fd, name: str, seed: int, smoke: bool = False) -> Plan:
    """Configs and channel sets of one run. ``smoke`` keeps one channel seed
    and ``SMOKE_MAX_ITER`` iterations per cell: the same code paths, quickly."""
    n = 1 if smoke else WORKLOADS[name].n_draws
    max_iter = SMOKE_MAX_ITER if smoke else WORKLOADS[name].max_iter
    base = seed * SEED_STRIDE
    if name == "paper-schemes":
        # each scheme runs on its own channel draws, so that one pass covers
        # four times as many draws as a shared set would at the same cost
        draws = {scheme: [] for scheme in PAPER_SCHEMES}
        for k, scheme in enumerate(PAPER_SCHEMES):
            i = 0
            while len(draws[scheme]) < n:
                cfg = fd.config.paper_config(seed=base + len(PAPER_SCHEMES) * i + k)
                ch = fd.channels.draw_channels(cfg)
                i += 1
                # the fixed-phase scheme has no feasible point on a draw whose
                # fixed phases cannot reach the radar floor (about 1 in 200)
                if scheme != "fixed-phase" or fixed_phase_reachable(fd, cfg, ch):
                    draws[scheme].append((cfg, ch))
        cells = [(scheme, *draws[scheme][i]) for i in range(n) for scheme in PAPER_SCHEMES]
        return Plan(name, len(cells), max_iter, draws=cells)
    if name == "sensing-sweep":
        # one sweep per floor, each on its own channel seeds
        specs = tuple(fd.harness.SweepSpec(
            parameter="gamma_tar_linear", values=(fd.config.db2lin(g),),
            schemes=("proposed",), n_seeds=n, seed_base=base + k * n, max_iter=max_iter)
            for k, g in enumerate(SENSING_DB))
        return Plan(name, n * len(SENSING_DB), max_iter, specs=specs,
                    base_cfg=fd.config.paper_config())
    # the cache layer's input is the popularity profile: the workload seed
    # draws the two skews, while the channel seeds stay 0..n-1 so that the
    # block-coordinate part of every cell repeats exactly from run to run
    rng = np.random.default_rng([seed, 0xCA])
    skews = tuple(round(float(rng.uniform(lo, hi)), 6) for lo, hi in CACHE_SKEW_RANGES)
    cache = fd.config.CacheConfig(n_files=CACHE_FILES, capacity=CACHE_SLOTS * CACHE_LENGTH,
                                  lengths=CACHE_LENGTH)
    spec = fd.harness.SweepSpec(
        parameter="skew", values=skews, schemes=CACHE_SCHEMES,
        n_seeds=n, seed_base=0, max_iter=max_iter)
    return Plan(name, n * len(skews) * len(CACHE_SCHEMES), max_iter, specs=(spec,),
                base_cfg=fd.config.desk_config(cache=cache))


class SweepHooks:
    """Wraps ``harness.run_cell`` (to time each cell) and
    ``harness.evaluate_baseline`` (to keep the inputs and the ``RunResult``)
    for the duration of a sweep."""

    def __init__(self, fd, log: CellLog, parameter: str):
        self.fd, self.log, self.parameter = fd, log, parameter
        self.current: Cell | None = None
        self._orig = {}

    def __enter__(self):
        harness = self.fd.harness
        run_cell, evaluate = harness.run_cell, harness.evaluate_baseline
        self._orig = {"run_cell": run_cell, "evaluate_baseline": evaluate}
        hooks = self

        def timed_run_cell(*args, **kwargs):
            cell = hooks.log.begin(key=None)
            hooks.current = cell
            t0 = time.perf_counter()
            try:
                row = run_cell(*args, **kwargs)
            except Exception as exc:
                cell.error = repr(exc)
                raise
            finally:
                cell.wall_s = time.perf_counter() - t0
                hooks.log.end()
            cell.key = (row["scheme"], row[hooks.parameter], row["seed"])
            return row

        def keep_result(cfg, ch, *args, **kwargs):
            result = evaluate(cfg, ch, *args, **kwargs)
            hooks.current.cfg, hooks.current.ch, hooks.current.result = cfg, ch, result
            return result

        harness.run_cell = timed_run_cell
        harness.evaluate_baseline = keep_result
        return self

    def __exit__(self, *exc):
        for attr, orig in self._orig.items():
            setattr(self.fd.harness, attr, orig)
        return False


def run_paper_cell(fd, plan: Plan, log: CellLog, scheme: str, cfg, ch) -> None:
    cell = log.begin((scheme, None, cfg.seed))
    cell.cfg, cell.ch = cfg, ch
    opts = fd.orchestrator.RunOptions(scheme=scheme, max_iter=plan.max_iter)
    t0 = time.perf_counter()
    try:
        cell.result = fd.orchestrator.run(cfg, ch, opts)
    except Exception as exc:     # a raising cell counts as failed; the run goes on
        cell.error = repr(exc)
    finally:
        cell.wall_s = time.perf_counter() - t0
        log.end()


def warm_up(fd, plan: Plan, log: CellLog) -> None:
    """Run the first cell of the pass once, outside the timed window."""
    if plan.draws:
        run_paper_cell(fd, plan, log, *plan.draws[0])
        return
    spec = plan.specs[0]
    with SweepHooks(fd, log, spec.parameter):
        try:
            fd.harness.run_cell(plan.base_cfg, spec.parameter, spec.values[0],
                                spec.schemes[0], spec.seed_base, spec.max_iter)
        except Exception:
            pass                 # recorded on the cell as its error


def run_pass(fd, plan: Plan, log: CellLog) -> None:
    """One pass over the plan's cells; cells that raise are kept with their
    error. A sweep that raises loses the cells it had not reached, and the
    caller counts them as failed from ``plan.n_cells``."""
    if plan.draws:
        for scheme, cfg, ch in plan.draws:
            run_paper_cell(fd, plan, log, scheme, cfg, ch)
        return
    for spec in plan.specs:
        with SweepHooks(fd, log, spec.parameter):
            try:
                fd.harness.run_sweep(spec, plan.base_cfg, workers=1)
            except Exception:
                return
