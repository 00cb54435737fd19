"""Spans and counts around the calls into each layer of ``fdiscc``.

The recorder wraps module attributes from outside the package: it replaces the
attribute a caller looks up (``orchestrator.utility``, not only
``sysmodel.utility``) with a wrapper that records one span per call -- name,
start, end, parent span and cell -- and keeps the fields of the info record the
function already returns. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

SETUP_CELL = -1     # spans recorded while the workload is built
IGNORED_CELL = -2   # spans of the warm-up cell


def _phase_note(out) -> dict:
    info = out[1]
    return {"iterations": info.iterations,
            "accepted": not (info.reverted or info.infeasible)}


def _tx_note(out) -> dict:
    return {"accepted": bool(out[1]["accepted"])}


def _power_note(out) -> dict:
    info = out[2]
    return {"iterations": info["iterations"], "accepted": bool(info["accepted"])}


def _iterations_note(out) -> dict:
    return {"iterations": out.iterations}


def targets(fd) -> list[tuple]:
    """(module, attribute, span name, note) for every wrapped call site.

    ``fd`` is a namespace holding the imported ``fdiscc`` modules. A function
    reached through two attributes is wrapped at each, under one span name.
    """
    return [
        (fd.harness, "run_cell", "harness.run_cell", None),
        (fd.harness, "draw_channels", "channels.draw_channels", None),
        (fd.channels, "draw_channels", "channels.draw_channels", None),
        (fd.orchestrator, "run", "orchestrator.run", _iterations_note),
        (fd.orchestrator, "initialize", "orchestrator.initialize", None),
        (fd.orchestrator, "utility", "sysmodel.utility", None),
        (fd.orchestrator, "residuals", "sysmodel.residuals", None),
        (fd.sysmodel, "utility", "sysmodel.utility", None),
        (fd.sysmodel, "residuals", "sysmodel.residuals", None),
        (fd.sysmodel, "backhaul_cost", "sysmodel.backhaul_cost", None),
        (fd.wmmse, "update_aux", "wmmse.update_aux", None),
        (fd.wmmse, "bca_objective", "wmmse.bca_objective", None),
        (fd.phaseadmm, "optimize_phase", "phaseadmm.optimize_phase", _phase_note),
        (fd.phaseadmm, "admm_phi_step", "phaseadmm.admm_phi_step", None),
        (fd.beamforming, "optimize_tx", "beamforming.optimize_tx", _tx_note),
        (fd.beamforming, "solve_tx_sdr", "beamforming.solve_tx_sdr", None),
        (fd.beamforming, "gaussian_randomize", "beamforming.gaussian_randomize", None),
        (fd.beamforming, "optimize_rx", "beamforming.optimize_rx", None),
        (fd.conic, "solve_sdp", "conic.solve_sdp", _iterations_note),
        (fd.conic, "solve_qcqp", "conic.solve_qcqp", _iterations_note),
        (fd.powercomp, "optimize_power", "powercomp.optimize_power", _power_note),
        (fd.cacheopt, "solve_caching", "cacheopt.solve_caching", None),
        (fd.cacheopt, "random_caching", "cacheopt.random_caching", None),
    ]


class Recorder:
    """In-memory span log. ``install`` patches the targets; ``uninstall``
    puts every original attribute back."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent, cell]
        self.notes: list = []      # (span index, note dict)
        self.cell = SETUP_CELL
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        orig = getattr(module, attr)
        spans, notes, stack = self.spans, self.notes, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.cell])
            stack.append(idx)
            start = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if note is not None:
                notes.append((idx, note(out)))
            return out

        traced.__wrapped__ = orig
        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def install(self, fd) -> None:
        for module, attr, name, note in targets(fd):
            self.wrap(module, attr, name, note)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, cell) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "cell": cell}) + "\n")


def wrapper_cost_s(n: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op minus the bare no-op."""
    def noop():
        return None

    class Holder:
        pass

    holder = Holder()
    holder.noop = noop
    rec = Recorder()
    rec.wrap(holder, "noop", "noop")
    wrapped = holder.noop
    best = float("inf")
    for _ in range(3):
        rec.spans.clear()
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


def span_stats(rec: Recorder) -> dict:
    """Per span name: calls, total and self seconds, in-cell self seconds per
    module, and the collected notes. Warm-up spans are left out."""
    n = len(rec.spans)
    child_time = [0.0] * n
    for name, start, end, parent, cell in rec.spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    module_self = defaultdict(float)
    n_in_cells = 0
    for i, (name, start, end, parent, cell) in enumerate(rec.spans):
        if cell == IGNORED_CELL:
            continue
        own = (end - start) - child_time[i]
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own
        if cell >= 0:
            module_self[name.split(".", 1)[0]] += own
            n_in_cells += 1
    notes = defaultdict(list)
    for idx, note in rec.notes:
        if rec.spans[idx][4] != IGNORED_CELL:
            notes[rec.spans[idx][0]].append(note)
    return {"calls": calls, "total_s": total, "self_s": self_s,
            "module_self_s": module_self, "notes": notes, "spans_in_cells": n_in_cells}


MODULES = ("orchestrator", "harness", "channels", "sysmodel", "wmmse",
           "phaseadmm", "beamforming", "conic", "powercomp", "cacheopt")

# (name, unit, better) of every per-layer metric, in print order
LAYER_METRICS = (
    ("beamforming.optimize_tx.ms_per_call", "ms", "lower"),
    ("beamforming.optimize_tx.self_ms_per_call", "ms", "lower"),
    ("beamforming.optimize_tx.accepted_ratio", "ratio", "higher"),
    ("beamforming.solve_tx_sdr.self_ms_per_call", "ms", "lower"),
    ("beamforming.gaussian_randomize.ms_per_call", "ms", "lower"),
    ("beamforming.optimize_rx.ms_per_call", "ms", "lower"),
    ("conic.solve_sdp.ms_per_call", "ms", "lower"),
    ("conic.solve_sdp.newton_iters_per_call", "count", "lower"),
    ("phaseadmm.optimize_phase.ms_per_call", "ms", "lower"),
    ("phaseadmm.optimize_phase.self_ms_per_call", "ms", "lower"),
    ("phaseadmm.optimize_phase.admm_iters_per_call", "count", "lower"),
    ("phaseadmm.optimize_phase.accepted_ratio", "ratio", "higher"),
    ("phaseadmm.admm_phi_step.calls_per_phase_call", "count", "lower"),
    ("conic.solve_qcqp.ms_per_call", "ms", "lower"),
    ("conic.solve_qcqp.newton_iters_per_call", "count", "lower"),
    ("powercomp.optimize_power.ms_per_call", "ms", "lower"),
    ("powercomp.optimize_power.bisection_iters_per_call", "count", "lower"),
    ("powercomp.optimize_power.accepted_ratio", "ratio", "higher"),
    ("wmmse.update_aux.ms_per_call", "ms", "lower"),
    ("wmmse.bca_objective.ms_per_call", "ms", "lower"),
    ("cacheopt.solve_caching.calls_per_cell", "count", "lower"),
    ("cacheopt.solve_caching.ms_per_call", "ms", "lower"),
    ("cacheopt.random_caching.ms_per_call", "ms", "lower"),
    ("sysmodel.backhaul_cost.calls_per_iter", "count", "lower"),
    ("sysmodel.backhaul_cost.ms_per_call", "ms", "lower"),
    ("sysmodel.utility.ms_per_call", "ms", "lower"),
    ("sysmodel.residuals.ms_per_call", "ms", "lower"),
    ("orchestrator.initialize.ms_per_call", "ms", "lower"),
    ("orchestrator.run.iterations_per_call", "count", "lower"),
    ("orchestrator.run.self_ms_per_iter", "ms", "lower"),
    ("harness.run_cell.self_ms_per_call", "ms", "lower"),
    ("channels.draw_channels.ms_per_call", "ms", "lower"),
) + tuple((f"{m}.self_share", "ratio", "lower") for m in MODULES) + (
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.spans_per_cell", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.cells_per_s", "1/s", "higher"),
)


def layer_metrics(stats: dict, n_cells: int, n_iters: int, cell_s: float,
                  timed_s: float, span_cost_s: float) -> dict:
    """Every per-layer metric from the span statistics of the timed cells.

    ``cell_s`` is the summed wall time of the timed cells, measured outside
    every span; ``timed_s`` the timed window. A layer with no call reads 0.
    """
    calls, total, own, notes = (stats["calls"], stats["total_s"], stats["self_s"],
                                stats["notes"])

    def per_call(name, seconds):
        return 1e3 * seconds[name] / calls[name] if calls[name] else 0.0

    def note_mean(name, key):
        vals = [float(n[key]) for n in notes[name]]
        return sum(vals) / len(vals) if vals else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    # generic quantities follow from the metric's name
    v = {}
    for metric, _, _ in LAYER_METRICS:
        name, quantity = metric.rsplit(".", 1)
        if quantity == "ms_per_call":
            v[metric] = per_call(name, total)
        elif quantity == "self_ms_per_call":
            v[metric] = per_call(name, own)
        elif quantity == "accepted_ratio":
            v[metric] = note_mean(name, "accepted")
        elif quantity.endswith("iters_per_call"):
            v[metric] = note_mean(name, "iterations")
    v["phaseadmm.admm_phi_step.calls_per_phase_call"] = ratio(
        calls["phaseadmm.admm_phi_step"], calls["phaseadmm.optimize_phase"])
    v["cacheopt.solve_caching.calls_per_cell"] = ratio(calls["cacheopt.solve_caching"], n_cells)
    v["sysmodel.backhaul_cost.calls_per_iter"] = ratio(calls["sysmodel.backhaul_cost"], n_iters)
    v["orchestrator.run.iterations_per_call"] = ratio(n_iters, calls["orchestrator.run"])
    v["orchestrator.run.self_ms_per_iter"] = 1e3 * ratio(own["orchestrator.run"], n_iters)
    shares = {m: ratio(stats["module_self_s"][m], cell_s) for m in MODULES}
    for m in MODULES:
        v[f"{m}.self_share"] = shares[m]
    v["trace.unattributed_share"] = 1.0 - sum(shares.values())
    v["trace.spans_per_cell"] = ratio(stats["spans_in_cells"], n_cells)
    v["trace.overhead_share"] = ratio(stats["spans_in_cells"] * span_cost_s, cell_s)
    v["trace.cells_per_s"] = ratio(n_cells, timed_s)
    return {name: {"value": v[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
