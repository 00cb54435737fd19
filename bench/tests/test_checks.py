"""Tests of the benchmark's own checks.

Each check must reject a deliberately broken cell, and a reduced run of every
workload must finish with 0 failed cells and print every metric that
``BENCHMARK.json`` names. Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from fdiscc import cacheopt, channels, config, orchestrator, sysmodel  # noqa: E402

@pytest.fixture(scope="module")
def cell():
    cfg = config.desk_config(seed=1)
    ch = channels.draw_channels(cfg)
    return cfg, ch, orchestrator.run(cfg, ch, orchestrator.RunOptions(max_iter=3))


def with_solution(cfg, ch, result, **changes):
    """The result with a changed solution and metrics that match it, so only
    the broken property is wrong."""
    sol = result.solution.copy_with(**changes)
    return dataclasses.replace(result, solution=sol,
                               metrics=sysmodel.utility(sol, ch, cfg, result.scheme == "hd"))


def kinds(problems):
    return {p.split(":", 1)[0] for p in problems}


def test_valid_cell_passes(cell):
    cfg, ch, res = cell
    assert res.iterations == 3
    assert checks.check_cell(cfg, ch, res) == []


def test_power_over_budget(cell):
    cfg, ch, res = cell
    w = res.solution.w * np.sqrt(1.01 * cfg.p_bs_watt / np.sum(np.abs(res.solution.w) ** 2))
    assert "power" in kinds(checks.check_cell(cfg, ch, with_solution(cfg, ch, res, w=w)))


def test_phase_off_unit_circle(cell):
    cfg, ch, res = cell
    phi = res.solution.phi.copy()
    phi[3] *= 1.001
    assert kinds(checks.check_cell(cfg, ch, with_solution(cfg, ch, res, phi=phi))) == {"modulus"}


def test_echo_below_sensing_floor(cell):
    cfg, ch, res = cell
    bad = with_solution(cfg, ch, res, w=res.solution.w * 0.01)
    assert checks.echo_sinr(cfg, ch, bad.solution) < cfg.gamma_tar_linear
    assert "echo" in kinds(checks.check_cell(cfg, ch, bad))


def test_decreasing_objective_trace(cell):
    cfg, ch, res = cell
    rows = list(res.trace)
    rows[-1] = dataclasses.replace(rows[-1], objective=rows[-2].objective - 1.0)
    bad = dataclasses.replace(res, trace=tuple(rows))
    assert kinds(checks.check_cell(cfg, ch, bad)) == {"objective"}


def test_cache_over_capacity(cell):
    cfg, ch, res = cell
    bad = with_solution(cfg, ch, res, e=np.ones(cfg.cache.n_files))
    assert kinds(checks.check_cell(cfg, ch, bad)) == {"cache"}


def test_returned_metrics_must_match_solution(cell):
    cfg, ch, res = cell
    sol = res.solution.copy_with(w=res.solution.w * 0.9)
    bad = dataclasses.replace(res, solution=sol)
    assert "sinr" in kinds(checks.check_cell(cfg, ch, bad))


def test_full_offloading_keeps_f_zero(cell):
    cfg, ch, res = cell
    bad = dataclasses.replace(res, scheme="full-offloading")
    assert "scheme" in kinds(checks.check_cell(cfg, ch, bad))


def cache_group(cfg, ch, res):
    """One BCA result under the three placements: only e differs."""
    placements = {
        "proposed": cacheopt.solve_caching(cfg.cache).e,
        "random-caching": cacheopt.random_caching(cfg.cache, np.random.default_rng(0)),
        "no-caching": np.zeros(cfg.cache.n_files),
    }
    return {s: with_solution(cfg, ch, res, e=e) for s, e in placements.items()}


def test_cache_group_passes_and_rejects_worse_placement(cell):
    cfg, ch, res = cell
    group = cache_group(cfg, ch, res)
    lp = checks.lp_uncached_share(cfg)
    assert checks.check_cache_group(cfg, group, lp) == []
    e = group["proposed"].solution.e.copy()
    e[0], e[-1] = 0.0, 1.0          # swap the most popular file for the least
    group["proposed"] = with_solution(cfg, ch, res, e=e)
    problems = checks.check_cache_group(cfg, group, lp)
    assert any("LP optimum" in p for p in problems)


def test_cache_group_rejects_unequal_bits(cell):
    cfg, ch, res = cell
    group = cache_group(cfg, ch, res)
    met = dataclasses.replace(group["no-caching"].metrics,
                              sum_bits=group["no-caching"].metrics.sum_bits * (1 + 1e-12))
    group["no-caching"] = dataclasses.replace(group["no-caching"], metrics=met)
    assert any("sum_bits differ" in p
               for p in checks.check_cache_group(cfg, group, checks.lp_uncached_share(cfg)))


def run_bench(*args):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failed_cell(name):
    res = run_bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0",
                    "--smoke")
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_smoke_trace_prints_every_layer_metric():
    res = run_bench("--workload", "sensing-sweep", "--seed", "3", "--seconds", "0",
                    "--trace", "1", "--smoke")
    assert res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert abs(res["metrics"]["trace.unattributed_share"]["value"]) < 0.01


def test_workload_list_matches_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
