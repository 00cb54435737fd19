"""Inner-solve work on full runs, as counts: they repeat exactly on any
machine. On ``proposed``, ``full-offloading`` and ``hd`` at desk and paper
scale, seeds 0-4, ``max_iter=50``:

- the transmit root-find's evaluations per ``solve_tx`` call (``iterations``);
- each user's power root-find evaluations, and the outer mu search's, over
  the solves that run them;
- the shapes of the phase block's data, which holds no M x M matrix;
- how often each derived quantity is built: the composite channels per phase
  vector, the channel constants per channel set, the per-user config arrays
  per config.
"""

import dataclasses
import statistics
from functools import cached_property

import numpy as np
import pytest

from fdiscc import beamforming, config, orchestrator, phaseadmm, powercomp, sysmodel
from fdiscc.channels import ChannelSet, draw_channels
from fdiscc.config import desk_config, paper_config

CHANNEL_CONSTANTS = ("target_row", "g_au_norm2")


@pytest.fixture(scope="module")
def counts():
    seen = {"tx": [], "user": [], "outer": [], "phase_shapes": [], "runs": [],
            **{name: [] for name in CHANNEL_CONSTANTS}}
    run = {}                    # the builds of the current run
    solve_tx, root, assemble = (beamforming.solve_tx, powercomp.increasing_root,
                                phaseadmm.assemble_phase_coeffs)
    composite, start, phase, broadcast = (sysmodel.composite_channels,
                                          orchestrator._start_for_phi,
                                          phaseadmm.optimize_phase, config._broadcast)

    def counted_tx(coeffs):
        w, info = solve_tx(coeffs)
        seen["tx"].append(info["iterations"])
        return w, info

    def counted_root(fn, *args):
        out = root(fn, *args)
        seen["user" if fn.__qualname__.startswith("_user_solve") else "outer"].append(out[1])
        return out

    def shaped(sol, ch, aux, cfg, lt):
        coeffs = assemble(sol, ch, aux, cfg, lt)
        seen["phase_shapes"].append((cfg.m_passive, [np.shape(getattr(coeffs, f.name))
                                                     for f in dataclasses.fields(coeffs)]))
        return coeffs

    def tallied(key, fn):
        def wrapper(*args):
            run[key] += 1
            return fn(*args)
        return wrapper

    def counted_phase(sol, *args):
        phi, info = phase(sol, *args)
        run["new_phases"] += phi is not sol.phi
        return phi, info

    def kept(name, fn):
        def wrapper(ch):
            seen[name].append(ch)           # the record, kept alive: ids stay unique
            return fn(ch)
        prop = cached_property(wrapper)
        prop.__set_name__(ChannelSet, name)
        return prop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beamforming, "solve_tx", counted_tx)
        mp.setattr(powercomp, "increasing_root", counted_root)
        mp.setattr(phaseadmm, "assemble_phase_coeffs", shaped)
        for module in (sysmodel, orchestrator):
            mp.setattr(module, "composite_channels", tallied("composites", composite))
        mp.setattr(orchestrator, "_start_for_phi", tallied("candidates", start))
        mp.setattr(phaseadmm, "optimize_phase", counted_phase)
        mp.setattr(config, "_broadcast", tallied("broadcasts", broadcast))
        for name in CHANNEL_CONSTANTS:
            mp.setattr(ChannelSet, name, kept(name, vars(ChannelSet)[name].func))
        for scheme in ("proposed", "full-offloading", "hd"):
            for make in (desk_config, paper_config):
                for seed in range(5):
                    run.update(composites=0, candidates=0, new_phases=0, broadcasts=0)
                    cfg = make(seed=seed)
                    res = orchestrator.run(cfg, draw_channels(cfg),
                                           orchestrator.RunOptions(scheme=scheme, max_iter=50))
                    seen["runs"].append(dict(run, iterations=res.iterations))
    return seen


@pytest.mark.parametrize("kind, bound", [("tx", 8), ("user", 9), ("outer", 6)])
def test_root_find_evaluations(counts, kind, bound):
    evaluations = counts[kind]
    report = (f"{kind}: {len(evaluations)} searches, median {statistics.median(evaluations)},"
              f" max {max(evaluations)}")
    print(report)
    assert len(evaluations) >= 50 and statistics.median(evaluations) <= bound, report


def test_phase_data_holds_no_square_matrix(counts):
    assert counts["phase_shapes"]
    for m, shapes in counts["phase_shapes"]:
        assert (m, m) not in shapes, shapes


def test_composite_once_per_phase_vector(counts):
    # one per start candidate, whose kept one the loop's start reuses, and one
    # per phase vector the phase block returns that is not the incoming one
    runs = counts["runs"]
    assert sum(r["new_phases"] for r in runs) < sum(r["iterations"] for r in runs)
    for r in runs:
        assert r["composites"] == r["candidates"] + r["new_phases"], r


@pytest.mark.parametrize("name", CHANNEL_CONSTANTS)
def test_channel_constants_once_per_channel_set(counts, name):
    built = counts[name]
    assert len(built) == len(counts["runs"]) == len({id(ch) for ch in built})


def test_config_arrays_once_per_config(counts):
    # every run has its own config: its two per-user arrays (e_max, eps) are
    # built once each, and the backhaul rates once, when the run is priced;
    # the catalogue's file lengths are built once per cache record
    runs = counts["runs"]
    assert all(r["broadcasts"] == 3 for r in runs[1:]), runs
    assert runs[0]["broadcasts"] in (3, 4), runs[0]
