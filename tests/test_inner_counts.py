"""Inner-solve work on full runs, as counts: they repeat exactly on any
machine. On ``proposed``, ``full-offloading`` and ``hd`` at desk and paper
scale, seeds 0-4, ``max_iter=50``:

- the transmit root-find's evaluations per ``solve_tx`` call (``iterations``);
- each user's power root-find evaluations, and the outer mu search's, over
  the solves that run them;
- the shapes of the phase block's data, which holds no M x M matrix.
"""

import dataclasses
import statistics

import numpy as np
import pytest

from fdiscc import beamforming, orchestrator, phaseadmm, powercomp
from fdiscc.channels import draw_channels
from fdiscc.config import desk_config, paper_config


@pytest.fixture(scope="module")
def counts():
    seen = {"tx": [], "user": [], "outer": [], "phase_shapes": []}
    solve_tx, root, assemble = (beamforming.solve_tx, powercomp.increasing_root,
                                phaseadmm.assemble_phase_coeffs)

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

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beamforming, "solve_tx", counted_tx)
        mp.setattr(powercomp, "increasing_root", counted_root)
        mp.setattr(phaseadmm, "assemble_phase_coeffs", shaped)
        for scheme in ("proposed", "full-offloading", "hd"):
            for make in (desk_config, paper_config):
                for seed in range(5):
                    cfg = make(seed=seed)
                    orchestrator.run(cfg, draw_channels(cfg),
                                     orchestrator.RunOptions(scheme=scheme, max_iter=50))
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
