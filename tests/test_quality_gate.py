"""``tools/quality_gate.py`` reports how good the radio solver's runs are:
per (scale, scheme) sum_bits, statuses, iterations, users at p = 0, starved
CM-UEs and rejected phase calls, then scheme dominance, and a paired table
against another tree."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "quality_gate.py"
FIELDS = {"seed", "status", "iterations", "sum_bits", "p_zero", "starved",
          "phase_calls", "phase_reverted", "phase_infeasible"}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("quality_gate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report(tool):
    return tool.collect(str(ROOT / "src"), seeds=2)


def test_report_fields_on_two_seeds(tool, report, capsys):
    from fdiscc import orchestrator, phaseadmm

    assert report["seeds"] == 2 and report["max_iter"] == tool.MAX_ITER
    keys = [f"{scale} {scheme}" for scale in tool.SCALES for scheme in orchestrator.SCHEMES]
    assert list(report["runs"]) == keys and list(report["wall_s"]) == keys
    # the wrapper is taken off again
    assert phaseadmm.optimize_phase.__module__ == "fdiscc.phaseadmm"
    for key, records in report["runs"].items():
        assert [r["seed"] for r in records] == [0, 1]
        for r in records:
            assert set(r) == FIELDS
            assert r["phase_reverted"] + r["phase_infeasible"] <= r["phase_calls"]
            # one phase call per iteration, none with pinned phases
            assert r["phase_calls"] == (0 if key.endswith("fixed-phase") else r["iterations"])
        s = tool.summarize(records)
        assert sum(s["statuses"].values()) == 2
        assert s["iterations"] == sum(r["iterations"] for r in records)
    # the caching baselines share proposed's radio problem
    for scale in tool.SCALES:
        same = report["runs"][f"{scale} proposed"]
        assert report["runs"][f"{scale} no-caching"] == same
        for rival in ("fixed-phase", "full-offloading"):
            d = tool.dominance(report, scale, rival)
            assert set(d) == {"infeasible", "beats"}
            assert all(gain > 0.0 for gain in d["beats"].values())
    tool.print_report(report)
    out = capsys.readouterr().out
    assert "desk proposed" in out and "dominance" in out and "seeds 0-1" in out


def test_paired_table(tool, report):
    same = tool.paired(report, report)
    assert all(not row["wins"] and not row["losses"] and not row["changed"]
               for row in same.values())

    def runs(*rows):
        return {"runs": {"desk proposed": [
            {"seed": seed, "sum_bits": bits, "status": status, "iterations": iters}
            for seed, (bits, status, iters) in enumerate(rows)]}}

    mine = runs((2.0, "converged", 3), (1.0, "converged", 3), (3.0, "max-iter", 5))
    other = runs((1.0, "converged", 3), (4.0, "converged", 3), (0.0, "converged", 5))
    row = tool.paired(mine, other)["desk proposed"]
    assert row == {"ratios": [2.0, 0.25, None], "wins": [0, 2], "losses": [1],
                   "worst_loss": 0.25, "changed": [2]}
