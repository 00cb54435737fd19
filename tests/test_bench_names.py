"""The benchmark reaches into ``fdiscc`` by attribute name: its tracer wraps
the call sites listed by ``bench/tracing.py::targets``, and its sweep hooks
wrap ``harness.run_cell`` and ``harness.evaluate_baseline``. A rename in the
package must fail here, not only in a traced benchmark run, and so must a
hook that stops seeing the cells of a sweep (``test_every_workload_sees_its_cells``)."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from fdiscc import (beamforming, cacheopt, channels, config, conic, harness, orchestrator,
                    phaseadmm, powercomp, sysmodel, wmmse)

BENCH = Path(__file__).resolve().parents[1] / "bench"
FD = SimpleNamespace(beamforming=beamforming, cacheopt=cacheopt, channels=channels,
                     config=config, conic=conic, harness=harness, orchestrator=orchestrator,
                     phaseadmm=phaseadmm, powercomp=powercomp, sysmodel=sysmodel, wmmse=wmmse)


def _load(name):
    """A bench module, registered under its own name while it runs: the
    workloads import ``tracing`` and define dataclasses, which need that."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _targets():
    with mock.patch.dict(sys.modules):
        tracing = _load("tracing")
    return [(module, attr) for module, attr, *_ in tracing.targets(FD)]


SWEEP_HOOKS = [(harness, "run_cell"), (harness, "evaluate_baseline")]


@pytest.mark.parametrize("module, attr", list(dict.fromkeys(_targets() + SWEEP_HOOKS)),
                         ids=lambda v: v if isinstance(v, str) else v.__name__.split(".")[-1])
def test_wrapped_name_exists_and_is_callable(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.fixture(scope="module")
def workloads():
    with mock.patch.dict(sys.modules):      # leaves no bench module behind
        _load("tracing")
        return _load("workloads")


@pytest.mark.parametrize("name", ["paper-schemes", "sensing-sweep", "cache-catalogue"])
def test_every_workload_sees_its_cells(workloads, name):
    # a smoke build, its warm-up and one pass, as the benchmark runs them
    plan = workloads.build(FD, name, seed=0, smoke=True)
    log = workloads.CellLog()
    workloads.warm_up(FD, plan, log)
    log.timed = True
    workloads.run_pass(FD, plan, log)
    assert len(log.warmup) == 1 and len(log.cells) == plan.n_cells
    for cell in log.warmup + log.cells:
        assert cell.error is None, cell.error
        assert cell.key is not None
        assert None not in (cell.cfg, cell.ch, cell.result)
    if name == "cache-catalogue":
        # the caching schemes of one (skew, seed) share one radio solve
        groups: dict = {}
        for cell in log.cells:
            groups.setdefault(cell.key[1:], set()).add(cell.result.metrics.sum_bits)
        assert len(groups) == plan.n_cells // len(workloads.CACHE_SCHEMES)
        assert all(len(bits) == 1 for bits in groups.values())
