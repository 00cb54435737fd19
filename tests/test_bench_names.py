"""The benchmark reaches into ``fdiscc`` by attribute name: its tracer wraps
the call sites listed by ``bench/tracing.py::targets``, and its sweep hooks
wrap ``harness.run_cell`` and ``harness.evaluate_baseline``. A rename in the
package must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from fdiscc import (beamforming, cacheopt, channels, conic, harness, orchestrator, phaseadmm,
                    powercomp, sysmodel, wmmse)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    fd = SimpleNamespace(beamforming=beamforming, cacheopt=cacheopt, channels=channels,
                         conic=conic, harness=harness, orchestrator=orchestrator,
                         phaseadmm=phaseadmm, powercomp=powercomp, sysmodel=sysmodel,
                         wmmse=wmmse)
    return [(module, attr) for module, attr, *_ in tracing.targets(fd)]


SWEEP_HOOKS = [(harness, "run_cell"), (harness, "evaluate_baseline")]


@pytest.mark.parametrize("module, attr", list(dict.fromkeys(_targets() + SWEEP_HOOKS)),
                         ids=lambda v: v if isinstance(v, str) else v.__name__.split(".")[-1])
def test_wrapped_name_exists_and_is_callable(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
