"""The block certificates are not vacuous: on the selftest's instances with
each constraint binding, the solver's point passes its certificate, and the
same point made wrong by about 1e-6 shows a residual above 1e-6."""

import numpy as np
import pytest

from fdiscc import selftest
from fdiscc.beamforming import tx_certificate
from fdiscc.phaseadmm import step_certificate
from fdiscc.powercomp import power_certificate


@pytest.fixture(scope="module")
def binding():
    kkt = selftest.kkt_instances(*selftest.scenario())
    return {block: cases[1] for block, cases in kkt.items()}


def _step_moved(coeffs, state, lin, x):
    """x moved by 1e-6 ||x|| against the radar direction d."""
    return coeffs, state, lin, x - 1e-6 * np.linalg.norm(x) * lin.d / np.linalg.norm(lin.d)


WRONG = {
    "beams-scaled": ("transmit", tx_certificate,
                     lambda coeffs, w, info: (coeffs, (1.0 - 1e-6) * w, info)),
    "nu-zero": ("transmit", tx_certificate,
                lambda coeffs, w, info: (coeffs, w, {**info, "nu": 0.0})),
    "mu-off": ("power", power_certificate,
               lambda coeffs, cfg, p, f, info: (coeffs, cfg, p, f,
                                                {**info, "mu": 1.01 * info["mu"]})),
    "step-moved": ("phase", step_certificate, _step_moved),
}


@pytest.mark.parametrize("case", list(WRONG))
def test_wrong_point_is_flagged(binding, case):
    block, certificate, wrong = WRONG[case]
    args = binding[block]
    assert max(certificate(*args).values()) <= 1e-9
    assert max(certificate(*wrong(*args)).values()) > 1e-6
