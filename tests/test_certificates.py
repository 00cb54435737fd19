"""The block certificates are not vacuous: on the selftest's instances with
each constraint binding, the solver's point passes its certificate, and the
same point made wrong by about 1e-6 shows a residual above 1e-6."""

from dataclasses import replace

import numpy as np
import pytest

from fdiscc import selftest
from fdiscc.beamforming import tx_certificate
from fdiscc.phaseadmm import step_certificate
from fdiscc.powercomp import power_certificate, solve_power_compute


@pytest.fixture(scope="module")
def binding():
    kkt = selftest.kkt_instances(*selftest.scenario())
    return {block: cases[1] for block, cases in kkt.items()}


def _step_moved(coeffs, rho, target, d, e, x):
    """x moved by 1e-6 ||x|| against the radar direction d."""
    return coeffs, rho, target, d, e, x - 1e-6 * np.linalg.norm(x) * d / np.linalg.norm(d)


def _mu_off(coeffs, cfg, p, f, info):
    """The power multiplier off by 1%."""
    return coeffs, cfg, p, f, {**info, "mu": 1.01 * info["mu"]}


WRONG = {
    "beams-scaled": ("transmit", tx_certificate,
                     lambda coeffs, w, info: (coeffs, (1.0 - 1e-6) * w, info)),
    "nu-zero": ("transmit", tx_certificate,
                lambda coeffs, w, info: (coeffs, w, {**info, "nu": 0.0})),
    "mu-off": ("power", power_certificate, _mu_off),
    "offload-mu-off": ("offload", power_certificate, _mu_off),
    "step-moved": ("phase", step_certificate, _step_moved),
}


@pytest.mark.parametrize("case", list(WRONG))
def test_wrong_point_is_flagged(binding, case):
    block, certificate, wrong = WRONG[case]
    args = binding[block]
    assert max(certificate(*args).values()) <= 1e-9
    assert max(certificate(*wrong(*args)).values()) > 1e-6


def test_full_offloading_cap_sign(binding):
    # with f = 0, p = E/T is optimal only where the p-derivative is not
    # negative there. With no linear cost and a slack budget every user sits
    # at the cap and is exact; with the cost kept, the users' optimum is
    # interior, and the same point moved to the cap is flagged
    coeffs, cfg, *_ = binding["offload"]
    p_cap = cfg.e_max_array() / cfg.coherence_time_s
    slack = 4.0 * float(p_cap @ coeffs.b9)
    for lin, at_cap in ((np.zeros_like(coeffs.lin), True), (coeffs.lin, False)):
        c = replace(coeffs, lin=lin, c8=slack)
        p, f, info = solve_power_compute(c, cfg, force_f_zero=True)
        assert np.all(p == p_cap) if at_cap else np.all(p < p_cap)
        assert max(power_certificate(c, cfg, p, f, info).values()) <= 1e-9
    assert power_certificate(c, cfg, p_cap, f, info)["stationarity"] > 1e-6
