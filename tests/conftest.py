import numpy as np
import pytest

from fdiscc.channels import draw_channels
from fdiscc.config import desk_config
from fdiscc.sysmodel import Solution


@pytest.fixture(scope="session")
def small_cfg():
    """Reduced-size scenario used by most unit tests."""
    return desk_config(m_passive=8, m_active=4, seed=7)


@pytest.fixture(scope="session")
def small_ch(small_cfg):
    return draw_channels(small_cfg)


def make_solution(cfg, ch, rng, p_scale=1e-8):
    """A generic mid-optimization state: random beams inside the power budget,
    random combiners, unit-modulus phases, feasible power/compute split."""
    k, l = cfg.n_cm, cfg.n_cp
    w = rng.normal(size=(k + 1, cfg.n_tx)) + 1j * rng.normal(size=(k + 1, cfg.n_tx))
    w *= np.sqrt(cfg.p_bs_watt / (2.0 * np.sum(np.abs(w) ** 2)))
    u = rng.normal(size=(l, cfg.n_rx)) + 1j * rng.normal(size=(l, cfg.n_rx))
    phi = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.m_passive))
    p = rng.uniform(0.0, p_scale, l)
    e_max = cfg.e_max_array()
    f = ((e_max - cfg.coherence_time_s * p) / (cfg.coherence_time_s * cfg.zeta)) ** (1 / 3)
    e = np.zeros(cfg.cache.n_files)
    return Solution(w=w, u=u, phi=phi, f=f, p=p, e=e)


@pytest.fixture()
def rand_sol(small_cfg, small_ch):
    return make_solution(small_cfg, small_ch, np.random.default_rng(42))


@pytest.fixture(params=[False, True], ids=["fd", "hd"])
def hd(request):
    """Duplex mode: full duplex, then half duplex (no CCI, no residual SI)."""
    return request.param


@pytest.fixture(params=["idle", "live"])
def uplink_sol(request, small_cfg, small_ch):
    """rand_sol's state with p drawn up to 1e-8 W (idle uplink, rand_sol
    itself) or up to e_max / (2T), where the CCI and the uplink interference
    weigh in the surrogates."""
    p_scale = 1e-8 if request.param == "idle" else float(
        small_cfg.e_max_array().min() / (2.0 * small_cfg.coherence_time_s))
    return make_solution(small_cfg, small_ch, np.random.default_rng(42), p_scale)
