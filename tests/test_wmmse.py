import numpy as np
import pytest

from fdiscc.channels import draw_channels
from fdiscc.config import desk_config
from fdiscc.sysmodel import composite_channels, link_terms, utility
from fdiscc.wmmse import (AuxVars, bca_objective, surrogate_sum,
                          surrogates, update_aux, _bracket)

from conftest import make_solution


class TestUpdateAux:
    def test_alpha_equals_sinr(self, small_cfg, small_ch, rand_sol):
        aux = update_aux(link_terms(rand_sol, small_ch, small_cfg))
        m = utility(rand_sol, small_ch, small_cfg)
        for k in range(small_cfg.n_cm):
            assert aux.alpha1[k] == pytest.approx(m.r_com[k], rel=1e-12)
        for l in range(small_cfg.n_cp):
            assert aux.alpha2[l] == pytest.approx(m.r_off[l], rel=1e-12)

    def test_zero_beam_gives_zero_aux(self, small_cfg, small_ch, rand_sol):
        w = rand_sol.w.copy()
        w[1] = 0.0
        aux = update_aux(link_terms(rand_sol.copy_with(w=w), small_ch, small_cfg))
        assert aux.alpha1[0] == 0.0
        assert aux.beta1[0] == 0.0

    def test_single_user_reduction(self):
        cfg = desk_config(m_passive=4, m_active=2, n_cm=1, n_cp=0, seed=9)
        ch = draw_channels(cfg)
        sol = make_solution(cfg, ch, np.random.default_rng(1))
        w = sol.w.copy()
        w[0] = 0.0
        sol = sol.copy_with(w=w)
        aux = update_aux(link_terms(sol, ch, cfg))
        comp = composite_channels(ch, sol.phi)
        expected = abs(comp.h[0] @ sol.w[1]) ** 2 / cfg.noise_ue_watt
        assert aux.alpha1[0] == pytest.approx(expected, rel=1e-12)

    def test_alpha_grid_is_maximizer(self, small_cfg, small_ch, rand_sol):
        # sweep alpha over a grid around the closed form; the surrogate at the
        # closed-form beta must peak at the closed-form alpha
        lt = link_terms(rand_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        k = 0
        sig, den = lt.com_sig[k], lt.com_den[k]
        alpha_hat = aux.alpha1[k]
        best_val, best_alpha = -np.inf, None
        for alpha in np.linspace(0.0, 10 * alpha_hat + 1.0, 1000):
            beta = np.sqrt(1 + alpha) * sig / den       # optimal beta given alpha
            val = _bracket(alpha, beta, sig, den)
            if val > best_val:
                best_val, best_alpha = val, alpha
        grid_step = (10 * alpha_hat + 1.0) / 999
        assert abs(best_alpha - alpha_hat) <= grid_step


class TestSurrogates:
    def test_tightness_com(self, small_cfg, small_ch, rand_sol):
        lt = link_terms(rand_sol, small_ch, small_cfg)
        com, _ = surrogates(update_aux(lt), lt)
        m = utility(rand_sol, small_ch, small_cfg)
        for k in range(small_cfg.n_cm):
            rate = np.log2(1 + m.r_com[k])
            assert com[k] == pytest.approx(rate, abs=1e-9)

    def test_tightness_off(self, small_cfg, small_ch, rand_sol):
        lt = link_terms(rand_sol, small_ch, small_cfg)
        _, off = surrogates(update_aux(lt), lt)
        m = utility(rand_sol, small_ch, small_cfg)
        for l in range(small_cfg.n_cp):
            rate = np.log2(1 + m.r_off[l])
            assert off[l] == pytest.approx(rate, abs=1e-9)

    def test_zero_solution_zero_surrogate(self, small_cfg, small_ch, rand_sol):
        sol = rand_sol.copy_with(w=np.zeros_like(rand_sol.w))
        aux = AuxVars(alpha1=np.zeros(small_cfg.n_cm),
                      beta1=np.zeros(small_cfg.n_cm, complex),
                      alpha2=np.zeros(small_cfg.n_cp),
                      beta2=np.zeros(small_cfg.n_cp, complex))
        assert surrogates(aux, link_terms(sol, small_ch, small_cfg))[0][0] == 0.0

    def test_majorization_sampled(self, small_cfg, small_ch, rand_sol):
        # the surrogate lower-bounds log2(1+SINR) for every sampled (alpha, beta)
        rng = np.random.default_rng(11)
        lt = link_terms(rand_sol, small_ch, small_cfg)
        aux0 = update_aux(lt)
        r_com = utility(rand_sol, small_ch, small_cfg).r_com
        for k in range(small_cfg.n_cm):
            rate = np.log2(1 + r_com[k])
            sig, den = lt.com_sig[k], lt.com_den[k]
            for _ in range(1000):
                alpha = rng.uniform(0, 5 * aux0.alpha1[k] + 1)
                beta = (rng.normal() + 1j * rng.normal()) * abs(aux0.beta1[k] + 1e-30) * 2
                assert _bracket(alpha, beta, sig, den) <= rate + 1e-9

    def test_update_never_decreases_sum(self, small_cfg, small_ch, rand_sol):
        rng = np.random.default_rng(13)
        lt = link_terms(rand_sol, small_ch, small_cfg)
        aux0 = update_aux(lt)
        base = surrogate_sum(aux0, lt)
        for _ in range(20):
            pert = AuxVars(
                alpha1=aux0.alpha1 * rng.uniform(0.2, 2, small_cfg.n_cm),
                beta1=aux0.beta1 * (1 + 0.5 * (rng.normal(size=small_cfg.n_cm)
                                               + 1j * rng.normal(size=small_cfg.n_cm))),
                alpha2=aux0.alpha2 * rng.uniform(0.2, 2, small_cfg.n_cp),
                beta2=aux0.beta2 * (1 + 0.5 * (rng.normal(size=small_cfg.n_cp)
                                               + 1j * rng.normal(size=small_cfg.n_cp))))
            assert surrogate_sum(pert, lt) <= base + 1e-9

    def test_hd_excludes_cci_and_si(self, small_cfg, small_ch, rand_sol):
        comp = composite_channels(small_ch, rand_sol.phi)
        lt_fd = link_terms(rand_sol, small_ch, small_cfg, hd=False)
        lt_hd = link_terms(rand_sol, small_ch, small_cfg, hd=True)
        sig_fd, den_fd = lt_fd.com_sig[0], lt_fd.com_den[0]
        sig_hd, den_hd = lt_hd.com_sig[0], lt_hd.com_den[0]
        cci = float(rand_sol.p @ np.abs(comp.ebar[:, 0]) ** 2)
        assert sig_fd == sig_hd
        assert den_fd - den_hd == pytest.approx(cci, rel=1e-12)

    def test_bca_objective_includes_compute(self, small_cfg, small_ch, rand_sol):
        lt = link_terms(rand_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        total = bca_objective(rand_sol, small_cfg, aux, lt)
        loc = float(np.sum(rand_sol.f / (small_cfg.eps_array() * small_cfg.bandwidth_hz)))
        assert total == pytest.approx(surrogate_sum(aux, lt) + loc, rel=1e-12)
