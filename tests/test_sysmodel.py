import dataclasses

import numpy as np
import pytest

from fdiscc import beamforming, orchestrator, phaseadmm, powercomp
from fdiscc.channels import draw_channels
from fdiscc.config import _broadcast, desk_config, paper_config
from fdiscc.sysmodel import (SensingInfeasible, Solution, backhaul_cost, composite_channels,
                             link_terms, residuals, utility)
from fdiscc.wmmse import update_aux

from conftest import make_solution


def exact_repr(record) -> str:
    """repr with every float written to the last bit, arrays in full."""
    with np.printoptions(floatmode="unique", threshold=10**9):
        return repr(record)


class TestCompositeChannels:
    def test_matches_naive_products(self, small_cfg, small_ch, rand_sol):
        comp = composite_channels(small_ch, rand_sol.phi)
        phi_mat = np.diag(rand_sol.phi)
        for k in range(small_cfg.n_cm):
            direct = small_ch.h_pu[k].conj() @ phi_mat @ small_ch.g_t
            assert np.allclose(comp.h[k], direct, atol=1e-12)
            for l in range(small_cfg.n_cp):
                e = small_ch.e_direct[l, k] + small_ch.h_pu[k].conj() @ phi_mat @ small_ch.g_pu[l]
                assert abs(comp.ebar[l, k] - e) < 1e-12
        for l in range(small_cfg.n_cp):
            g = small_ch.g_r.conj().T @ phi_mat @ small_ch.g_pu[l]
            assert np.allclose(comp.g[l], g, atol=1e-12)

    def test_identity_phases_single_element(self):
        cfg = desk_config(m_passive=1, m_active=1, seed=3)
        ch = draw_channels(cfg)
        comp = composite_channels(ch, np.ones(1, complex))
        for k in range(cfg.n_cm):
            assert np.allclose(comp.h[k], ch.h_pu[k].conj() * ch.g_t[0])

    def test_zero_uplink_channel_leaves_direct_term(self, small_cfg, small_ch, rand_sol):
        comp = composite_channels(small_ch, rand_sol.phi)
        # additive structure: subtracting the cascaded part leaves e_direct
        cascade = (small_ch.h_pu.conj() * rand_sol.phi[None, :]) @ small_ch.g_pu.T
        assert np.allclose(comp.ebar - cascade.T, small_ch.e_direct, atol=1e-14)

    def test_dimension_mismatch_rejected(self, small_ch):
        with pytest.raises(ValueError):
            composite_channels(small_ch, np.ones(3, complex))


def _mc_downlink_sinr(sol, ch, cfg, k, n_sym=400_000, seed=0):
    """Symbol-level Monte-Carlo estimate of the CM-UE SINR."""
    rng = np.random.default_rng(seed)
    comp = composite_channels(ch, sol.phi)
    amps = sol.w @ comp.h[k]                   # h_k w_j per beam
    def syms(n):
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    desired = amps[k + 1] * syms(n_sym)
    interf = np.zeros(n_sym, complex)
    for j, a in enumerate(amps):
        if j != k + 1:
            interf += a * syms(n_sym)
    for l in range(cfg.n_cp):
        interf += np.sqrt(sol.p[l]) * comp.ebar[l, k] * syms(n_sym)
    num = float(np.mean(np.abs(desired) ** 2))
    den = float(np.mean(np.abs(interf) ** 2)) + cfg.noise_ue_watt
    return num / den


class TestSinrs:
    def test_downlink_no_interference_closed_form(self):
        cfg = desk_config(m_passive=4, m_active=2, n_cm=1, n_cp=0, seed=5)
        ch = draw_channels(cfg)
        rng = np.random.default_rng(0)
        sol = make_solution(cfg, ch, rng)
        w = sol.w.copy()
        w[0] = 0.0                              # no sensing beam
        sol = sol.copy_with(w=w)
        comp = composite_channels(ch, sol.phi)
        expected = abs(comp.h[0] @ sol.w[1]) ** 2 / cfg.noise_ue_watt
        assert utility(sol, ch, cfg).r_com[0] == pytest.approx(expected, rel=1e-12)

    def test_downlink_zero_beam(self, small_cfg, small_ch, rand_sol):
        w = rand_sol.w.copy()
        w[1] = 0.0
        sol = rand_sol.copy_with(w=w)
        assert utility(sol, small_ch, small_cfg).r_com[0] == 0.0

    def test_downlink_monte_carlo(self, small_cfg, small_ch, rand_sol):
        exact = utility(rand_sol, small_ch, small_cfg).r_com[0]
        mc = _mc_downlink_sinr(rand_sol, small_ch, small_cfg, 0)
        assert mc == pytest.approx(exact, rel=0.01)

    def test_radar_single_beam(self):
        cfg = desk_config(m_passive=4, m_active=2, n_cm=0, n_cp=0, seed=5)
        ch = draw_channels(cfg)
        rng = np.random.default_rng(1)
        w0 = rng.normal(size=cfg.n_tx) + 1j * rng.normal(size=cfg.n_tx)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        sol = Solution(w=w0[None, :], u=np.zeros((0, cfg.n_rx), complex), phi=phi,
                       f=np.zeros(0), p=np.zeros(0), e=np.zeros(cfg.cache.n_files))
        expected = np.linalg.norm((ch.g_s * phi[None, :]) @ ch.g_t @ w0) ** 2 / cfg.noise_irs_watt
        assert link_terms(sol, ch, cfg).r_tar == pytest.approx(expected, rel=1e-12)

    def test_radar_zero_beams(self, small_cfg, small_ch, rand_sol):
        sol = rand_sol.copy_with(w=np.zeros_like(rand_sol.w))
        assert link_terms(sol, small_ch, small_cfg).r_tar == 0.0

    def test_radar_monte_carlo(self, small_cfg, small_ch, rand_sol):
        rng = np.random.default_rng(3)
        n_sym = 400_000
        cascade = (small_ch.g_s * rand_sol.phi[None, :]) @ small_ch.g_t
        acc = 0.0
        for j in range(rand_sol.w.shape[0]):
            s = (rng.standard_normal(n_sym) + 1j * rng.standard_normal(n_sym)) / np.sqrt(2)
            acc += np.mean(np.abs(s) ** 2) * np.linalg.norm(cascade @ rand_sol.w[j]) ** 2
        den = float(rand_sol.p @ (np.abs(small_ch.g_au) ** 2).sum(axis=1)) + small_cfg.noise_irs_watt
        mc = acc / den
        assert mc == pytest.approx(link_terms(rand_sol, small_ch, small_cfg).r_tar, rel=0.01)

    def test_offload_no_downlink(self):
        cfg = desk_config(m_passive=4, m_active=2, n_cm=0, n_cp=1, seed=6)
        ch = draw_channels(cfg)
        sol = make_solution(cfg, ch, np.random.default_rng(2))
        sol = sol.copy_with(w=np.zeros_like(sol.w))
        comp = composite_channels(ch, sol.phi)
        u = sol.u[0]
        expected = sol.p[0] * abs(np.vdot(u, comp.g[0])) ** 2 / (
            np.vdot(u, u).real * cfg.noise_bs_watt)
        assert utility(sol, ch, cfg).r_off[0] == pytest.approx(expected, rel=1e-12)

    def test_offload_orthogonal_combiner(self):
        cfg = desk_config(m_passive=4, m_active=2, n_cm=0, n_cp=1, seed=6)
        ch = draw_channels(cfg)
        sol = make_solution(cfg, ch, np.random.default_rng(2), p_scale=1e-3)
        comp = composite_channels(ch, sol.phi)
        g = comp.g[0]
        u = np.zeros(cfg.n_rx, complex)
        u[0], u[1] = g[1].conj(), -g[0].conj()   # orthogonal to g
        sol = sol.copy_with(u=u[None, :])
        assert utility(sol, ch, cfg).r_off[0] == pytest.approx(0.0, abs=1e-20)

    def test_offload_monte_carlo(self, small_cfg, small_ch, rand_sol):
        cfg, ch, sol = small_cfg, small_ch, rand_sol
        rng = np.random.default_rng(4)
        comp = composite_channels(ch, sol.phi)
        n_sym = 400_000
        u = sol.u[0]
        amps = comp.g @ u.conj()
        def syms(n):
            return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        desired = np.sqrt(sol.p[0]) * amps[0] * syms(n_sym)
        interf = np.zeros(n_sym, complex)
        for lp in range(1, cfg.n_cp):
            interf += np.sqrt(sol.p[lp]) * amps[lp] * syms(n_sym)
        v = ch.h_si.conj().T @ u
        for j in range(sol.w.shape[0]):
            interf += (sol.w[j] @ v.conj()) * syms(n_sym)
        num = float(np.mean(np.abs(desired) ** 2))
        den = float(np.mean(np.abs(interf) ** 2)) + np.vdot(u, u).real * cfg.noise_bs_watt
        assert num / den == pytest.approx(utility(sol, ch, cfg).r_off[0], rel=0.01)

    def test_common_phase_rotation_invariance(self, small_cfg, small_ch, rand_sol):
        rot = np.exp(1j * 1.234)
        sol2 = rand_sol.copy_with(w=rot * rand_sol.w)
        m1, m2 = utility(rand_sol, small_ch, small_cfg), utility(sol2, small_ch, small_cfg)
        for k in range(small_cfg.n_cm):
            assert m2.r_com[k] == pytest.approx(m1.r_com[k], rel=1e-12)
        assert m2.r_tar == pytest.approx(m1.r_tar, rel=1e-12)
        for l in range(small_cfg.n_cp):
            assert m2.r_off[l] == pytest.approx(m1.r_off[l], rel=1e-12)


def _per_user_terms(sol, ch, cfg, hd):
    """The SINR model user by user: the reference of the vectorised link terms."""
    comp = composite_channels(ch, sol.phi)
    com = []
    for k in range(ch.h_pu.shape[0]):
        amps = sol.w @ comp.h[k]                        # h_k w_j per beam
        sig = amps[k + 1]
        interf = sum(abs(a) ** 2 for j, a in enumerate(amps) if j != k + 1)
        cci = 0.0 if hd else sum(sol.p[l] * abs(comp.ebar[l, k]) ** 2
                                 for l in range(ch.g_pu.shape[0]))
        rest = interf + cci + cfg.noise_ue_watt
        com.append((sig, rest + abs(sig) ** 2, cci, abs(sig) ** 2 / rest))
    off = []
    for l in range(ch.g_pu.shape[0]):
        u = sol.u[l]
        amps = comp.g @ u.conj()                        # u_l^H g_l' per CP-UE
        sig = np.sqrt(sol.p[l]) * amps[l]
        interf = sum(sol.p[j] * abs(a) ** 2 for j, a in enumerate(amps) if j != l)
        v = ch.h_si.conj().T @ u
        si = 0.0 if hd else sum(abs(wj @ v.conj()) ** 2 for wj in sol.w)
        noise = float(np.vdot(u, u).real) * cfg.noise_bs_watt
        rest = interf + si + noise
        sinr = abs(sig) ** 2 / rest if rest > 0 else 0.0
        off.append((sig, rest + abs(sig) ** 2, si, noise, amps, sinr))
    return com, off


class TestLinkTerms:
    @pytest.mark.parametrize("hd", [False, True])
    @pytest.mark.parametrize("case", ["random", "zero-combiner-row", "zero-power"])
    def test_matches_per_user_formulas(self, small_cfg, small_ch, rand_sol, hd, case):
        sol = rand_sol
        if case == "zero-combiner-row":
            u = sol.u.copy()
            u[1] = 0.0
            sol = sol.copy_with(u=u)
        elif case == "zero-power":
            sol = sol.copy_with(p=np.zeros(small_cfg.n_cp))
        lt = link_terms(sol, small_ch, small_cfg, hd)
        com, off = _per_user_terms(sol, small_ch, small_cfg, hd)

        def close(actual, expected):
            np.testing.assert_allclose(actual, np.array(expected), rtol=1e-12, atol=0.0)

        close(lt.com_sig, [t[0] for t in com])
        close(lt.com_den, [t[1] for t in com])
        close(lt.cci, [t[2] for t in com])
        close(lt.r_com, [t[3] for t in com])
        close(lt.off_sig, [t[0] for t in off])
        close(lt.off_den, [t[1] for t in off])
        close(lt.si, [t[2] for t in off])
        close(lt.noise_off, [t[3] for t in off])
        close(lt.uamp, [t[4] for t in off])
        close(lt.r_off, [t[5] for t in off])
        if hd:
            assert np.all(lt.cci == 0.0) and np.all(lt.si == 0.0)
        if case == "zero-combiner-row":
            assert lt.off_den[1] == 0.0 and lt.r_off[1] == 0.0
        if case == "zero-power":
            assert np.all(lt.off_sig == 0.0) and np.all(lt.r_off == 0.0)

    def test_radar_terms_match_dense_cascade(self, small_cfg, small_ch, rand_sol):
        # the rank-one rows against the dense M_a x M target response, with one,
        # a few and the paper's number of sensing elements
        for m_a in (1, 4, 10):
            cfg = desk_config(m_passive=8, m_active=m_a, seed=7)
            ch = draw_channels(cfg)
            sol = make_solution(cfg, ch, np.random.default_rng(m_a))
            t, gram = ch.target_row, ch.g_s.conj().T @ ch.g_s
            assert np.linalg.norm(np.outer(t.conj(), t) - gram) <= 1e-12 * np.linalg.norm(gram)
            cascade = ch.g_s @ np.diag(sol.phi) @ ch.g_t
            r, echo_gram = composite_channels(ch, sol.phi).r, cascade.conj().T @ cascade
            assert np.linalg.norm(np.outer(r.conj(), r) - echo_gram) \
                <= 1e-12 * np.linalg.norm(echo_gram)
            dense = sum(np.linalg.norm(cascade @ w) ** 2 for w in sol.w)
            disturbance = sum(sol.p[l] * np.linalg.norm(ch.g_au[l]) ** 2
                              for l in range(cfg.n_cp)) + cfg.noise_irs_watt
            lt = link_terms(sol, ch, cfg)
            assert lt.echo == pytest.approx(dense, rel=1e-12)
            assert lt.disturbance == pytest.approx(disturbance, rel=1e-12)
            assert lt.floor == pytest.approx(cfg.gamma_tar_linear * disturbance, rel=1e-12)
            assert lt.r_tar == pytest.approx(dense / disturbance, rel=1e-12)
        direct = small_ch.g_s @ np.diag(rand_sol.phi) @ small_ch.g_t
        interf = sum(rand_sol.p[l] * np.linalg.norm(small_ch.g_au[l]) ** 2
                     for l in range(small_cfg.n_cp))
        lt = link_terms(rand_sol, small_ch, small_cfg)
        floor = lt.floor
        assert floor == pytest.approx(
            small_cfg.gamma_tar_linear * (interf + small_cfg.noise_irs_watt), rel=1e-12)
        # the radar SINR meets Gamma exactly when the echo power meets the floor
        echo = float(np.sum(np.abs(direct @ rand_sol.w.T) ** 2))
        assert lt.r_tar == pytest.approx(
            small_cfg.gamma_tar_linear * echo / floor, rel=1e-12)


class TestSensingInfeasible:
    @pytest.mark.parametrize("site", ["initialize", "solve_tx", "solve_power_compute",
                                      "admm_phi_step"])
    def test_every_raise_site_raises_it(self, small_cfg, small_ch, rand_sol, site):
        # an unreachable floor at each place that can meet one
        lt = link_terms(rand_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        args = (rand_sol, small_ch, aux, small_cfg, lt)
        m = small_cfg.m_passive
        tx = beamforming.assemble_tx_coeffs(*args)
        calls = {
            "initialize": lambda: orchestrator.initialize(
                dataclasses.replace(small_cfg, gamma_tar_linear=1e12), small_ch,
                np.random.default_rng(0)),
            "solve_tx": lambda: beamforming.solve_tx(dataclasses.replace(
                tx, b0=2.0 * tx.p_bs * float(np.vdot(tx.d, tx.d).real))),
            "solve_power_compute": lambda: powercomp.solve_power_compute(
                dataclasses.replace(powercomp.assemble_power_coeffs(*args), c8=-1.0),
                small_cfg),
            "admm_phi_step": lambda: phaseadmm.admm_phi_step(
                phaseadmm.assemble_phase_coeffs(*args), 1.0, rand_sol.phi,
                np.zeros(m, complex), 1.0),
        }
        with pytest.raises(SensingInfeasible):
            calls[site]()


class TestLocalAndCost:
    @staticmethod
    def _local(small_cfg, small_ch, rand_sol, f):
        """utility's local rate and energy at CPU frequency f for every CP-UE,
        with eps = 1000 cycles/bit, T = 1 s and zeta = 1e-26."""
        cfg = dataclasses.replace(small_cfg, eps_cycles_per_bit=1000.0,
                                  coherence_time_s=1.0, zeta=1e-26)
        met = utility(rand_sol.copy_with(f=np.full(cfg.n_cp, f)), small_ch, cfg)
        return met.rate_loc, met.energy_loc

    def test_zero_frequency(self, small_cfg, small_ch, rand_sol):
        rate, energy = self._local(small_cfg, small_ch, rand_sol, 0.0)
        assert np.all(rate == 0.0) and np.all(energy == 0.0)

    def test_direct_arithmetic(self, small_cfg, small_ch, rand_sol):
        rate, energy = self._local(small_cfg, small_ch, rand_sol, 1e9)
        assert rate == pytest.approx(1e6)
        assert energy == pytest.approx(1e-26 * 1e27)

    def test_unit_ratio(self, small_cfg, small_ch, rand_sol):
        rate, _ = self._local(small_cfg, small_ch, rand_sol, 1000.0)
        assert rate == pytest.approx(1.0)

    def test_backhaul_all_cached(self, small_cfg):
        e = np.ones(small_cfg.cache.n_files)
        assert backhaul_cost(e, small_cfg.cache, 1.0, small_cfg.n_cp) == 0.0

    @pytest.mark.parametrize("skew", [0.8, 1.1, 1.4])
    def test_backhaul_exact_at_any_skew(self, skew):
        # the normalised Zipf popularity sums to 1 + 2e-16 at some skews; the
        # no-cache and all-cached costs must not inherit that rounding
        from dataclasses import replace
        cache = replace(desk_config().cache, skew=skew)
        t, n_cp = 0.5, 3
        price = cache.backhaul_price
        r0 = cache.rate_array(n_cp)
        v = cache.n_files
        # twice: the second call reads the cached Zipf weights
        for _ in range(2):
            assert backhaul_cost(np.zeros(v), cache, t, n_cp) == t * price * r0.sum()
            assert backhaul_cost(np.ones(v), cache, t, n_cp) == 0.0

    def test_backhaul_single_file(self):
        from dataclasses import replace
        from fdiscc.config import CacheConfig
        cache = CacheConfig(n_files=1, capacity=1.0, lengths=1.0,
                            backhaul_price=1.0, skew=1.2, backhaul_rate=123.0)
        assert backhaul_cost(np.zeros(1), cache, 1.0, 1) == pytest.approx(123.0)

    def test_backhaul_hand_zipf(self):
        from fdiscc.config import CacheConfig
        cache = CacheConfig(n_files=3, capacity=10.0, lengths=1.0,
                            backhaul_price=1.0, skew=1.0, backhaul_rate=1.0)
        # popularity 6/11, 3/11, 2/11; cache only the first file
        e = np.array([1.0, 0.0, 0.0])
        expected = (3 / 11 + 2 / 11) * 2.0     # two CP-UEs
        assert backhaul_cost(e, cache, 1.0, 2) == pytest.approx(expected)


    def test_backhaul_per_file_prices(self):
        from fdiscc.cacheopt import uncached_mass, zipf_popularity
        from fdiscc.config import CacheConfig
        rng = np.random.default_rng(5)
        prices = tuple(rng.uniform(0.0, 2.0, 50).tolist())
        cache = CacheConfig(n_files=50, capacity=10.0, lengths=1.0, backhaul_price=prices,
                            skew=0.8, backhaul_rate=(2.0, 5.0))
        e = np.where(rng.random(50) < 0.3, 1.0, rng.random(50))
        dense = 0.5 * np.sum(np.array(prices) * (1.0 - e) * zipf_popularity(50, 0.8)) * 7.0
        cost = backhaul_cost(e, cache, 0.5, 2)
        assert cost == pytest.approx(dense, rel=1e-12, abs=0.0)
        # the priced mass a placement rule hands over is the one charged
        assert backhaul_cost(e, cache, 0.5, 2, uncached_mass(e, cache)) == cost
        assert backhaul_cost(e, cache, 0.5, 2, 0.25) == pytest.approx(
            0.5 * max(prices) * 0.25 * 7.0, rel=1e-15)

    def test_backhaul_uniform_price_reads_given_mass(self, small_cfg):
        from fdiscc.cacheopt import uncached_mass
        cache = small_cfg.cache
        e = np.linspace(0.0, 1.0, cache.n_files)
        mass = uncached_mass(e, cache)
        assert backhaul_cost(e, cache, 1.0, 2, mass) == backhaul_cost(e, cache, 1.0, 2)
        assert backhaul_cost(e, cache, 1.0, 2, 0.25) == pytest.approx(
            0.25 * float(cache.backhaul_price) * 2 * float(cache.backhaul_rate), rel=1e-15)

class TestUtility:
    def test_zero_solution_full_cache(self, small_cfg, small_ch):
        cfg, ch = small_cfg, small_ch
        sol = Solution(w=np.zeros((cfg.n_cm + 1, cfg.n_tx), complex),
                       u=np.eye(cfg.n_rx, dtype=complex)[:cfg.n_cp],
                       phi=np.ones(cfg.m_passive, complex),
                       f=np.zeros(cfg.n_cp), p=np.zeros(cfg.n_cp),
                       e=np.ones(cfg.cache.n_files))
        m = utility(sol, ch, cfg)
        assert m.utility == 0.0
        assert m.sum_bits == 0.0

    def test_additive_reconstruction(self, small_cfg, small_ch, rand_sol):
        m = utility(rand_sol, small_ch, small_cfg)
        t = small_cfg.coherence_time_s
        rebuilt = t * (m.rate_com.sum() + m.rate_off.sum() + m.rate_loc.sum()) - m.d_total
        assert m.utility == pytest.approx(rebuilt, rel=1e-12)
        assert np.all(m.r_com >= 0) and np.all(m.r_off >= 0) and m.r_tar >= 0

    def test_duplicate_path_evaluation(self, small_cfg, small_ch, rand_sol):
        # independent re-evaluation from raw channels
        cfg, ch, sol = small_cfg, small_ch, rand_sol
        m = utility(sol, ch, cfg)
        b, t = cfg.bandwidth_hz, cfg.coherence_time_s
        lt = link_terms(sol, ch, cfg)
        total = 0.0
        for k in range(cfg.n_cm):
            total += t * b * np.log2(1 + lt.r_com[k])
        eps = cfg.eps_array()
        for l in range(cfg.n_cp):
            total += t * (b * np.log2(1 + lt.r_off[l]) + sol.f[l] / eps[l])
        total -= backhaul_cost(sol.e, cfg.cache, t, cfg.n_cp)
        assert m.utility == pytest.approx(total, rel=1e-12)

    def test_hd_halves_throughput_terms(self, small_cfg, small_ch, rand_sol):
        sol = rand_sol.copy_with(p=np.zeros(small_cfg.n_cp))
        fd = utility(sol, small_ch, small_cfg, hd=False)
        hd = utility(sol, small_ch, small_cfg, hd=True)
        # with p = 0 there is no CCI, so the downlink SINR coincides and the
        # HD rate is exactly half
        assert np.allclose(hd.rate_com, 0.5 * fd.rate_com)
        assert np.allclose(hd.rate_loc, fd.rate_loc)

    def test_residual_signs(self, small_cfg, small_ch, rand_sol):
        res = residuals(rand_sol, small_cfg, link_terms(rand_sol, small_ch, small_cfg))
        assert res["power"] <= 0.0       # built inside the budget
        assert res["energy"] <= 1e-9
        assert res["modulus"] <= 1e-12
        # the cache residual belongs to the placement, which pricing records
        assert set(res) == {"power", "radar", "modulus", "energy"}


class TestDuplexMode:
    def test_link_terms_carry_the_mode(self, small_cfg, small_ch, rand_sol):
        for hd, duplex in ((False, 1.0), (True, 0.5)):
            lt = link_terms(rand_sol, small_ch, small_cfg, hd)
            assert lt.hd is hd and lt.duplex == duplex
            # a passed record decides the mode, whatever ``hd`` says
            via_lt = utility(rand_sol, small_ch, small_cfg, not hd, lt=lt)
            own = utility(rand_sol, small_ch, small_cfg, hd)
            assert np.array_equal(via_lt.rate_com, own.rate_com)
            assert np.array_equal(via_lt.rate_off, own.rate_off)

    def test_mode_enters_only_through_link_terms(self):
        # the blocks take the LinkTerms record and never the mode itself, nor
        # an optional record they would recompute when it is missing; only the
        # model's own evaluators, link_terms and utility, take one. Only
        # utility takes a placement's cost, and no start takes a placement:
        # a run's placement is charged by pricing alone
        import importlib
        import inspect
        import pkgutil

        import fdiscc
        with_hd, optional, priced = set(), set(), set()
        for info in pkgutil.iter_modules(fdiscc.__path__):
            mod = importlib.import_module(f"fdiscc.{info.name}")
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                params = inspect.signature(fn).parameters.values()
                if any(p.name == "hd" for p in params):
                    with_hd.add(f"{info.name}.{name}")
                if any(p.name in ("lt", "comp") and p.default is None for p in params):
                    optional.add(f"{info.name}.{name}")
                if any(p.name in ("d_total", "res_cache") for p in params):
                    priced.add(f"{info.name}.{name}")
        assert with_hd == {"sysmodel.link_terms", "sysmodel.utility"}
        assert optional <= {"sysmodel.link_terms", "sysmodel.utility"}
        assert priced == {"sysmodel.utility"}
        for start in (orchestrator.initialize, orchestrator._start_for_phi):
            assert "e" not in inspect.signature(start).parameters


class TestDerivedOnce:
    """Each derived quantity is computed once per record it depends on, and a
    reused one equals a fresh computation bit for bit."""

    @pytest.mark.parametrize("make", [desk_config, paper_config], ids=["desk", "paper"])
    @pytest.mark.parametrize("uplink", ["p0", "live"])
    def test_link_terms_with_composite_equals_without(self, make, uplink, hd):
        cfg = make(seed=3)
        ch = draw_channels(cfg)
        p_scale = 0.0 if uplink == "p0" else float(
            cfg.e_max_array().min() / (2.0 * cfg.coherence_time_s))
        sol = make_solution(cfg, ch, np.random.default_rng(5), p_scale)
        comp = composite_channels(ch, sol.phi)
        given = link_terms(sol, ch, cfg, hd, comp)
        assert given.comp is comp
        assert exact_repr(given) == exact_repr(link_terms(sol, ch, cfg, hd))

    def test_composite_of_another_array_recomputed(self, small_cfg, small_ch, rand_sol):
        fresh = link_terms(rand_sol, small_ch, small_cfg)
        other = np.exp(1j * np.random.default_rng(3).uniform(0, 2 * np.pi, rand_sol.phi.size))
        for phi in (other, rand_sol.phi.copy()):       # stale, and equal but another array
            comp = composite_channels(small_ch, phi)
            lt = link_terms(rand_sol, small_ch, small_cfg, comp=comp)
            assert lt.comp is not comp and lt.comp.phi is rand_sol.phi
            assert exact_repr(lt) == exact_repr(fresh)

    def test_channel_constants_once_per_record(self):
        cfg = desk_config(seed=2)
        ch = draw_channels(cfg)
        fresh = {"target_row": (ch.a_active.conj() @ ch.g_s) / np.linalg.norm(ch.a_active),
                 "g_au_norm2": (np.abs(ch.g_au) ** 2).sum(axis=1)}
        for name, want in fresh.items():
            value = getattr(ch, name)
            assert value.dtype == want.dtype and value.tobytes() == want.tobytes()
            assert getattr(ch, name) is value and not value.flags.writeable
            with pytest.raises(ValueError):
                value[0] = 0.0
            copy = dataclasses.replace(ch)
            assert name not in vars(copy)
            assert getattr(copy, name) is not value
            assert getattr(copy, name).tobytes() == want.tobytes()
        louder = dataclasses.replace(ch, g_au=2.0 * ch.g_au)
        assert np.array_equal(louder.g_au_norm2, (np.abs(2.0 * ch.g_au) ** 2).sum(axis=1))

    def test_config_arrays_once_per_record(self):
        cfg = desk_config(e_max_joule=(0.01, 0.02), eps_cycles_per_bit=500.0)
        for read, field, value in ((cfg.e_max_array, "e_max_joule", (0.03, 0.04)),
                                   (cfg.eps_array, "eps_cycles_per_bit", 700.0)):
            arr = read()
            want = _broadcast(getattr(cfg, field), cfg.n_cp)
            assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes()
            assert read() is arr and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
            moved = dataclasses.replace(cfg, **{field: value})
            assert np.array_equal(getattr(moved, read.__name__)(), _broadcast(value, cfg.n_cp))
            assert getattr(dataclasses.replace(cfg), read.__name__)() is not arr
