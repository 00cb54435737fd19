from dataclasses import replace

import numpy as np
import pytest

from fdiscc import conic, orchestrator, phaseadmm
from fdiscc.channels import draw_channels
from fdiscc.config import db2lin, desk_config, paper_config
from fdiscc.phaseadmm import (PhaseCoeffs, admm_phi_step, assemble_phase_coeffs,
                              echo_power, mm_linearize_radar, optimize_phase,
                              surrogate_value, unit_modulus)
from fdiscc.sysmodel import SensingInfeasible, link_terms
from fdiscc.wmmse import LN2, surrogate_sum, update_aux

from conftest import make_solution


def _t12(coeffs):
    """The quadratic weight T12 = F F^H of the factor."""
    return coeffs.factor @ coeffs.factor.conj().T


def _dense_t12(sol, ch, aux, lt):
    """T12 from Hadamard products of M x M Gram matrices (the oracle of the
    factor): (H_b o (G_w + G_p) + C_b o G_p) / ln 2, G_w alone in H_b's
    factor under HD."""
    gtw = sol.w @ ch.g_t.T
    c = sol.u @ ch.g_r.T
    g_w = gtw.conj().T @ gtw
    g_p = (ch.g_pu.conj().T * sol.p) @ ch.g_pu
    h_b = (ch.h_pu.T * np.abs(aux.beta1) ** 2) @ ch.h_pu.conj()
    c_b = (c.T * np.abs(aux.beta2) ** 2) @ c.conj()
    t12 = (h_b * g_w if lt.hd else h_b * (g_w + g_p)) + c_b * g_p
    t12 = t12 / LN2
    return (t12 + t12.conj().T) / 2.0


def _proximal_solve(factor, c, v):
    """(F F^H + c I)^-1 v through ``admm_phi_step``: with a zero target,
    rho = 1 / (2c) and a slack constraint it returns A^-1 t12."""
    m = factor.shape[0]
    coeffs = PhaseCoeffs(factor=factor, t12_vec=v, b12=0.0,
                         echo_rows=np.zeros((1, m), complex), b0=0.0)
    zero = np.zeros(m, complex)
    return admm_phi_step(coeffs, 1.0 / (2.0 * c), zero, zero, -1.0)[0]


def _svd_proximal_solve(factor, c, v):
    """The reference of the Gram-eigen inverse: (F F^H + c I)^-1 v from the
    thin SVD F = U Sigma W^H, as v / c - U diag(sigma^2 / (c (sigma^2 + c))) U^H v."""
    u, sigma, _ = np.linalg.svd(factor, full_matrices=False)
    sigma2 = sigma ** 2
    return v / c - u @ (sigma2 / (c * (sigma2 + c)) * (u.conj().T @ v))


def _captured_factors():
    """The factors F of every phase call of a short desk and paper run."""
    factors = []
    assemble = phaseadmm.assemble_phase_coeffs

    def captured(*args):
        coeffs = assemble(*args)
        factors.append(coeffs.factor)
        return coeffs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phaseadmm, "assemble_phase_coeffs", captured)
        for make in (desk_config, paper_config):
            cfg = make(seed=2)
            orchestrator.run(cfg, draw_channels(cfg), orchestrator.RunOptions(max_iter=3))
    return factors


@pytest.fixture()
def coeffs(small_cfg, small_ch, rand_sol):
    lt = link_terms(rand_sol, small_ch, small_cfg)
    aux = update_aux(lt)
    return assemble_phase_coeffs(rand_sol, small_ch, aux, small_cfg, lt)


class TestAssemble:
    def test_identity_vs_surrogates(self, small_cfg, small_ch, uplink_sol, hd):
        rng = np.random.default_rng(0)
        lt = link_terms(uplink_sol, small_ch, small_cfg, hd)
        aux = update_aux(lt)
        coeffs = assemble_phase_coeffs(uplink_sol, small_ch, aux, small_cfg, lt)
        for _ in range(6):
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, small_cfg.m_passive))
            direct = surrogate_sum(
                aux, link_terms(uplink_sol.copy_with(phi=phi), small_ch, small_cfg, hd))
            assert surrogate_value(coeffs, phi) == pytest.approx(direct, rel=1e-12)

    def test_no_users_constant(self):
        cfg = desk_config(m_passive=6, m_active=3, n_cm=0, n_cp=0, seed=2)
        ch = draw_channels(cfg)
        sol = make_solution(cfg, ch, np.random.default_rng(0))
        from fdiscc.wmmse import AuxVars
        aux = AuxVars(alpha1=np.zeros(0), beta1=np.zeros(0, complex),
                      alpha2=np.zeros(0), beta2=np.zeros(0, complex))
        coeffs = assemble_phase_coeffs(sol, ch, aux, cfg, link_terms(sol, ch, cfg))
        assert np.allclose(_t12(coeffs), 0)
        assert np.allclose(coeffs.t12_vec, 0)
        assert coeffs.b12 == 0.0
        # sensing floor with no uplink: threshold times noise only
        assert coeffs.b0 == pytest.approx(cfg.gamma_tar_linear * cfg.noise_irs_watt)

    def test_t12_hermitian_psd(self, coeffs):
        assert np.allclose(_t12(coeffs), _t12(coeffs).conj().T)
        assert np.linalg.eigvalsh(_t12(coeffs)).min() >= -1e-10

    @pytest.mark.parametrize("uplink", ["zero", "idle", "live"])
    def test_factor_matches_dense_t12(self, small_cfg, small_ch, hd, uplink):
        # F F^H against the Gram/Hadamard assembly, under FD and HD, with the
        # uplink silent (p = 0, whose columns are dropped) and on
        p_max = small_cfg.e_max_array().min() / (2.0 * small_cfg.coherence_time_s)
        p_scale = {"zero": 0.0, "idle": 1e-8, "live": p_max}[uplink]
        sol = make_solution(small_cfg, small_ch, np.random.default_rng(42), p_scale)
        lt = link_terms(sol, small_ch, small_cfg, hd)
        aux = update_aux(lt)
        coeffs = assemble_phase_coeffs(sol, small_ch, aux, small_cfg, lt)
        dense = _dense_t12(sol, small_ch, aux, lt)
        assert np.linalg.norm(_t12(coeffs) - dense) <= 1e-12 * np.linalg.norm(dense)
        k, l, m = small_cfg.n_cm, small_cfg.n_cp, small_cfg.m_passive
        full = k * (k + 1) + (0 if hd else k * l) + l * l
        assert coeffs.factor.shape == (m, k * (k + 1) if uplink == "zero" else full)

    @pytest.mark.parametrize("m, r", [(50, 14), (50, 6), (16, 14), (8, 14)])
    def test_thin_proximal_solve_matches_dense(self, m, r):
        # v / c - U diag(sigma^2 / (c (sigma^2 + c))) U^H v against a dense
        # solve, over the penalty range of the ADMM (c = 1 / (2 rho))
        rng = np.random.default_rng(m + r)
        factor = (rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))) / np.sqrt(r)
        for c in (0.5, 5.0, 50.0, 5e3, 5e5):
            v = rng.normal(size=m) + 1j * rng.normal(size=m)
            dense = np.linalg.solve(factor @ factor.conj().T + c * np.eye(m), v)
            thin = _proximal_solve(factor, c, v)
            assert np.linalg.norm(thin - dense) <= 1e-12 * np.linalg.norm(dense), (m, r, c)

    @pytest.mark.parametrize("case", ["random", "captured", "rank-deficient"])
    def test_gram_eigen_inverse_matches_svd_reference(self, case):
        # the Gram-eigen A^-1 v against the thin-SVD form it replaced, to 1e-12
        # relative, over the penalty range of the ADMM (c = 1 / (2 rho) from
        # 0.5 to 5e5): random factors, the factors of real phase calls, and
        # factors with repeated and all-zero columns (sigma = 0), or none
        rng = np.random.default_rng(21)
        if case == "random":
            factors = [(rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))) / np.sqrt(r)
                       for m, r in ((50, 14), (50, 6), (16, 14), (8, 14), (3, 1))]
        elif case == "captured":
            factors = _captured_factors()
        else:
            base = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))
            factors = [np.hstack([base, base[:, :2], np.zeros((16, 3))]),
                       np.hstack([base[:, :1]] * 5),
                       np.zeros((16, 4), complex), np.zeros((16, 0), complex)]
        assert len(factors) >= 4
        for factor in factors:
            m = factor.shape[0]
            for c in (0.5, 5.0, 50.0, 5e3, 5e5):
                v = rng.normal(size=m) + 1j * rng.normal(size=m)
                ref = _svd_proximal_solve(factor, c, v)
                gram = _proximal_solve(factor, c, v)
                assert np.linalg.norm(gram - ref) <= 1e-12 * np.linalg.norm(ref), (factor.shape, c)

    def test_echo_identity(self, small_cfg, small_ch, uplink_sol, hd):
        lt = link_terms(uplink_sol, small_ch, small_cfg, hd)
        aux = update_aux(lt)
        coeffs = assemble_phase_coeffs(uplink_sol, small_ch, aux, small_cfg, lt)
        rng = np.random.default_rng(1)
        for _ in range(5):
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, small_cfg.m_passive))
            sol = uplink_sol.copy_with(phi=phi)
            expected = link_terms(sol, small_ch, small_cfg).echo
            assert echo_power(coeffs, phi) == pytest.approx(expected, rel=1e-12)

    def test_echo_rows_match_dense_t0(self, small_cfg, small_ch, uplink_sol):
        # ||V phi||^2 and V^H (V phi) against T0 = (G_s^H G_s) o G_w
        lt = link_terms(uplink_sol, small_ch, small_cfg)
        coeffs = assemble_phase_coeffs(uplink_sol, small_ch, update_aux(lt), small_cfg, lt)
        gtw = uplink_sol.w @ small_ch.g_t.T
        t0 = (small_ch.g_s.conj().T @ small_ch.g_s) * (gtw.conj().T @ gtw)
        rng = np.random.default_rng(3)
        for _ in range(5):
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, small_cfg.m_passive))
            dense = float((phi.conj() @ t0 @ phi).real)
            assert echo_power(coeffs, phi) == pytest.approx(dense, rel=1e-12)
            d, _ = mm_linearize_radar(coeffs, phi)
            assert np.allclose(d, t0 @ phi, rtol=0, atol=1e-12 * np.abs(t0 @ phi).max())


class TestMmLinearize:
    def test_tight_at_expansion_point(self, coeffs, rand_sol):
        d, e = mm_linearize_radar(coeffs, rand_sol.phi)
        val = -2 * float((d.conj() @ rand_sol.phi).real) + e
        direct = coeffs.b0 - echo_power(coeffs, rand_sol.phi)
        assert val == pytest.approx(direct, rel=1e-10, abs=1e-18)

    def test_zero_matrix_reduces_to_floor(self, coeffs, rand_sol):
        import dataclasses
        c0 = dataclasses.replace(coeffs, echo_rows=np.zeros_like(coeffs.echo_rows))
        d, e = mm_linearize_radar(c0, rand_sol.phi)
        assert np.allclose(d, 0)
        assert e == pytest.approx(coeffs.b0)

    def test_minorant_sampled(self, coeffs, rand_sol, small_cfg):
        # linearized echo underestimates the true quadratic everywhere
        rng = np.random.default_rng(2)
        d, e = mm_linearize_radar(coeffs, rand_sol.phi)
        for _ in range(1000):
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, small_cfg.m_passive))
            lin_echo = 2 * float((d.conj() @ phi).real) - (e - coeffs.b0)
            assert lin_echo <= echo_power(coeffs, phi) + 1e-12


class TestPsiDual:
    def test_phase_alignment(self):
        psi = unit_modulus(np.array([1.0 + 0j, 2j]))
        assert np.allclose(psi, [1.0, 1j])

    def test_real_positive_gives_ones(self):
        psi = unit_modulus(np.array([0.3 + 0j, 5.0 + 0j]))
        assert np.allclose(psi, 1.0)

    def test_sampling_oracle(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi_hat = unit_modulus(v)
        best = float((v.conj() @ psi_hat).real)
        for _ in range(1000):
            cand = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
            assert float((v.conj() @ cand).real) <= best + 1e-12

    def test_projection_matches_exp_angle(self):
        # z / |z| against exp(i angle(z)) within 4 eps and on the unit circle
        # within 2 eps, over moduli from 1e-150 to 1e150; a zero entry maps
        # to 1 as exp(i angle(0)) does
        eps = np.finfo(float).eps
        rng = np.random.default_rng(12)
        z = (rng.normal(size=(200, 50)) + 1j * rng.normal(size=(200, 50))) \
            * 10.0 ** rng.uniform(-150, 150, size=(200, 1))
        for row in z:
            psi = unit_modulus(row)
            assert np.abs(psi - np.exp(1j * np.angle(row))).max() <= 4 * eps
            assert np.abs(np.abs(psi) - 1.0).max() <= 2 * eps
        z[0, [3, 17]] = 0.0
        psi = unit_modulus(z[0])
        assert psi[3] == psi[17] == 1.0 == np.exp(1j * np.angle(0j))
        # the other entries as without the zeros
        assert np.array_equal(np.delete(psi, [3, 17]), unit_modulus(np.delete(z[0], [3, 17])))


class TestPhiStep:
    def test_pure_proximal(self, small_cfg, coeffs):
        # with no quadratic/linear payoff and a slack constraint the step
        # returns the proximal target psi - rho*lambda
        import dataclasses
        m = small_cfg.m_passive
        c0 = dataclasses.replace(coeffs, factor=np.zeros((m, 0), complex),
                                 t12_vec=np.zeros(m, complex), b12=0.0)
        rng = np.random.default_rng(5)
        psi = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        lam = 0.1 * (rng.normal(size=m) + 1j * rng.normal(size=m))
        d, e = mm_linearize_radar(c0, psi)
        if -2 * float((d.conj() @ (psi - 0.5 * lam)).real) + e <= 0:
            phi, _ = admm_phi_step(c0, 0.5, psi - 0.5 * lam, d, e)
            assert np.allclose(phi, psi - 0.5 * lam, atol=1e-7)

    def test_al_objective_nonincreasing(self, small_cfg, small_ch):
        # feasible entry with sensing margin: one step never raises the AL value
        from fdiscc.orchestrator import initialize
        sol, _ = initialize(small_cfg, small_ch, np.random.default_rng(1))
        sol = sol.copy_with(p=0.25 * sol.p)
        lt = link_terms(sol, small_ch, small_cfg)
        aux = update_aux(lt)
        coeffs = assemble_phase_coeffs(sol, small_ch, aux, small_cfg, lt)
        rng = np.random.default_rng(6)
        psi = np.exp(1j * np.angle(sol.phi))
        lam = 0.05 * (rng.normal(size=small_cfg.m_passive)
                      + 1j * rng.normal(size=small_cfg.m_passive))

        def al(phi):
            quad = float((phi.conj() @ _t12(coeffs) @ phi).real)
            lin_term = 2 * float((coeffs.t12_vec.conj() @ phi).real)
            prox = float(np.linalg.norm(phi - psi + 0.8 * lam) ** 2) / (2 * 0.8)
            return quad - lin_term - coeffs.b12 + prox

        d, e = mm_linearize_radar(coeffs, sol.phi)
        before = al(sol.phi)
        phi_new, _ = admm_phi_step(coeffs, 0.8, psi - 0.8 * lam, d, e)
        assert al(phi_new) <= before + 1e-9 * (1 + abs(before))

    def test_matches_dual_pg_oracle(self, small_cfg, small_ch):
        # independent projected-gradient check of the constrained step
        from fdiscc.orchestrator import initialize
        sol, _ = initialize(small_cfg, small_ch, np.random.default_rng(1))
        sol = sol.copy_with(p=0.25 * sol.p)
        lt = link_terms(sol, small_ch, small_cfg)
        aux = update_aux(lt)
        coeffs = assemble_phase_coeffs(sol, small_ch, aux, small_cfg, lt)
        rho, psi = 2.0, sol.phi.copy()          # lambda = 0: the target is psi
        lin_d, lin_e = mm_linearize_radar(coeffs, sol.phi)
        phi, _ = admm_phi_step(coeffs, rho, psi, lin_d, lin_e)
        m = small_cfg.m_passive
        a = _t12(coeffs) + np.eye(m) / (2 * rho)
        b = coeffs.t12_vec + psi / (2 * rho)
        d = -2.0 * lin_d

        def obj(x):
            return float((x.conj() @ a @ x).real - 2 * (b.conj() @ x).real)

        # dual ascent on the single constraint Re{d^H x} + e <= 0
        a_inv = np.linalg.inv(a)
        mu = 0.0
        lr = 0.5 / max(float((d.conj() @ (a_inv @ d)).real), 1e-300)
        x = a_inv @ b
        for _ in range(50_000):
            x = a_inv @ (b - 0.5 * mu * d)
            grad = float((d.conj() @ x).real) + lin_e
            mu = max(0.0, mu + lr * grad)
        assert obj(phi) == pytest.approx(obj(x), rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("active", [False, True])
    def test_matches_qcqp_reference(self, active):
        # the closed-form step against the interior-point reference on random
        # instances, with the radar constraint slack or binding
        rng = np.random.default_rng(8 + active)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            t12 = g @ g.conj().T / m
            coeffs = PhaseCoeffs(factor=g / np.sqrt(m),
                                 t12_vec=rng.normal(size=m) + 1j * rng.normal(size=m),
                                 b12=0.0, echo_rows=np.eye(m, dtype=complex), b0=0.0)
            psi = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
            lam = 0.1 * (rng.normal(size=m) + 1j * rng.normal(size=m))
            rho = float(rng.uniform(0.05, 2.0))
            a = t12 + np.eye(m) / (2 * rho)
            r = coeffs.t12_vec + (psi - rho * lam) / (2 * rho)
            d = rng.normal(size=m) + 1j * rng.normal(size=m)
            # place e so the unconstrained point is strictly inside or outside
            edge = 2 * float((d.conj() @ np.linalg.solve(a, r)).real)
            e = edge + (1.0 if active else -1.0) * float(rng.uniform(0.5, 3.0))
            phi, _ = admm_phi_step(coeffs, rho, psi - rho * lam, d, e)
            ref = conic.solve_qcqp(conic.QcqpProblem(a=a, b=r, d=(-2.0 * d)[None, :],
                                                     e=np.array([e])))
            assert ref.status == conic.OPTIMAL

            def obj(x):
                return float((x.conj() @ a @ x).real - 2 * (r.conj() @ x).real)

            assert obj(phi) == pytest.approx(obj(ref.x), rel=1e-9)
            violation = -2 * float((d.conj() @ phi).real) + e
            assert violation <= 1e-12 * abs(e)
            if active:
                assert abs(violation) <= 1e-12 * abs(e)

    @pytest.mark.parametrize("active", [False, True])
    def test_multiplier_is_the_kkt_multiplier(self, active):
        # the returned mu is 0 exactly when the unconstrained point meets the
        # constraint, and A phi - r = mu d otherwise
        rng = np.random.default_rng(30 + active)
        for _ in range(20):
            m, r_cols = int(rng.integers(2, 12)), int(rng.integers(0, 6))
            factor = rng.normal(size=(m, r_cols)) + 1j * rng.normal(size=(m, r_cols))
            coeffs = PhaseCoeffs(factor=factor, t12_vec=rng.normal(size=m) + 1j * rng.normal(size=m),
                                 b12=0.0, echo_rows=np.eye(m, dtype=complex), b0=0.0)
            rho = float(rng.uniform(0.05, 2.0))
            target = rng.normal(size=m) + 1j * rng.normal(size=m)
            a = factor @ factor.conj().T + np.eye(m) / (2 * rho)
            r = coeffs.t12_vec + target / (2 * rho)
            d = rng.normal(size=m) + 1j * rng.normal(size=m)
            edge = 2 * float((d.conj() @ np.linalg.solve(a, r)).real)
            e = edge + (1.0 if active else -1.0) * float(rng.uniform(0.5, 3.0))
            phi, mu = admm_phi_step(coeffs, rho, target, d, e)
            assert (mu > 0.0) == active and mu >= 0.0
            assert np.linalg.norm(a @ phi - r - mu * d) <= 1e-10 * np.linalg.norm(r)

    def test_zero_direction_infeasible(self, coeffs):
        m = coeffs.t12_vec.shape[0]
        with pytest.raises(SensingInfeasible):
            admm_phi_step(coeffs, 1.0, np.ones(m, complex), np.zeros(m, complex), 1.0)


class TestOptimizePhase:
    @pytest.fixture()
    def feasible_sol(self, small_cfg, small_ch):
        from fdiscc.orchestrator import initialize
        sol, _ = initialize(small_cfg, small_ch, np.random.default_rng(1))
        return sol.copy_with(p=0.25 * sol.p)   # sensing margin for phase moves

    def test_consensus_reached(self, small_cfg, small_ch, feasible_sol):
        lt = link_terms(feasible_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        phi, info = optimize_phase(feasible_sol, small_ch, aux, small_cfg, lt)
        assert np.allclose(np.abs(phi), 1.0, atol=1e-12)
        assert info.consensus <= 1e-4 or info.reverted
        assert info.iterations <= 200
        assert not info.infeasible

    def test_infeasible_entry_returns_input(self, small_cfg, small_ch, rand_sol):
        # a random state generally violates the sensing floor at its own
        # phases: the block must flag it and hand back the input untouched
        lt = link_terms(rand_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        coeffs = assemble_phase_coeffs(rand_sol, small_ch, aux, small_cfg, lt)
        if echo_power(coeffs, rand_sol.phi) >= coeffs.b0:
            pytest.skip("entry happens to be feasible for this draw")
        phi, info = optimize_phase(rand_sol, small_ch, aux, small_cfg, lt)
        assert info.infeasible
        assert np.array_equal(phi, rand_sol.phi)

    def test_kept_phases_are_the_incoming_array(self, small_cfg, small_ch, feasible_sol,
                                                monkeypatch):
        # an infeasible entry, and every revert or infeasible call of real
        # runs, hands back sol.phi itself; an accepted call a new array
        lt = link_terms(feasible_sol, small_ch, replace(small_cfg, gamma_tar_linear=1e12))
        phi, info = optimize_phase(feasible_sol, small_ch, update_aux(lt), small_cfg, lt)
        assert info.infeasible and phi is feasible_sol.phi
        calls = []

        def recorded(sol, *args):
            phi, info = optimize_phase(sol, *args)
            calls.append((phi is sol.phi, info.reverted or info.infeasible))
            return phi, info

        monkeypatch.setattr(phaseadmm, "optimize_phase", recorded)
        for make in (desk_config, paper_config):
            cfg = make(seed=1)
            orchestrator.run(cfg, draw_channels(cfg))
        assert any(kept for kept, _ in calls) and not all(kept for kept, _ in calls)
        assert all(kept == rejected for kept, rejected in calls)

    def test_never_decreases_surrogate(self, small_cfg, small_ch, feasible_sol):
        lt = link_terms(feasible_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        coeffs = assemble_phase_coeffs(feasible_sol, small_ch, aux, small_cfg, lt)
        before = surrogate_value(coeffs, feasible_sol.phi)
        phi, info = optimize_phase(feasible_sol, small_ch, aux, small_cfg, lt)
        after = surrogate_value(coeffs, phi)
        assert after >= before - 1e-9 * (1 + abs(before))

    def test_single_element_aligns(self):
        cfg = desk_config(m_passive=1, m_active=1, seed=4)
        ch = draw_channels(cfg)
        sol = make_solution(cfg, ch, np.random.default_rng(7), p_scale=1e-9)
        lt = link_terms(sol, ch, cfg)
        aux = update_aux(lt)
        coeffs = assemble_phase_coeffs(sol, ch, aux, cfg, lt)
        phi, info = optimize_phase(sol, ch, aux, cfg, lt)
        if not info.reverted and abs(coeffs.t12_vec[0]) > 0:
            # single reflection element: optimum aligns with the linear term
            target = np.exp(1j * np.angle(coeffs.t12_vec[0]))
            if echo_power(coeffs, target[None][0:1]) >= coeffs.b0:
                assert abs(phi[0] - target) < 1e-5

    def test_radar_constraint_respected(self, small_cfg, small_ch):
        # start from a feasible solution; output must stay feasible
        from fdiscc.orchestrator import initialize
        sol, _ = initialize(small_cfg, small_ch, np.random.default_rng(0))
        lt = link_terms(sol, small_ch, small_cfg)
        aux = update_aux(lt)
        coeffs = assemble_phase_coeffs(sol, small_ch, aux, small_cfg, lt)
        phi, info = optimize_phase(sol, small_ch, aux, small_cfg, lt)
        assert echo_power(coeffs, phi) >= coeffs.b0 * (1 - 1e-6)

    def test_binding_counts_the_passes_with_a_multiplier(self, monkeypatch):
        # PhaseInfo.binding is the number of steps of the call whose tangent
        # constraint bound (mu > 0), at most one per pass
        steps, counts = [], []
        step, phase = phaseadmm.admm_phi_step, phaseadmm.optimize_phase

        def counted_step(*args):
            phi, mu = step(*args)
            steps.append(mu > 0.0)
            return phi, mu

        def counted_phase(*args):
            del steps[:]
            phi, info = phase(*args)
            counts.append((info.binding, sum(steps), info.iterations))
            return phi, info

        monkeypatch.setattr(phaseadmm, "admm_phi_step", counted_step)
        monkeypatch.setattr(phaseadmm, "optimize_phase", counted_phase)
        cfg = desk_config(seed=0, gamma_tar_linear=db2lin(17.0))
        orchestrator.run(cfg, draw_channels(cfg), orchestrator.RunOptions(max_iter=4))
        assert counts and any(binding for binding, *_ in counts)
        assert all(binding == bound <= passes for binding, bound, passes in counts)

    def test_tight_paper_cell_runs_without_qcqp(self, monkeypatch):
        # a 17 dB sensing floor binds the linearized radar constraint on many
        # ADMM passes; the interior-point kernel must never be reached
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_qcqp called from the hot path")

        monkeypatch.setattr(conic, "solve_qcqp", forbidden)
        binding = []

        def counted(*args):
            phi, info = optimize_phase(*args)
            binding.append(info.binding)
            return phi, info

        monkeypatch.setattr(phaseadmm, "optimize_phase", counted)
        cfg = paper_config(seed=0, gamma_tar_linear=db2lin(17.0))
        res = orchestrator.run(cfg, draw_channels(cfg))
        assert res.status in (orchestrator.CONVERGED, orchestrator.MAX_ITER_STATUS)
        assert any(binding)
        assert res.trace[-1].res_radar <= 1e-6
