import dataclasses

import numpy as np
import pytest

from fdiscc import beamforming, orchestrator
from fdiscc.beamforming import (_tx_beams, _tx_power, assemble_rx_coeffs,
                                assemble_tx_coeffs, gaussian_randomize, optimize_rx,
                                optimize_tx, radar_power, sdr_bound, solve_rx, solve_tx,
                                solve_tx_sdr, tx_certificate, tx_objective)
from fdiscc.channels import draw_channels
from fdiscc.config import db2lin, desk_config, paper_config
from fdiscc.rootfind import EPS
from fdiscc.orchestrator import echo_aligned_phases
from fdiscc.sysmodel import SensingInfeasible, composite_channels, link_terms
from fdiscc.wmmse import LN2, surrogate_sum, surrogates, update_aux

from conftest import make_solution


def rx_objective(coeffs, aux, u, l):
    """b5 + 2Re{u^H t5} - weight u^H R u for CP-UE l, with the u-free
    b5 = (ln(1 + alpha2) - alpha2) / ln 2 of the auxiliaries ``aux``."""
    b5 = (np.log(1.0 + aux.alpha2[l]) - aux.alpha2[l]) / LN2
    lin = 2.0 * float((u.conj() @ coeffs.t5[l]).real)
    quad = float(coeffs.weight[l] * (u.conj() @ coeffs.cov @ u).real)
    return float(b5) + lin - quad


def _power_sums(xx, yy, z):
    """``_tx_power``'s [X Y C] with C = Re(Z^H Z), as ``solve_tx`` forms it."""
    return np.column_stack((xx, yy, (z.conj().T @ z).real))


def _tx_power_reference(s, xx, yy, z, target, mu):
    """The reference of ``_tx_power``: ||w(mu)||^2 and its slope from the
    complex sums r_n = Z b^-n, one array operation per sum."""
    b1 = 1.0 / (s + mu)
    b2, b3 = b1 * b1, b1 * b1 * b1
    norm, slope = float(xx @ b2), -2.0 * float(xx @ b3)
    r1, r2 = z @ b1, z @ b2
    rr = float((np.abs(r1) ** 2).sum())
    if rr >= target:
        return norm, slope
    phi, phi2, phi3 = float(yy @ b1), float(yy @ b2), float(yy @ b3)
    if rr == 0.0:
        return (norm + target * phi2 / phi ** 2,
                slope + 2.0 * target * (phi2 ** 2 / phi - phi3) / phi ** 2)
    cross = float((r1 * r2.conj()).sum().real)
    d_cross = -float((np.abs(r2) ** 2).sum()) - 2.0 * float((r1 * (z @ b3).conj()).sum().real)
    g = np.sqrt(target / rr)
    c = (g - 1.0) / phi
    d_c = (g * cross / rr + c * phi2) / phi
    return (norm + 2.0 * c * cross + c * c * rr * phi2,
            slope + 2.0 * (d_c * cross + c * d_cross) + 2.0 * c * d_c * rr * phi2
            - 2.0 * c * c * (cross * phi2 + rr * phi3))


def _eigen_data(coeffs):
    """(s, xx, yy, z, target, smallest mu) of ``solve_tx``'s eigenbasis."""
    s, vecs = np.linalg.eigh(coeffs.s_mat)
    s = np.maximum(s, 0.0)
    x, y = coeffs.q @ vecs.conj(), coeffs.d @ vecs.conj()
    target = coeffs.b0 * (1.0 + beamforming.RADAR_MARGIN)
    mu0 = 0.0 if s[0] > 0.0 else EPS * max(s[-1], 1.0)
    return s, (np.abs(x) ** 2).sum(axis=0), np.abs(y) ** 2, x * y.conj(), target, mu0


def _captured_tx(scheme):
    """The coefficients and root mu of every transmit solve of short desk and
    paper runs of ``scheme``."""
    calls = []
    solve = beamforming.solve_tx

    def captured(coeffs):
        w, info = solve(coeffs)
        calls.append((coeffs, info["mu"]))
        return w, info

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beamforming, "solve_tx", captured)
        for make in (desk_config, paper_config):
            for seed in (1, 2, 3):
                cfg = make(seed=seed)
                orchestrator.run(cfg, draw_channels(cfg),
                                 orchestrator.RunOptions(scheme=scheme, max_iter=4))
    return calls


@pytest.fixture()
def tx_sol(small_cfg, small_ch, rand_sol):
    # echo-aligned phases guarantee the sensing floor is reachable by beams
    from fdiscc.orchestrator import echo_aligned_phases
    return rand_sol.copy_with(phi=echo_aligned_phases(small_ch))


@pytest.fixture()
def tx_setup(small_cfg, small_ch, tx_sol):
    lt = link_terms(tx_sol, small_ch, small_cfg)
    aux = update_aux(lt)
    coeffs = assemble_tx_coeffs(tx_sol, small_ch, aux, small_cfg, lt)
    return aux, coeffs


class TestTxCoeffs:
    def test_identity_vs_surrogates(self, small_cfg, small_ch, tx_sol, tx_setup):
        aux, coeffs = tx_setup
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = 0.2 * (rng.normal(size=tx_sol.w.shape)
                       + 1j * rng.normal(size=tx_sol.w.shape))
            direct = surrogate_sum(aux, link_terms(tx_sol.copy_with(w=w), small_ch, small_cfg))
            assert tx_objective(coeffs, w) == pytest.approx(direct, abs=1e-8)

    def test_zero_beams_give_constants(self, small_cfg, tx_sol, tx_setup):
        aux, coeffs = tx_setup
        w0 = np.zeros_like(tx_sol.w)
        expected = float(coeffs.b3.sum() + coeffs.b4.sum())
        assert tx_objective(coeffs, w0) == pytest.approx(expected, rel=1e-12)

    def test_no_cp_users_no_si_weight(self):
        cfg = desk_config(m_passive=6, m_active=3, n_cp=0, seed=11)
        ch = draw_channels(cfg)
        sol = make_solution(cfg, ch, np.random.default_rng(1))
        lt = link_terms(sol, ch, cfg)
        aux = update_aux(lt)
        coeffs = assemble_tx_coeffs(sol, ch, aux, cfg, lt)
        assert coeffs.b4.size == 0
        # s_mat then only carries the downlink interference weights
        comp_h = composite_channels(ch, sol.phi).h
        from fdiscc.wmmse import LN2
        expected = sum(abs(aux.beta1[k]) ** 2 * np.outer(comp_h[k].conj(), comp_h[k])
                       for k in range(cfg.n_cm)) / LN2
        assert np.allclose(coeffs.s_mat, expected, atol=1e-15)

    @pytest.mark.parametrize("hd", [False, True])
    def test_matches_per_user_loop(self, small_cfg, small_ch, rand_sol, hd):
        # the einsum assembly against the per-user loops it replaced
        from fdiscc.wmmse import LN2
        lt = link_terms(rand_sol, small_ch, small_cfg, hd)
        aux = update_aux(lt)
        coeffs = assemble_tx_coeffs(rand_sol, small_ch, aux, small_cfg, lt)
        comp = composite_channels(small_ch, rand_sol.phi)
        nt, p = small_cfg.n_tx, rand_sol.p
        s_mat = np.zeros((nt, nt), complex)
        b3, b4 = [], []
        for k in range(small_cfg.n_cm):
            h, bb = comp.h[k], abs(aux.beta1[k]) ** 2
            s_mat += bb * np.outer(h.conj(), h)
            cci = 0.0 if hd else float(p @ np.abs(comp.ebar[:, k]) ** 2)
            b3.append(np.log(1 + aux.alpha1[k]) - aux.alpha1[k]
                      - bb * (cci + small_cfg.noise_ue_watt))
        for l in range(small_cfg.n_cp):
            u, a2, b2l = rand_sol.u[l], aux.alpha2[l], aux.beta2[l]
            if not hd:
                v = small_ch.h_si.conj().T @ u
                s_mat += abs(b2l) ** 2 * np.outer(v, v.conj())
            amps = comp.g @ u.conj()
            b4.append(np.log(1 + a2) - a2
                      + 2 * np.sqrt(1 + a2) * (np.conj(b2l) * np.sqrt(p[l]) * amps[l]).real
                      - abs(b2l) ** 2 * (p @ np.abs(amps) ** 2
                                         + np.vdot(u, u).real * small_cfg.noise_bs_watt))
        assert np.allclose(coeffs.s_mat, s_mat / LN2, rtol=1e-12,
                           atol=1e-14 * np.abs(s_mat / LN2).max())
        assert np.allclose(coeffs.b3, np.array(b3) / LN2, rtol=1e-12, atol=0)
        assert np.allclose(coeffs.b4, np.array(b4) / LN2, rtol=1e-12, atol=0)
        for k in range(small_cfg.n_cm):
            assert np.allclose(coeffs.q[k], np.sqrt(1 + aux.alpha1[k]) * aux.beta1[k]
                               * comp.h[k].conj() / LN2, rtol=1e-12, atol=0)

    def test_echo_direction_matches_dense_cascade(self, small_cfg, small_ch, tx_sol, tx_setup):
        # d d^H is C^H C for the dense cascade C = G_s diag(phi) G_t
        _, coeffs = tx_setup
        cascade = small_ch.g_s @ np.diag(tx_sol.phi) @ small_ch.g_t
        gram = cascade.conj().T @ cascade
        assert np.linalg.norm(np.outer(coeffs.d, coeffs.d.conj()) - gram) \
            <= 1e-12 * np.linalg.norm(gram)
        rng = np.random.default_rng(9)
        w = rng.normal(size=tx_sol.w.shape) + 1j * rng.normal(size=tx_sol.w.shape)
        dense = sum(np.linalg.norm(cascade @ wj) ** 2 for wj in w)
        assert radar_power(coeffs, w) == pytest.approx(dense, rel=1e-12)


class TestSolveTxSdr:
    def test_relaxation_upper_bounds_rank_one(self, small_cfg, tx_setup):
        aux, coeffs = tx_setup
        res = solve_tx_sdr(coeffs, small_cfg)
        bound = sdr_bound(coeffs, res)
        rng = np.random.default_rng(2)
        w = gaussian_randomize(res.blocks, coeffs, small_cfg, 100, rng)
        assert tx_objective(coeffs, w) <= bound + 1e-8 * (1 + abs(bound))

    def test_power_and_radar_feasible(self, small_cfg, tx_setup):
        aux, coeffs = tx_setup
        res = solve_tx_sdr(coeffs, small_cfg)
        w = gaussian_randomize(res.blocks, coeffs, small_cfg, 100,
                               np.random.default_rng(3))
        assert np.sum(np.abs(w) ** 2) <= small_cfg.p_bs_watt * (1 + 1e-9)
        assert radar_power(coeffs, w) >= coeffs.b0 * (1 - 1e-9)

    def test_impossible_floor_raises(self, small_cfg, tx_setup):
        import dataclasses
        _, coeffs = tx_setup
        lam_max = float(np.linalg.norm(coeffs.d) ** 2)
        bad = dataclasses.replace(coeffs, b0=small_cfg.p_bs_watt * lam_max * 2.0)
        with pytest.raises(SensingInfeasible):
            solve_tx_sdr(bad, small_cfg)

    def test_interference_free_single_user_matches_mrt_grid(self):
        # N_t=2, K=1, no uplink, vanishing sensing floor: the optimum is a
        # scaled matched filter; compare against a sphere x power grid search
        # (the global beam phase is aligned in closed form per grid point)
        cfg = desk_config(m_passive=6, m_active=3, n_tx=2, n_rx=2, n_cm=1,
                          n_cp=0, seed=13, gamma_tar_linear=1e-12)
        ch = draw_channels(cfg)
        sol = make_solution(cfg, ch, np.random.default_rng(5))
        lt = link_terms(sol, ch, cfg)
        aux = update_aux(lt)
        coeffs = assemble_tx_coeffs(sol, ch, aux, cfg, lt)
        res = solve_tx_sdr(coeffs, cfg)
        bound = sdr_bound(coeffs, res)

        best = -np.inf
        p = cfg.p_bs_watt
        consts = float(coeffs.b3.sum())
        for t1 in np.linspace(0, np.pi / 2, 400):
            for ph in np.linspace(0, 2 * np.pi, 800, endpoint=False):
                v = np.array([np.cos(t1), np.sin(t1) * np.exp(1j * ph)])
                lin_amp = 2 * abs(v.conj() @ coeffs.q[0])
                quad = float((v.conj() @ coeffs.s_mat @ v).real)
                # exact scalar maximization of consts + a*lin - a^2*quad on [0, sqrt(p)]
                a_star = min(np.sqrt(p), lin_amp / (2 * quad)) if quad > 0 else np.sqrt(p)
                val = consts + a_star * lin_amp - a_star ** 2 * quad
                if val > best:
                    best = val
        assert bound == pytest.approx(best, abs=1e-4 * max(1, abs(best)))

    def test_rank_one_recovery_exact(self, small_cfg, tx_setup):
        aux, coeffs = tx_setup
        res = solve_tx_sdr(coeffs, small_cfg)
        # hand-made exactly-rank-one blocks: eigenvector recovery is direct
        rng = np.random.default_rng(4)
        nt = small_cfg.n_tx
        w_true = 0.1 * (rng.normal(size=(small_cfg.n_cm + 1, nt))
                        + 1j * rng.normal(size=(small_cfg.n_cm + 1, nt)))
        blocks = []
        for j in range(small_cfg.n_cm + 1):
            wt = np.concatenate([w_true[j], [1.0]])
            blocks.append(np.outer(wt, wt.conj()))
        if radar_power(coeffs, w_true) >= coeffs.b0 * (1 - 1e-9):
            w = gaussian_randomize(blocks, coeffs, small_cfg, 0, rng)
            assert np.allclose(w, w_true, atol=1e-7)

    def test_safeguard_keeps_incumbent(self, small_cfg, small_ch, tx_sol, tx_setup):
        aux, _ = tx_setup
        lt = link_terms(tx_sol, small_ch, small_cfg)
        w_new, info = optimize_tx(tx_sol, small_ch, aux, small_cfg, lt)
        coeffs = assemble_tx_coeffs(tx_sol, small_ch, aux, small_cfg, lt)
        assert tx_objective(coeffs, w_new) >= tx_objective(coeffs, tx_sol.w) \
            - 1e-9 * (1 + abs(tx_objective(coeffs, tx_sol.w)))


def _certified(coeffs, w, info):
    """The beams are feasible (power within 1e-12 of the budget, the echo on
    or above the floor) and the dual gap is at most 1e-9 relative."""
    cert = tx_certificate(coeffs, w, info)
    return cert["power"] <= 1e-12 and cert["echo"] == 0.0 and cert["dual_gap"] <= 1e-9


def _paper_tx_coeffs(seed, hd=False):
    cfg = paper_config(seed=seed)
    ch = draw_channels(cfg)
    sol = make_solution(cfg, ch, np.random.default_rng(seed))
    sol = sol.copy_with(phi=echo_aligned_phases(ch))
    lt = link_terms(sol, ch, cfg, hd)
    aux = update_aux(lt)
    return cfg, assemble_tx_coeffs(sol, ch, aux, cfg, lt)


class TestSolveTx:
    """Closed-form dual solve of the transmit block against the lifted oracle."""

    @pytest.mark.parametrize("binding", [False, True])
    def test_matches_rescaled_oracle(self, binding):
        # paper-scale coefficients (d d^H ~ 1e-11); the binding half puts the
        # floor at 90% of the echo ceiling. Even seeds FD, odd seeds HD.
        n_binding = 0
        for seed in range(25):
            cfg, coeffs = _paper_tx_coeffs(seed, hd=seed % 2 == 1)
            if binding:
                ceiling = coeffs.p_bs * np.linalg.norm(coeffs.d) ** 2
                coeffs = dataclasses.replace(coeffs, b0=0.9 * ceiling)
            w, info = solve_tx(coeffs)
            n_binding += info["nu"] > 0
            res = solve_tx_sdr(coeffs, cfg)
            echo = sum((coeffs.d.conj() @ x[:cfg.n_tx, :cfg.n_tx] @ coeffs.d).real
                       for x in res.blocks)
            assert echo >= coeffs.b0 * (1 - 1e-6)
            bound, value = sdr_bound(coeffs, res), tx_objective(coeffs, w)
            assert bound >= value - 1e-12 * abs(value)
            assert value >= bound - 1e-6 * abs(bound)
        assert n_binding == (25 if binding else 0)

    def test_dual_certificate(self, small_cfg, tx_setup):
        _, coeffs = tx_setup
        for frac in (None, 0.3, 0.6, 0.95):
            if frac is not None:
                ceiling = coeffs.p_bs * np.linalg.norm(coeffs.d) ** 2
                coeffs = dataclasses.replace(coeffs, b0=frac * ceiling)
            w, info = solve_tx(coeffs)
            assert _certified(coeffs, w, info)
            cert = tx_certificate(coeffs, w, info)
            assert cert["mu_sign"] == 0.0 and cert["nu_sign"] == 0.0

    def test_slack_power_gives_zero_mu(self, tx_setup):
        _, coeffs = tx_setup
        nt = coeffs.s_mat.shape[0]
        roomy = dataclasses.replace(coeffs, s_mat=coeffs.s_mat + np.eye(nt), p_bs=1e6)
        w, info = solve_tx(roomy)
        assert info["mu"] == 0.0 and info["iterations"] == 0
        assert np.sum(np.abs(w) ** 2) < roomy.p_bs
        assert _certified(roomy, w, info)

    @pytest.mark.parametrize("hd", [False, True])
    def test_no_cm_users_use_the_sensing_beam(self, hd):
        cfg = desk_config(m_passive=8, m_active=4, n_cm=0, seed=5)
        ch = draw_channels(cfg)
        sol = make_solution(cfg, ch, np.random.default_rng(5))
        sol = sol.copy_with(phi=echo_aligned_phases(ch))
        lt = link_terms(sol, ch, cfg, hd)
        aux = update_aux(lt)
        coeffs = assemble_tx_coeffs(sol, ch, aux, cfg, lt)
        w, info = solve_tx(coeffs)
        assert w.shape == (1, cfg.n_tx) and info["sensing_beam"]
        assert radar_power(coeffs, w) == pytest.approx(coeffs.b0, rel=1e-9)
        assert _certified(coeffs, w, info)

    def test_hd_coefficients(self, small_cfg, small_ch, tx_sol):
        lt_hd = link_terms(tx_sol, small_ch, small_cfg, True)
        aux = update_aux(lt_hd)
        coeffs = assemble_tx_coeffs(tx_sol, small_ch, aux, small_cfg, lt_hd)
        fd = assemble_tx_coeffs(tx_sol, small_ch, aux, small_cfg,
                                link_terms(tx_sol, small_ch, small_cfg))
        # HD drops the self-interference weight from S
        assert np.linalg.norm(coeffs.s_mat) < np.linalg.norm(fd.s_mat)
        w, info = solve_tx(coeffs)
        assert _certified(coeffs, w, info)
        w_new, _ = optimize_tx(tx_sol, small_ch, aux, small_cfg, lt_hd)
        assert np.array_equal(w_new, w)

    def test_unreachable_floor_raises(self, small_cfg, tx_setup):
        _, coeffs = tx_setup
        lam_max = float(np.linalg.norm(coeffs.d) ** 2)
        bad = dataclasses.replace(coeffs, b0=small_cfg.p_bs_watt * lam_max * 1.01)
        with pytest.raises(SensingInfeasible):
            solve_tx(bad)

    def test_unreachable_floor_keeps_incumbent_and_flags_call(self, small_cfg, small_ch,
                                                               tx_sol):
        # the block owns its infeasibility: no exception reaches the loop
        lam_max = float(np.linalg.norm(composite_channels(small_ch, tx_sol.phi).r) ** 2)
        bad = dataclasses.replace(small_cfg, gamma_tar_linear=1.01 * small_cfg.p_bs_watt
                                  * lam_max / small_cfg.noise_irs_watt)
        lt = link_terms(tx_sol, small_ch, bad)
        w, info = optimize_tx(tx_sol, small_ch, update_aux(lt), bad, lt)
        assert w is tx_sol.w
        assert info["infeasible"] and not info["accepted"]

    @pytest.mark.parametrize("regime", ["comm-echo", "boosted", "sensing-beam"])
    def test_eigen_sum_power_matches_beams(self, regime):
        # ||w(mu)||^2 from the sums X, Y, Z against ||_tx_beams||^2, and its
        # slope against a central difference, in each regime of nu*: 0, in
        # (0, 1/phi), and 1/phi with the sensing beam (Z = 0: no comm echo)
        rng = np.random.default_rng(11)
        s = np.array([0.0, 1e-3, 0.4, 2.0, 7.0])
        x = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        y = rng.normal(size=5) + 1j * rng.normal(size=5)
        if regime == "sensing-beam":
            x[:, :2], y[2:] = 0.0, 0.0
        xx, yy, z = np.sum(np.abs(x) ** 2, axis=0), np.abs(y) ** 2, x * y.conj()
        sums = _power_sums(xx, yy, z)
        for mu in (0.05, 0.7, 3.0):
            rr = float(np.sum(np.abs((x / (s + mu)) @ y.conj()) ** 2))
            target = {"comm-echo": 0.5 * rr, "boosted": 3.0 * rr, "sensing-beam": 2.0}[regime]
            w, nu, _ = _tx_beams(s, x, y, target, mu)
            assert (nu == 0.0) == (regime == "comm-echo")
            assert bool(np.any(w[0])) == (regime == "sensing-beam")
            norm2, slope = _tx_power(s, sums, target, mu)
            direct = float(np.sum(np.abs(w) ** 2))
            assert abs(norm2 - direct) <= 1e-12 * direct
            h = 1e-5 * mu
            central = (_tx_power(s, sums, target, mu + h)[0]
                       - _tx_power(s, sums, target, mu - h)[0]) / (2.0 * h)
            assert slope < 0.0 and abs(slope - central) <= 1e-6 * abs(slope)

    @pytest.mark.parametrize("case", ["random", "captured", "rank-deficient"])
    def test_power_sums_match_complex_reference(self, case):
        # ||w(mu)||^2 and its slope from B [X Y] and B C B^T against the
        # complex-array reference, to 1e-12 relative: random instances in all
        # three regimes of nu*, the solves of real runs at their start, their
        # root and a grid, and solves whose S has rank K < N_t (beta2 = 0:
        # ``hd`` runs, and a synthetic S of K rank-one terms). Above
        # mu = max(s) the slope's terms cancel in either form (against
        # 60-digit arithmetic the reference itself errs by up to 1.2e-10 at
        # mu = 100 max(s)), so there the slopes are compared to 1e-9; the
        # roots of real runs lie below 0.61 max(s)
        rng = np.random.default_rng(17)
        points = []                     # (s, xx, yy, z, target, mus)
        if case == "random":
            for _ in range(40):
                k, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
                s = np.sort(rng.exponential(size=n)) * 10.0 ** rng.uniform(-3, 3)
                x = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
                y = rng.normal(size=n) + 1j * rng.normal(size=n)
                if rng.random() < 0.25:         # some of d, never all, off the eigenbasis
                    off = rng.random(n) < 0.5
                    off[rng.integers(n)] = False
                    y[off] = 0.0
                z = x * y.conj()
                mus = s[-1] * 10.0 ** rng.uniform(-4, 2, size=4)
                rr = float(np.sum(np.abs((x / (s + mus[0])) @ y.conj()) ** 2))
                for target in (0.5 * rr, 3.0 * rr, 1.0):
                    points.append((s, np.sum(np.abs(x) ** 2, axis=0), np.abs(y) ** 2, z,
                                   target, mus))
        else:
            captured = _captured_tx("hd" if case == "rank-deficient" else "proposed")
            if case == "rank-deficient":
                k, n = 2, 5
                h = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
                s_mat = h.conj().T @ h
                coeffs = dataclasses.replace(
                    captured[0][0], q=h.conj() * 0.3, s_mat=(s_mat + s_mat.conj().T) / 2.0,
                    d=rng.normal(size=n) + 1j * rng.normal(size=n), b0=1e-3)
                captured.append((coeffs, 0.1))
                assert all(np.linalg.matrix_rank(c.s_mat) < c.s_mat.shape[0]
                           for c, _ in captured)
            for coeffs, root in captured:
                s, xx, yy, z, target, mu0 = _eigen_data(coeffs)
                mus = [mu0, *(m for m in (root,) if m > 0.0),
                       *(s[-1] * 10.0 ** np.linspace(-6, 1, 4))]
                points.append((s, xx, yy, z, target, mus))
        assert len(points) >= 20
        for s, xx, yy, z, target, mus in points:
            sums = _power_sums(xx, yy, z)
            for mu in mus:
                norm2, slope = _tx_power(s, sums, target, float(mu))
                ref_norm2, ref_slope = _tx_power_reference(s, xx, yy, z, target, float(mu))
                slope_tol = 1e-12 if mu <= s[-1] else 1e-9
                assert abs(norm2 - ref_norm2) <= 1e-12 * abs(ref_norm2), (case, mu)
                assert abs(slope - ref_slope) <= slope_tol * abs(ref_slope), (case, mu)

    def test_repeated_calls_bit_identical(self, tx_setup):
        _, coeffs = tx_setup
        w1, info1 = solve_tx(coeffs)
        w2, info2 = solve_tx(coeffs)
        assert np.array_equal(w1, w2) and info1 == info2


class TestSdrQuality:
    def test_randomization_within_two_percent_median(self):
        # N_t=2, K=1 corpus: the recovered rank-one objective stays within 2%
        # of the relaxation bound in median over 100 seeds
        gaps = []
        from fdiscc.orchestrator import echo_aligned_phases
        for seed in range(100):
            # the sensing level is chosen reachable-but-binding at this array size
            cfg = desk_config(m_passive=4, m_active=2, n_tx=2, n_rx=2,
                              n_cm=1, n_cp=1, seed=seed, gamma_tar_linear=0.5)
            ch = draw_channels(cfg)
            sol = make_solution(cfg, ch, np.random.default_rng(seed + 1000),
                                p_scale=1e-7)
            sol = sol.copy_with(phi=echo_aligned_phases(ch))
            lt = link_terms(sol, ch, cfg)
            aux = update_aux(lt)
            coeffs = assemble_tx_coeffs(sol, ch, aux, cfg, lt)
            try:
                res = solve_tx_sdr(coeffs, cfg)
                w = gaussian_randomize(res.blocks, coeffs, cfg, 200,
                                       np.random.default_rng(seed))
            except SensingInfeasible:
                continue
            bound = sdr_bound(coeffs, res)
            achieved = tx_objective(coeffs, w)
            gaps.append((bound - achieved) / max(abs(bound), 1e-12))
        assert len(gaps) >= 80
        assert float(np.median(gaps)) <= 0.02


class TestRx:
    def test_identity_vs_surrogate(self, small_cfg, small_ch, uplink_sol, hd):
        lt = link_terms(uplink_sol, small_ch, small_cfg, hd)
        aux = update_aux(lt)
        coeffs = assemble_rx_coeffs(uplink_sol, small_ch, aux, small_cfg, lt)
        rng = np.random.default_rng(7)
        for _ in range(4):
            u = rng.normal(size=(small_cfg.n_cp, small_cfg.n_rx)) \
                + 1j * rng.normal(size=(small_cfg.n_cp, small_cfg.n_rx))
            sol2 = uplink_sol.copy_with(u=u)
            _, off = surrogates(aux, link_terms(sol2, small_ch, small_cfg, hd))
            for l in range(small_cfg.n_cp):
                direct = off[l]
                assert rx_objective(coeffs, aux, u[l], l) == pytest.approx(direct, rel=1e-12)

    def test_identity_matrix_case(self):
        from fdiscc.beamforming import RxCoeffs
        coeffs = RxCoeffs(t5=np.eye(1, 4, dtype=complex), cov=np.eye(4, dtype=complex),
                          weight=np.ones(1))
        u = solve_rx(coeffs)
        assert np.allclose(u[0], np.eye(4)[0])

    def test_degenerate_rows_get_first_unit_vector(self):
        # a zero weight among regular rows is not divided by
        from fdiscc.beamforming import RxCoeffs
        coeffs = RxCoeffs(t5=np.ones((3, 3), complex), cov=2.0 * np.eye(3, dtype=complex),
                          weight=np.array([0.0, 1.0, 0.5]))
        with np.errstate(all="raise"):
            u = solve_rx(coeffs)
        assert np.array_equal(u[0], [1, 0, 0])
        assert np.array_equal(u[1], [0.5, 0.5, 0.5])
        assert np.array_equal(u[2], [1, 1, 1])

    def test_one_covariance_matches_per_user_solve(self, small_cfg, small_ch, uplink_sol, hd):
        # one solve of R with L right-hand sides against the per-user solves of
        # the matrices weight_l R
        lt = link_terms(uplink_sol, small_ch, small_cfg, hd)
        coeffs = assemble_rx_coeffs(uplink_sol, small_ch, update_aux(lt), small_cfg, lt)
        u = solve_rx(coeffs)
        assert np.all(coeffs.weight > 0.0)
        for l in range(small_cfg.n_cp):
            ref = np.linalg.solve(coeffs.weight[l] * coeffs.cov, coeffs.t5[l])
            assert np.allclose(u[l], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_scaling_invariance(self, small_cfg, small_ch, rand_sol):
        import dataclasses
        lt = link_terms(rand_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        coeffs = assemble_rx_coeffs(rand_sol, small_ch, aux, small_cfg, lt)
        scaled = dataclasses.replace(coeffs, t5=2 * coeffs.t5, weight=2 * coeffs.weight)
        assert np.allclose(solve_rx(coeffs), solve_rx(scaled), atol=1e-10)

    def test_finite_difference_stationarity(self, small_cfg, small_ch, rand_sol):
        lt = link_terms(rand_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        coeffs = assemble_rx_coeffs(rand_sol, small_ch, aux, small_cfg, lt)
        u_hat = solve_rx(coeffs)
        h = 1e-6
        for l in range(small_cfg.n_cp):
            base = rx_objective(coeffs, aux, u_hat[l], l)
            scale = max(1.0, abs(base))
            for i in range(small_cfg.n_rx):
                for delta in (h, 1j * h):
                    e = np.zeros(small_cfg.n_rx, complex)
                    e[i] = delta
                    plus = rx_objective(coeffs, aux, u_hat[l] + e, l)
                    minus = rx_objective(coeffs, aux, u_hat[l] - e, l)
                    assert abs(plus - minus) / (2 * h) <= 1e-6 * scale

    def test_sphere_search_no_better(self, small_cfg, small_ch, rand_sol):
        lt = link_terms(rand_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        coeffs = assemble_rx_coeffs(rand_sol, small_ch, aux, small_cfg, lt)
        u_hat = solve_rx(coeffs)
        rng = np.random.default_rng(8)
        for l in range(small_cfg.n_cp):
            best = rx_objective(coeffs, aux, u_hat[l], l)
            for _ in range(10_000):
                cand = rng.normal(size=small_cfg.n_rx) + 1j * rng.normal(size=small_cfg.n_rx)
                cand *= rng.uniform(0, 2) / np.linalg.norm(cand)
                assert rx_objective(coeffs, aux, cand, l) <= best + 1e-12

    def test_never_decreases_offload_surrogate(self, small_cfg, small_ch, rand_sol):
        lt = link_terms(rand_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        u_new = optimize_rx(rand_sol, small_ch, aux, small_cfg, lt)
        sol2 = rand_sol.copy_with(u=u_new)
        _, off_before = surrogates(aux, lt)
        _, off_after = surrogates(aux, link_terms(sol2, small_ch, small_cfg))
        for l in range(small_cfg.n_cp):
            before = off_before[l]
            after = off_after[l]
            assert after >= before - 1e-10 * (1 + abs(before))

    def test_degenerate_block_keeps_incumbent(self, small_cfg, small_ch, rand_sol):
        sol = rand_sol.copy_with(p=np.zeros(small_cfg.n_cp))
        lt = link_terms(sol, small_ch, small_cfg)
        aux = update_aux(lt)
        u_new = optimize_rx(sol, small_ch, aux, small_cfg, lt)
        assert np.array_equal(u_new, sol.u)
