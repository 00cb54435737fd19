import dataclasses
import math
import sys

import numpy as np
import pytest

from fdiscc.config import desk_config
from fdiscc.channels import draw_channels
from fdiscc.powercomp import (PowerCoeffs, _user_solve,
                              assemble_power_coeffs, optimize_power,
                              power_certificate, power_objective, solve_power_compute)
from fdiscc.sysmodel import SensingInfeasible, link_terms
from fdiscc.wmmse import surrogates, update_aux

from conftest import make_solution


@pytest.fixture()
def pc_sol(small_cfg, small_ch, rand_sol):
    # echo-aligned phases plus a radar-pointed sensing beam keep c8 positive
    from fdiscc.orchestrator import echo_aligned_phases
    phi = echo_aligned_phases(small_ch)
    cascade = (small_ch.g_s * phi[None, :]) @ small_ch.g_t
    radar_dir = np.linalg.eigh(cascade.conj().T @ cascade)[1][:, -1]
    w = rand_sol.w.copy()
    w[0] = radar_dir * np.sqrt(small_cfg.p_bs_watt / 2)
    w[1:] *= np.sqrt(small_cfg.p_bs_watt / 2 / max(np.sum(np.abs(w[1:]) ** 2), 1e-300))
    return rand_sol.copy_with(phi=phi, w=w)


@pytest.fixture()
def pc_setup(small_cfg, small_ch, pc_sol):
    lt = link_terms(pc_sol, small_ch, small_cfg)
    aux = update_aux(lt)
    coeffs = assemble_power_coeffs(pc_sol, small_ch, aux, small_cfg, lt)
    return aux, coeffs


class TestAssemble:
    def test_identity_vs_surrogates(self, small_cfg, small_ch, pc_sol):
        # the coefficients carry the surrogate sum's change from p = 0 to p,
        # halved under HD
        rng = np.random.default_rng(0)
        for hd in (False, True):
            lt = link_terms(pc_sol, small_ch, small_cfg, hd)
            aux = update_aux(lt)
            coeffs = assemble_power_coeffs(pc_sol, small_ch, aux, small_cfg, lt)

            def direct(p):
                com, off = surrogates(aux, link_terms(pc_sol.copy_with(p=p), small_ch,
                                                      small_cfg, hd))
                return sum(com[k] for k in range(small_cfg.n_cm)) \
                    + sum(off[l] for l in range(small_cfg.n_cp))

            base = direct(np.zeros(small_cfg.n_cp))
            for _ in range(5):
                p = rng.uniform(0, 5e-9, small_cfg.n_cp)
                via = float(np.sum(coeffs.b6 * np.sqrt(p) - coeffs.lin * p))
                assert via == pytest.approx((0.5 if hd else 1.0) * (direct(p) - base), abs=1e-8)

    def test_single_user_b7(self):
        cfg = desk_config(m_passive=6, m_active=3, n_cm=0, n_cp=1, seed=17)
        ch = draw_channels(cfg)
        sol = make_solution(cfg, ch, np.random.default_rng(3))
        lt = link_terms(sol, ch, cfg)
        aux = update_aux(lt)
        coeffs = assemble_power_coeffs(sol, ch, aux, cfg, lt)
        from fdiscc.sysmodel import composite_channels
        from fdiscc.wmmse import LN2
        comp = composite_channels(ch, sol.phi)
        expected = abs(aux.beta2[0]) ** 2 * abs(np.vdot(sol.u[0], comp.g[0])) ** 2 / LN2
        # no CM-UE, so no CCI: lin is the offloading weight b7 alone
        assert coeffs.lin[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("hd", [False, True])
    def test_matches_per_user_loop(self, small_cfg, small_ch, pc_sol, hd):
        # the vectorised assembly against the per-user loops it replaced, with
        # lin rebuilt densely as b7 + c1 @ b11 and the echo through the dense
        # target response
        from fdiscc.sysmodel import composite_channels
        from fdiscc.wmmse import LN2
        sol, cfg, ch = pc_sol, small_cfg, small_ch
        lt = link_terms(sol, ch, cfg, hd)
        aux = update_aux(lt)
        coeffs = assemble_power_coeffs(sol, ch, aux, cfg, lt)
        comp = composite_channels(ch, sol.phi)
        dw = 0.5 if hd else 1.0
        c1 = np.array([abs(aux.beta1[k]) ** 2 / LN2 for k in range(cfg.n_cm)])
        b11 = np.array([np.zeros(cfg.n_cp) if hd else np.abs(comp.ebar[:, k]) ** 2
                        for k in range(cfg.n_cm)])
        uamp = np.array([comp.g @ sol.u[l].conj() for l in range(cfg.n_cp)])
        b7 = np.zeros(cfg.n_cp)
        for l in range(cfg.n_cp):
            a2, b2l = aux.alpha2[l], aux.beta2[l]
            b6 = 2 * np.sqrt(1 + a2) * (np.conj(b2l) * uamp[l, l]).real / LN2
            b7[l] = sum(abs(aux.beta2[j]) ** 2 * abs(uamp[j, l]) ** 2
                        for j in range(cfg.n_cp)) / LN2
            assert coeffs.b6[l] == pytest.approx(dw * b6, rel=1e-12)
        np.testing.assert_allclose(coeffs.lin, dw * (b7 + c1 @ b11), rtol=1e-12, atol=0.0)
        cascade = ch.g_s @ np.diag(sol.phi) @ ch.g_t
        echo = sum(np.linalg.norm(cascade @ wj) ** 2 for wj in sol.w)
        assert coeffs.c8 == pytest.approx(echo - cfg.gamma_tar_linear * cfg.noise_irs_watt,
                                          rel=1e-12)

    def test_nonnegative_coefficients(self, pc_setup):
        _, coeffs = pc_setup
        assert np.all(coeffs.lin >= 0)
        assert np.all(coeffs.b9 >= 0)


def _grid_oracle(coeffs, cfg, n_p=200, n_mu=100):
    """Per-user 2-D grid + coupling-multiplier grid bounds.

    Returns (primal lower bound from feasible grid points, dual upper bound
    min over the mu grid), each refined once around the incumbent."""
    l_n = coeffs.b6.shape[0]
    e_max, t, zeta = cfg.e_max_array(), cfg.coherence_time_s, cfg.zeta
    f_coef = 1.0 / (cfg.eps_array() * cfg.bandwidth_hz)

    def user_obj(l, p):
        f = ((e_max[l] - t * p) / (t * zeta)) ** (1 / 3)
        return coeffs.b6[l] * np.sqrt(p) - coeffs.lin[l] * p + f_coef[l] * f, f

    def user_best(l, mu, lo, hi, n):
        ps = np.linspace(lo, hi, n)
        vals = np.array([user_obj(l, p)[0] - mu * coeffs.b9[l] * p for p in ps])
        i = int(np.argmax(vals))
        return ps[i], vals[i]

    def dual_value(mu):
        total = mu * coeffs.c8
        for l in range(l_n):
            p1, _ = user_best(l, mu, 0.0, e_max[l] / t * (1 - 1e-12), n_p)
            step = e_max[l] / t / n_p
            p2, v2 = user_best(l, mu, max(0.0, p1 - 2 * step),
                               min(e_max[l] / t * (1 - 1e-12), p1 + 2 * step), n_p)
            total += v2
        return total

    mus = np.linspace(0.0, 2e3, n_mu)
    dvals = [dual_value(m) for m in mus]
    i = int(np.argmin(dvals))
    lo = mus[max(i - 1, 0)]
    hi = mus[min(i + 1, n_mu - 1)]
    mus2 = np.linspace(lo, hi, n_mu)
    dual = min(min(dvals), min(dual_value(m) for m in mus2))

    # primal candidate: best feasible grid point at the argmin multiplier
    best_mu = mus2[int(np.argmin([dual_value(m) for m in mus2]))]
    p = np.zeros(l_n)
    for l in range(l_n):
        p1, _ = user_best(l, best_mu, 0.0, e_max[l] / t * (1 - 1e-12), n_p)
        step = e_max[l] / t / n_p
        p[l], _ = user_best(l, best_mu, max(0.0, p1 - 2 * step),
                            min(e_max[l] / t * (1 - 1e-12), p1 + 2 * step), n_p)
    if float(p @ coeffs.b9) > coeffs.c8 and float(p @ coeffs.b9) > 0:
        p *= coeffs.c8 / float(p @ coeffs.b9)
    primal = sum(user_obj(l, p[l])[0] for l in range(l_n))
    return primal, dual


class TestSolve:
    def test_unconstrained_stationary_point(self, small_cfg, pc_setup):
        # huge energy, no sensing cap, no compute term: p* = (b6/(2B))^2
        _, coeffs = pc_setup
        cfg2 = desk_config(m_passive=8, m_active=4, seed=7,
                           e_max_joule=1e9, zeta=1e-26)
        free = dataclasses.replace(coeffs, c8=1e30)
        p, f, _ = solve_power_compute(free, cfg2, force_f_zero=True)
        expected = (coeffs.b6 / (2 * coeffs.lin)) ** 2
        assert np.allclose(p, expected, rtol=1e-12)

    def test_no_gain_all_energy_to_compute(self, small_cfg, pc_setup):
        _, coeffs = pc_setup
        dead = dataclasses.replace(coeffs, b6=np.zeros_like(coeffs.b6))
        p, f, _ = solve_power_compute(dead, small_cfg)
        e_max, t = small_cfg.e_max_array(), small_cfg.coherence_time_s
        assert np.allclose(p, 0.0)
        assert np.allclose(f, (e_max / (t * small_cfg.zeta)) ** (1 / 3), rtol=1e-12)

    def test_energy_constraint_active(self, small_cfg, pc_setup):
        _, coeffs = pc_setup
        p, f, _ = solve_power_compute(coeffs, small_cfg)
        t = small_cfg.coherence_time_s
        used = t * p + t * small_cfg.zeta * f ** 3
        assert np.allclose(used, small_cfg.e_max_array(), rtol=1e-9)

    def test_coupling_constraint_respected(self, small_cfg, pc_setup):
        # the fixture's uplink is idle, so its budget never binds; the interior
        # instance at half its free load is where the dual bisection runs
        _, coeffs = pc_setup
        live = dataclasses.replace(coeffs, b6=_interior_b6(coeffs, small_cfg, (0.3, 0.6)))
        budget = float(_free_powers(small_cfg, (0.3, 0.6)) @ coeffs.b9)
        for tight in (dataclasses.replace(coeffs, c8=coeffs.c8 * 1e-3),
                      dataclasses.replace(live, c8=0.5 * budget)):
            p, f, info = solve_power_compute(tight, small_cfg)
            assert float(p @ tight.b9) <= tight.c8 * (1 + 1e-9)
        assert info["mu"] > 0.0 and info["iterations"] >= 1
        assert np.all(p > 0.0)

    def test_infeasible_budget_raises(self, small_cfg, pc_setup):
        _, coeffs = pc_setup
        bad = dataclasses.replace(coeffs, c8=-1.0)
        with pytest.raises(SensingInfeasible):
            solve_power_compute(bad, small_cfg)

    def test_unreachable_floor_keeps_incumbent_and_flags_call(self, small_cfg, small_ch,
                                                               pc_sol):
        # the block owns its infeasibility: no exception reaches the loop
        bad = dataclasses.replace(small_cfg, gamma_tar_linear=1e6 * small_cfg.gamma_tar_linear)
        lt = link_terms(pc_sol, small_ch, bad)
        aux = update_aux(lt)
        assert assemble_power_coeffs(pc_sol, small_ch, aux, bad, lt).c8 < 0.0
        p, f, info = optimize_power(pc_sol, small_ch, aux, bad, lt)
        assert p is pc_sol.p and f is pc_sol.f
        assert info["infeasible"] and not info["accepted"] and info["iterations"] == 0

    def test_matches_grid_oracle(self, small_cfg, small_ch):
        # solver sits between the primal (feasible grid) and dual (mu grid)
        # bounds within 1e-5 relative
        from fdiscc.orchestrator import echo_aligned_phases
        rng = np.random.default_rng(5)
        phi = echo_aligned_phases(small_ch)
        cascade = (small_ch.g_s * phi[None, :]) @ small_ch.g_t
        radar_dir = np.linalg.eigh(cascade.conj().T @ cascade)[1][:, -1]
        for trial in range(3):
            sol = make_solution(small_cfg, small_ch, rng, p_scale=1e-6)
            w = sol.w.copy()
            w[0] = radar_dir * np.sqrt(small_cfg.p_bs_watt / 2)
            sol = sol.copy_with(phi=phi, w=w)
            lt = link_terms(sol, small_ch, small_cfg)
            aux = update_aux(lt)
            coeffs = assemble_power_coeffs(sol, small_ch, aux, small_cfg, lt)
            # make the coupling active for at least one trial
            if trial == 2:
                coeffs = dataclasses.replace(coeffs, c8=coeffs.c8 * 1e-4)
            p, f, _ = solve_power_compute(coeffs, small_cfg)
            val = power_objective(coeffs, small_cfg, p, f)
            primal, dual = _grid_oracle(coeffs, small_cfg)
            scale = max(abs(val), 1.0)
            assert val >= primal - 1e-5 * scale
            assert val <= dual + 1e-5 * scale

    def test_stationarity_conditions(self, small_cfg, pc_setup):
        # interior p: b6/(2 sqrt p) = B + mu b9 + nu T with nu from the
        # f-stationarity 1/(eps B) = 3 nu T zeta f^2, within 1e-6 relative
        # (``power_certificate``); the fixture's uplink is idle (p = 0), so the
        # interior instance is checked with its sensing budget slack (2x its
        # free load, mu = 0) and binding (0.5x, mu > 0)
        _, coeffs = pc_setup
        live = dataclasses.replace(coeffs, b6=_interior_b6(coeffs, small_cfg, (0.3, 0.6)))
        budget = float(_free_powers(small_cfg, (0.3, 0.6)) @ coeffs.b9)
        checked, mus = 0, []
        for c in (coeffs, dataclasses.replace(live, c8=2.0 * budget),
                  dataclasses.replace(live, c8=0.5 * budget)):
            p, f, info = solve_power_compute(c, small_cfg)
            mus.append(info["mu"])
            checked += int(np.sum(p > 0))
            assert power_certificate(c, small_cfg, p, f, info)["stationarity"] <= 1e-6
        assert checked == 2 * small_cfg.n_cp
        assert mus[1] == 0.0 and mus[2] > 0.0

    def test_force_f_zero(self, small_cfg, pc_setup):
        _, coeffs = pc_setup
        p, f, _ = solve_power_compute(coeffs, small_cfg, force_f_zero=True)
        assert np.allclose(f, 0.0)

    def test_empty_users(self, small_cfg):
        coeffs = PowerCoeffs(b6=np.zeros(0), lin=np.zeros(0), b9=np.zeros(0), c8=1.0)
        p, f, _ = solve_power_compute(coeffs, small_cfg)
        assert p.size == 0 and f.size == 0

    def test_monotone_vs_incumbent(self, small_cfg, small_ch, pc_sol):
        lt = link_terms(pc_sol, small_ch, small_cfg)
        aux = update_aux(lt)
        p, f, info = optimize_power(pc_sol, small_ch, aux, small_cfg, lt)
        coeffs = assemble_power_coeffs(pc_sol, small_ch, aux, small_cfg, lt)
        new_val = power_objective(coeffs, small_cfg, p, f)
        old_val = power_objective(coeffs, small_cfg, pc_sol.p, pc_sol.f)
        assert new_val >= old_val - 1e-12 * (1 + abs(old_val))

    def test_dual_search_evaluations_and_tight_budget(self, small_cfg, pc_setup):
        # the fixture's uplink is idle (p = 0 at every mu), so the instance with
        # an interior optimum is the one on which the coupling binds
        _, coeffs = pc_setup
        live = dataclasses.replace(coeffs, b6=_interior_b6(coeffs, small_cfg, (0.3, 0.6)))
        budget = float(_free_powers(small_cfg, (0.3, 0.6)) @ coeffs.b9)
        _, _, info = solve_power_compute(dataclasses.replace(coeffs, c8=coeffs.c8 * 1e-4),
                                         small_cfg)
        assert (info["mu"], info["iterations"], info["evaluations"]) == (0.0, 0, 1)
        tight = dataclasses.replace(live, c8=0.5 * budget)
        p, _, info = solve_power_compute(tight, small_cfg)
        # the solve at mu = 0, one per root-find evaluation, the one at the root
        assert info["mu"] > 0.0 and info["evaluations"] == info["iterations"] + 2
        assert abs(float(p @ tight.b9) - tight.c8) <= 1e-12 * tight.c8
        # a zero budget admits p = 0 only
        p, _, info = solve_power_compute(dataclasses.replace(live, c8=0.0), small_cfg)
        assert np.all(p == 0.0) and info["mu"] == math.inf and info["evaluations"] == 1

    @pytest.mark.parametrize("exponent", [20, -20])
    def test_unit_rescale_bit_equal(self, small_cfg, pc_setup, exponent):
        # b9 and c8 in other units: mu rescales exactly, p and f do not move
        _, coeffs = pc_setup
        live = dataclasses.replace(coeffs, b6=_interior_b6(coeffs, small_cfg, (0.3, 0.6)))
        budget = float(_free_powers(small_cfg, (0.3, 0.6)) @ coeffs.b9)
        scale = 2.0 ** exponent
        for frac in (2.0, 0.5):
            c = dataclasses.replace(live, c8=frac * budget)
            p, f, info = solve_power_compute(c, small_cfg)
            scaled = dataclasses.replace(c, b9=c.b9 * scale, c8=c.c8 * scale)
            p2, f2, info2 = solve_power_compute(scaled, small_cfg)
            assert p2.tobytes() == p.tobytes() and f2.tobytes() == f.tobytes()
            assert info2["mu"] * scale == info["mu"]
        assert info["mu"] > 0.0


def _free_powers(cfg, fracs):
    return cfg.e_max_array() / cfg.coherence_time_s * np.asarray(fracs)


def _interior_b6(coeffs, cfg, fracs):
    """b6 that puts the unconstrained optimum of each user at fracs * E/T."""
    t, zeta = cfg.coherence_time_s, cfg.zeta
    p = _free_powers(cfg, fracs)
    f = ((cfg.e_max_array() - t * p) / (t * zeta)) ** (1 / 3)
    f_coef = 1.0 / (cfg.eps_array() * cfg.bandwidth_hz)
    return 2.0 * np.sqrt(p) * (coeffs.lin + f_coef / (3.0 * zeta * f ** 2))


def _user_solve_200(b6, lin, mu_b9, e_max, t, zeta, f_coef, force_f_zero):
    """The per-user solver with 200 fixed bisection steps in numpy scalars:
    the reference that the root-find must meet to within its stop rule."""
    p_hi = e_max / t
    slope = lin + mu_b9

    if force_f_zero:
        if b6 <= 0.0:
            return 0.0, 0.0
        if slope <= 0.0:
            return p_hi, 0.0
        p_star = min((b6 / (2.0 * slope)) ** 2, p_hi)
        return p_star, 0.0

    def f_of(p):
        return ((e_max - t * p) / (t * zeta)) ** (1.0 / 3.0)

    def deriv(p):
        d = -f_coef / (3.0 * zeta) * ((e_max - t * p) / (t * zeta)) ** (-2.0 / 3.0)
        d -= slope
        if p > 0.0:
            d += b6 / (2.0 * np.sqrt(p))
        return d

    if b6 <= 0.0 or deriv(p_hi * 1e-14) <= 0.0:
        return 0.0, f_of(0.0)
    lo, hi = p_hi * 1e-14, p_hi * (1.0 - 1e-14)
    if deriv(hi) >= 0.0:
        p_star = hi
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if deriv(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        p_star = 0.5 * (lo + hi)
    return p_star, f_of(p_star)


USER_CASES = ("interior", "near-lower-end", "upper-cap", "no-gain", "force-f-zero")


def _user_instances(n_per_case, seed=0):
    """(case, args of _user_solve) at desk scales, numpy scalars as the
    block passes them; every case draws its own energies, CPU constants and
    linear costs log-uniformly around the desk configuration."""
    rng = np.random.default_rng(seed)
    cfg = desk_config()
    t = cfg.coherence_time_s
    out = []
    for case in USER_CASES:
        for _ in range(n_per_case):
            e_max = np.float64(10.0 ** rng.uniform(-3.0, -1.0))
            zeta = 10.0 ** rng.uniform(-27.0, -25.0)
            f_coef = np.float64(10.0 ** rng.uniform(-10.0, -8.0))
            lin = np.float64(10.0 ** rng.uniform(2.0, 6.0)) if rng.uniform() < 0.9 else np.float64(0.0)
            mu_b9 = np.float64(0.0) if rng.uniform() < 0.5 else np.float64(10.0 ** rng.uniform(2.0, 6.0))
            p_hi = e_max / t
            slope = lin + mu_b9

            def b6_at(p):
                f = ((e_max - t * p) / (t * zeta)) ** (1.0 / 3.0)
                return 2.0 * np.sqrt(p) * (slope + f_coef / (3.0 * zeta * f ** 2))

            if case == "interior":
                b6 = b6_at(p_hi * 10.0 ** rng.uniform(-12.0, -1e-3))
            elif case == "near-lower-end":
                b6 = b6_at(p_hi * 1e-14 * rng.uniform(0.5, 5.0))
            elif case == "upper-cap":
                b6 = b6_at(p_hi * (1.0 - 1e-14)) * rng.uniform(1.0, 2.0)
            elif case == "no-gain":
                b6 = -b6_at(p_hi * 10.0 ** rng.uniform(-12.0, -1e-3)) * rng.uniform(0.0, 1.0)
            else:
                b6 = b6_at(p_hi * 10.0 ** rng.uniform(-12.0, -1e-3)) * rng.choice((-1.0, 1.0))
            out.append((case, (np.float64(b6), lin, mu_b9, e_max, t, zeta, f_coef,
                               case == "force-f-zero")))
    return out


def _user_deriv(b6, lin, mu_b9, e_max, t, zeta, f_coef, force_f_zero, p):
    """The derivative ``_user_solve`` searches, in the same float operations."""
    b6, e_max, t, zeta, f_coef = float(b6), float(e_max), float(t), float(zeta), float(f_coef)
    slope = float(lin) + float(mu_b9)
    f_slope = -f_coef / (3.0 * zeta)
    return (f_slope * ((e_max - t * p) / (t * zeta)) ** (-2.0 / 3.0) - slope
            + b6 / (2.0 * math.sqrt(p)))


class TestUserSolve:
    def test_within_four_eps_of_200_step_reference(self):
        # the root-find stops once its bracket is 4 eps wide relative to its
        # upper end, at which the derivative is not positive
        seen = set()
        for case, args in _user_instances(50):
            p = _user_solve(*args)
            p_ref, _ = _user_solve_200(*args)
            assert abs(p - p_ref) <= 4.0 * np.finfo(float).eps * p_ref, (case, args)
            if case == "interior":
                assert 0.0 < p < args[3] / args[4] * (1.0 - 1e-14)
                assert _user_deriv(*args, p) <= 0.0, (case, args)
            seen.add((case, p == 0.0))
        # the lower-end draws land on both sides of the bracket's start
        assert ("near-lower-end", True) in seen and ("near-lower-end", False) in seen

    def test_derivative_evaluations_bounded(self):
        # two end checks, then the root-find, whose first evaluation repeats
        # the upper one: at most 38 evaluations on these instances, against
        # about 100 for bisection to float resolution
        from fdiscc import powercomp
        calls = []

        def profile(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "deriv"
                    and frame.f_code.co_filename == powercomp.__file__):
                calls.append(1)

        most = 0
        for case, args in _user_instances(20, seed=1):
            calls.clear()
            sys.setprofile(profile)
            try:
                _user_solve(*args)
            finally:
                sys.setprofile(None)
            most = max(most, len(calls))
        assert most <= 40
