"""CP-UE transmit power and local CPU allocation.

The coefficients restate the ``wmmse`` surrogates of ``sysmodel.link_terms``
as functions of the uplink powers: each offloading surrogate is a p-free
term plus sqrt(p_l) b6 - p_l b7, each downlink surrogate loses its uplink CCI
linearly in p, and the radar constraint, echo >= Gamma (sum_l p_l ||g_au,l||^2
+ sigma_irs^2) with the echo of ``LinkTerms``, is one linear interference
budget.  Only the p-dependent part is kept, with every cost linear in p
summed once into ``lin``.  That leaves a separable concave maximization with
one coupling constraint.  The energy constraint is always active at an
optimum because residual energy is worth strictly positive computation rate,
so each user reduces to a 1-D concave problem in p after substituting
f(p) = ((E - T p) / (T zeta))^{1/3}, and the coupling multiplier mu makes the
interference total, which falls with mu, meet the budget.
``power_certificate`` gives a solve's KKT residuals, which the tests and
``fdiscc selftest`` (``selftest.py``) read.

Both searches, each user's root of the derivative (in sqrt(p)) and the outer
one for mu, are ``rootfind.increasing_root``, safeguarded Newton with slopes
in closed form. Its stop rule is relative, so rescaling b9 and c8 by a power
of two (a change of units) rescales mu exactly and leaves p and f bit-equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .config import SystemConfig
from .rootfind import increasing_root
from .sysmodel import LinkTerms, SensingInfeasible, Solution, relative
from .wmmse import LN2, AuxVars


@dataclass(frozen=True)
class PowerCoeffs:
    """Objective data (log2 scaled, halved under HD) and the unscaled sensing row.

    The surrogate sum depends on p through sum_l (sqrt(p_l) b6[l] - p_l lin[l]),
    lin[l] = b7[l] + sum_k c1[k] |ebar_lk|^2: the offloading interference
    weight b7 plus, under FD, the CCI each user causes at every CM-UE, with
    c1 = |beta1|^2 / ln 2.  Sensing budget: sum_l p_l b9[l] <= c8.
    """

    b6: np.ndarray
    lin: np.ndarray
    b9: np.ndarray
    c8: float


def assemble_power_coeffs(sol: Solution, ch: ChannelSet, aux: AuxVars,
                          cfg: SystemConfig, lt: LinkTerms) -> PowerCoeffs:
    """The terms in sqrt(p) and p of each surrogate of ``wmmse``, read from
    ``lt``, the ``link_terms`` of this same solution."""
    b6 = 2.0 * np.sqrt(1.0 + aux.alpha2) * (np.conj(aux.beta2) * np.diagonal(lt.uamp)).real / LN2
    lin = np.abs(aux.beta2) ** 2 @ np.abs(lt.uamp) ** 2 / LN2
    if not lt.hd:               # the uplink CCI at the CM-UEs, linear in p
        lin = lin + (np.abs(aux.beta1) ** 2 / LN2) @ (np.abs(lt.comp.ebar) ** 2).T

    c8 = lt.echo - cfg.gamma_tar_linear * cfg.noise_irs_watt
    b9 = cfg.gamma_tar_linear * ch.g_au_norm2
    dw = lt.duplex              # HD links transmit half of the time
    return PowerCoeffs(b6=dw * b6, lin=dw * lin, b9=b9, c8=float(c8))


def power_objective(coeffs: PowerCoeffs, cfg: SystemConfig, p: np.ndarray,
                    f: np.ndarray) -> float:
    """The separable concave objective at (p, f)."""
    off = float((coeffs.b6 * np.sqrt(p) - coeffs.lin * p).sum())
    loc = float((f / (cfg.eps_array() * cfg.bandwidth_hz)).sum())
    return off + loc


def _user_solve(b6: float, lin: float, mu_b9: float, e_max: float, t: float,
                zeta: float, f_coef: float, force_f_zero: bool) -> float:
    """The p maximizing b6 sqrt(p) - (lin + mu_b9) p + f_coef * f(p) on [0, E/T].

    The derivative h(p) falls in p, so an interior optimum is the root of -h
    on the bracket [1e-14, 1 - 1e-14] E/T, returned on the side where h is
    not positive. It runs in s = sqrt(p), -h(s^2) = lin + mu_b9 - b6 / (2 s)
    + c(s^2) with the compute term c(p) rising in p, from the root with c
    frozen at c(0), b6 / (2 (lin + mu_b9 + c(0))), which lies above the root.
    """
    b6, e_max, t, zeta, f_coef = float(b6), float(e_max), float(t), float(zeta), float(f_coef)
    p_hi = e_max / t
    slope = float(lin) + float(mu_b9)

    if force_f_zero:
        if b6 <= 0.0:
            return 0.0
        if slope <= 0.0:
            return p_hi
        return min((b6 / (2.0 * slope)) ** 2, p_hi)

    tz = t * zeta
    f_slope = -f_coef / (3.0 * zeta)

    def deriv(p):
        return f_slope * ((e_max - t * p) / tz) ** (-2.0 / 3.0) - slope + b6 / (2.0 * math.sqrt(p))

    def neg_deriv(s):
        """-h(s^2) and its slope in s."""
        p = s * s
        growth = -4.0 * s * f_slope / (3.0 * zeta) * ((e_max - t * p) / tz) ** (-5.0 / 3.0)
        return -deriv(p), b6 / (2.0 * p) + growth

    lo, hi = p_hi * 1e-14, p_hi * (1.0 - 1e-14)
    if deriv(lo) <= 0.0:        # always when b6 <= 0
        return 0.0
    if deriv(hi) >= 0.0:
        return hi
    s_lo, s_hi = math.sqrt(lo), math.sqrt(hi)
    frozen = slope - f_slope * (e_max / tz) ** (-2.0 / 3.0)     # lin + mu_b9 + c(0)
    start = b6 / (2.0 * frozen) if 2.0 * frozen * s_hi > b6 else 0.5 * (s_lo + s_hi)
    return increasing_root(neg_deriv, start, s_lo, s_hi)[0] ** 2


def solve_power_compute(coeffs: PowerCoeffs, cfg: SystemConfig,
                        force_f_zero: bool = False
                        ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Exact KKT point of the power/compute block.

    mu is 0 when the budget is slack at mu = 0. Otherwise it is the root of
    c8 - sum_l b9_l p_l(mu) on [0, mu_bar], mu_bar = max_l b6_l / (2 sqrt(c8 b9_l / L)):
    at mu_bar no user's derivative is positive at its share c8 / (L b9_l) of
    the budget, so the budget holds there, as it does at the returned mu,
    where p is taken. Only p = 0 fits c8 = 0 (mu = inf). The search runs on
    1/sqrt(load) - 1/sqrt(c8), load = sum_l b9_l p_l(mu) (linear in mu for a
    lone user with f = 0), from its Newton step off 0, with dp_l/dmu = b9_l /
    h_l'(p_l) at an interior p_l (h_l as in ``_user_solve``) and 0 at a bound.

    The info dict holds ``mu``, ``iterations``, the root-find's evaluations,
    and ``evaluations``, the number of all-user solves: the one at mu = 0, one
    per root-find evaluation and the one at the returned mu.

    Raises SensingInfeasible when c8 < 0 (no uplink power level can
    restore the sensing margin; the caller must fix phase/beams first).
    """
    l_n = coeffs.b6.shape[0]
    if l_n == 0:
        return np.zeros(0), np.zeros(0), {"mu": 0.0, "iterations": 0, "evaluations": 0}
    if coeffs.c8 < 0.0:
        raise SensingInfeasible(f"sensing budget c8 = {coeffs.c8:.3e} < 0")

    t, zeta, e_max = cfg.coherence_time_s, cfg.zeta, cfg.e_max_array()
    f_coef = 1.0 / (cfg.eps_array() * cfg.bandwidth_hz)
    evaluations, inv_root_c8 = 0, 1.0 / math.sqrt(coeffs.c8) if coeffs.c8 > 0.0 else math.inf
    f_curv = 0.0 * f_coef if force_f_zero else 2.0 * f_coef / (9.0 * zeta ** 2)

    def all_users(mu):
        nonlocal evaluations
        evaluations += 1
        return np.array([_user_solve(coeffs.b6[l], coeffs.lin[l], mu * coeffs.b9[l], e_max[l],
                                     t, zeta, f_coef[l], force_f_zero) for l in range(l_n)])

    def secular(mu):
        """p(mu), 1/sqrt(load) - 1/sqrt(c8) and its slope in mu."""
        p = all_users(mu)
        load, live = float(p @ coeffs.b9), (p > 0.0) & (p < e_max / t * (1.0 - 1e-14))
        if load == 0.0:
            return p, math.inf, 0.0
        x = (e_max[live] - t * p[live]) / (t * zeta)
        curv = coeffs.b6[live] / (4.0 * p[live] ** 1.5) + f_curv[live] * x ** (-5.0 / 3.0)
        return (p, 1.0 / math.sqrt(load) - inv_root_c8,       # curv = -h_l'(p_l)
                0.5 * float((coeffs.b9[live] ** 2 / curv).sum()) / (load * math.sqrt(load)))

    p, value, slope = secular(0.0)
    mu, iters = 0.0, 0
    if value < 0.0 and coeffs.c8 == 0.0:
        mu, p = math.inf, np.zeros(l_n)
    elif value < 0.0:
        mu_bar = float((coeffs.b6 / (2.0 * np.sqrt(coeffs.c8 * coeffs.b9 / l_n))).max())
        start = -value / slope if -value < mu_bar * slope else 0.5 * mu_bar
        mu, iters = increasing_root(lambda m: secular(m)[1:], start, 0.0, mu_bar)
        p = all_users(mu)

    # snap vanishing powers to an exact zero so downstream scale-sensitive
    # quantities (combiner weights ~ 1/sqrt(p)) cannot degenerate; the
    # caller-side monotonicity safeguard rejects the snap if it ever loses
    snap = e_max / t * 1e-14
    p = np.where(p < snap, 0.0, p)
    f = np.zeros(l_n) if force_f_zero else ((e_max - t * p) / (t * zeta)) ** (1.0 / 3.0)
    return p, f, {"mu": mu, "iterations": iters, "evaluations": evaluations}


def power_certificate(coeffs: PowerCoeffs, cfg: SystemConfig, p: np.ndarray,
                      f: np.ndarray, info: dict) -> dict:
    """KKT residuals of (p, f) at the ``mu`` of ``solve_power_compute``'s info,
    each relative to its own scale and 0 when exact. A user with f > 0 has
    the energy constraint T p + T zeta f^3 = E active, and an interior p has
    b6 / (2 sqrt p) = lin + mu b9 + nu T with 1 / (eps B) = 3 nu T zeta f^2.
    A user with f = 0 (full offloading) needs only T p <= E, an interior p
    has b6 / (2 sqrt p) = lin + mu b9, and p = E/T needs b6 / (2 sqrt p) >=
    lin + mu b9."""
    t, zeta, e_max = cfg.coherence_time_s, cfg.zeta, cfg.e_max_array()
    mu, load = info["mu"], float(p @ coeffs.b9)
    local = f > 0.0
    energy = t * p + t * zeta * f ** 3 - e_max
    energy = np.where(local, np.abs(energy), np.maximum(energy, 0.0)) / e_max
    cap = ~local & (p == e_max / t)
    live = (p > 0.0) & ((p < e_max / t) | cap)
    grad = coeffs.b6[live] / (2.0 * np.sqrt(p[live]))
    nu_t = np.divide(1.0, cfg.eps_array() * cfg.bandwidth_hz * 3.0 * zeta * f ** 2,
                     out=np.zeros(f.size), where=local)
    gap = grad - coeffs.lin[live] - mu * coeffs.b9[live] - nu_t[live]
    stationarity = np.where(cap[live], np.maximum(-gap, 0.0), np.abs(gap)) / grad
    scale = max(1.0, abs(power_objective(coeffs, cfg, p, f)))
    return {
        "energy": float(np.max(energy, initial=0.0)),
        "stationarity": float(np.max(stationarity, initial=0.0)),
        "mu_sign": max(0.0, -mu) * coeffs.c8 / scale,
        "budget": relative(max(load - coeffs.c8, 0.0), coeffs.c8),
        # mu = inf leaves only p = 0 on a zero budget, which is exact
        "slackness": (abs(mu * (coeffs.c8 - load)) if load != coeffs.c8 else 0.0) / scale,
    }


def optimize_power(sol: Solution, ch: ChannelSet, aux: AuxVars, cfg: SystemConfig,
                   lt: LinkTerms, force_f_zero: bool = False
                   ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Power/compute update with a monotonicity safeguard against the
    incumbent, also kept (and flagged ``infeasible``) when c8 < 0."""
    coeffs = assemble_power_coeffs(sol, ch, aux, cfg, lt)
    try:
        p, f, info = solve_power_compute(coeffs, cfg, force_f_zero)
    except SensingInfeasible:
        return sol.p, sol.f, {"accepted": False, "infeasible": True, "iterations": 0}
    new_val = power_objective(coeffs, cfg, p, f)
    old_val = power_objective(coeffs, cfg, sol.p, sol.f)
    info["accepted"] = new_val >= old_val - 1e-12 * (1.0 + abs(old_val))
    if not info["accepted"]:
        return sol.p, sol.f, info
    return p, f, info
