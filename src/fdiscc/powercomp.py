"""CP-UE transmit power and local CPU allocation.

The coefficients restate the ``wmmse`` surrogates of ``sysmodel.link_terms``
as functions of the uplink powers: each offloading surrogate is
b2 + sqrt(p_l) b6 - p_l b7, each downlink surrogate loses its uplink CCI
linearly in p, and ``sysmodel.sensing_floor`` turns the radar constraint into
one linear interference budget.  That leaves a separable concave maximization
with one coupling constraint.  The energy constraint is always active at an optimum
because residual energy is worth strictly positive computation rate, so each
user reduces to a 1-D concave problem in p after substituting
f(p) = ((E - T p) / (T zeta))^{1/3}, and the coupling multiplier mu makes the
interference total, which falls with mu, meet the budget.

Both searches, each user's root of the derivative in p and the outer one
for mu, are ``rootfind.increasing_root``. Its stop rule is relative, so
rescaling b9 and c8 by a power of two (a change of units) rescales mu
exactly and leaves p and f bit-equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .config import SystemConfig
from .rootfind import increasing_root
from .sysmodel import LinkTerms, Solution, echo_matrix, sensing_floor
from .wmmse import LN2, AuxVars, _bracket


class SensingInfeasibleError(Exception):
    """Even zero uplink power violates the sensing floor (c8 < 0)."""


@dataclass(frozen=True)
class PowerCoeffs:
    """Objective data (log2 scaled, halved under HD) and the unscaled sensing row.

    Offload surrogate of user l:  b2[l] + sqrt(p_l) b6[l] - p_l b7[l];
    downlink surrogate of user k: b10[k] - c1[k] sum_l p_l b11[k, l];
    sensing budget: sum_l p_l b9[l] <= c8.
    """

    b2: np.ndarray
    b6: np.ndarray
    b7: np.ndarray
    b9: np.ndarray
    b10: np.ndarray
    b11: np.ndarray
    c1: np.ndarray
    c8: float


def assemble_power_coeffs(sol: Solution, ch: ChannelSet, aux: AuxVars,
                          cfg: SystemConfig, lt: LinkTerms) -> PowerCoeffs:
    """Split each surrogate of ``wmmse`` into its p-free part and its terms in
    sqrt(p) and p, read from ``lt``, the ``link_terms`` of this same solution."""
    k_n, l_n = lt.com_sig.shape[0], lt.off_sig.shape[0]
    # downlink: everything but the uplink CCI, which is linear in p
    b10 = _bracket(aux.alpha1, aux.beta1, lt.com_sig, lt.com_den - lt.cci)
    c1 = np.abs(aux.beta1) ** 2 / LN2
    b11 = np.zeros((k_n, l_n)) if lt.hd else (np.abs(lt.comp.ebar) ** 2).T
    # offloading: b2 + sqrt(p_l) b6 - p_l b7
    b2 = _bracket(aux.alpha2, aux.beta2, 0.0, lt.si + lt.noise_off)
    b6 = 2.0 * np.sqrt(1.0 + aux.alpha2) * (np.conj(aux.beta2) * np.diagonal(lt.uamp)).real / LN2
    b7 = np.abs(aux.beta2) ** 2 @ np.abs(lt.uamp) ** 2 / LN2

    echo = float(np.sum(np.abs(echo_matrix(ch, sol.phi) @ sol.w.T) ** 2))
    c8 = echo - sensing_floor(cfg, ch, np.zeros(l_n))
    b9 = cfg.gamma_tar_linear * (np.abs(ch.g_au) ** 2).sum(axis=1)
    dw = lt.duplex              # HD links transmit half of the time
    return PowerCoeffs(b2=dw * b2, b6=dw * b6, b7=dw * b7, b9=b9, b10=dw * b10, b11=b11,
                       c1=dw * c1, c8=float(c8))


def power_objective(coeffs: PowerCoeffs, cfg: SystemConfig, p: np.ndarray,
                    f: np.ndarray) -> float:
    """The separable concave objective at (p, f)."""
    lin = coeffs.b7 + coeffs.c1 @ coeffs.b11 if coeffs.b11.size else coeffs.b7
    off = float(np.sum(coeffs.b6 * np.sqrt(p) - lin * p))
    loc = float(np.sum(f / (cfg.eps_array() * cfg.bandwidth_hz)))
    return off + loc


def _user_solve(b6: float, lin: float, mu_b9: float, e_max: float, t: float,
                zeta: float, f_coef: float, force_f_zero: bool) -> float:
    """The p maximizing b6 sqrt(p) - (lin + mu_b9) p + f_coef * f(p) on [0, E/T].

    The derivative falls in p, so an interior optimum is the root of its
    negative on the bracket [1e-14, 1 - 1e-14] E/T, returned on the side
    where the derivative is not positive.
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

    lo, hi = p_hi * 1e-14, p_hi * (1.0 - 1e-14)
    d_lo = deriv(lo)            # negative whenever b6 <= 0
    if d_lo <= 0.0:
        return 0.0
    if deriv(hi) >= 0.0:
        return hi
    return increasing_root(lambda p: -deriv(p), lo, -d_lo, hi)[0]


def solve_power_compute(coeffs: PowerCoeffs, cfg: SystemConfig,
                        force_f_zero: bool = False
                        ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Exact KKT point of the power/compute block.

    mu is 0 when the budget is slack at mu = 0. Otherwise it is the root of
    c8 - sum_l b9_l p_l(mu) on [0, mu_bar], mu_bar = max_l b6_l / (2 sqrt(c8 b9_l / L)):
    at mu_bar no user's derivative is positive at its share c8 / (L b9_l) of
    the budget, so the budget holds there, as it does at the returned mu,
    where p is taken. Only p = 0 fits c8 = 0 (mu = inf).

    The info dict holds ``mu``, ``iterations``, the root-find's evaluations,
    and ``evaluations``, the number of all-user solves: the one at mu = 0, one
    per root-find evaluation and the one at the returned mu.

    Raises SensingInfeasibleError when c8 < 0 (no uplink power level can
    restore the sensing margin; the caller must fix phase/beams first).
    """
    l_n = coeffs.b6.shape[0]
    if l_n == 0:
        return np.zeros(0), np.zeros(0), {"mu": 0.0, "iterations": 0, "evaluations": 0}
    if coeffs.c8 < 0.0:
        raise SensingInfeasibleError(f"sensing budget c8 = {coeffs.c8:.3e} < 0")

    t, zeta, e_max = cfg.coherence_time_s, cfg.zeta, cfg.e_max_array()
    f_coef = 1.0 / (cfg.eps_array() * cfg.bandwidth_hz)
    lin = coeffs.b7 + (coeffs.c1 @ coeffs.b11 if coeffs.b11.size else 0.0)
    evaluations = 0

    def all_users(mu):
        nonlocal evaluations
        evaluations += 1
        return np.array([_user_solve(coeffs.b6[l], lin[l], mu * coeffs.b9[l], e_max[l], t,
                                     zeta, f_coef[l], force_f_zero) for l in range(l_n)])

    p = all_users(0.0)
    total = float(p @ coeffs.b9)
    mu, iters = 0.0, 0
    if total > coeffs.c8 and coeffs.c8 == 0.0:
        mu, p = math.inf, np.zeros(l_n)
    elif total > coeffs.c8:
        mu_bar = float(np.max(coeffs.b6 / (2.0 * np.sqrt(coeffs.c8 * coeffs.b9 / l_n))))
        mu, iters = increasing_root(lambda m: coeffs.c8 - float(all_users(m) @ coeffs.b9),
                                    0.0, coeffs.c8 - total, mu_bar)
        p = all_users(mu)

    # snap vanishing powers to an exact zero so downstream scale-sensitive
    # quantities (combiner weights ~ 1/sqrt(p)) cannot degenerate; the
    # caller-side monotonicity safeguard rejects the snap if it ever loses
    snap = e_max / t * 1e-14
    p = np.where(p < snap, 0.0, p)
    f = np.zeros(l_n) if force_f_zero else ((e_max - t * p) / (t * zeta)) ** (1.0 / 3.0)
    return p, f, {"mu": mu, "iterations": iters, "evaluations": evaluations}


def optimize_power(sol: Solution, ch: ChannelSet, aux: AuxVars, cfg: SystemConfig,
                   lt: LinkTerms, force_f_zero: bool = False
                   ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Power/compute update with a monotonicity safeguard against the incumbent."""
    coeffs = assemble_power_coeffs(sol, ch, aux, cfg, lt)
    p, f, info = solve_power_compute(coeffs, cfg, force_f_zero)
    new_val = power_objective(coeffs, cfg, p, f)
    old_val = power_objective(coeffs, cfg, sol.p, sol.f)
    info["accepted"] = new_val >= old_val - 1e-12 * (1.0 + abs(old_val))
    if not info["accepted"]:
        return sol.p, sol.f, info
    return p, f, info
