"""Correctness checks of benchmark cells, from arithmetic done here.

Each check recomputes its quantity with numpy from the ``SystemConfig``, the
``ChannelSet`` and the returned ``Solution``/``Metrics``, or tests a property
the method must have. None compares with a stored copy of earlier output.
A check returns a list of problems; an empty list means the cell passed.
"""

from __future__ import annotations

import math

import numpy as np

# relative tolerances; the acceptance suite uses the same or looser ones
TOL_POWER = 1e-9
TOL_ECHO = 1e-6
TOL_MODULUS = 1e-9
TOL_ENERGY = 1e-9
TOL_CACHE = 1e-9
TOL_OBJECTIVE = 1e-8
TOL_SINR = 1e-9
TOL_BITS = 1e-12
# absolute, on the uncached share: HiGHS stops at 1e-7 on each reduced cost,
# and on the 1e5-file catalogue its share lands 1e-7 to 3e-7 above the optimum
TOL_LP = 1e-6


def _per_index(value, n: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    return np.full(n, arr[0]) if arr.size == 1 else arr


def _zipf(n: int, skew: float) -> np.ndarray:
    """Unnormalised Zipf weights v^-skew, v = 1..n."""
    return np.arange(1, n + 1, dtype=float) ** (-skew)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def echo_sinr(cfg, ch, sol) -> float:
    """sum_j |G_s diag(phi) G_t w_j|^2 / (sum_l p_l |g_au,l|^2 + sigma^2)."""
    cascade = ch.g_s @ (sol.phi[:, None] * ch.g_t)
    echo = float(np.sum(np.abs(np.einsum("an,jn->aj", cascade, sol.w)) ** 2))
    interf = float(np.sum(sol.p * np.sum(np.abs(ch.g_au) ** 2, axis=1)))
    return echo / (interf + cfg.noise_irs_watt)


def user_sinrs(cfg, ch, sol, hd: bool) -> tuple[np.ndarray, np.ndarray]:
    """Downlink SINR per CM-UE and post-combining SINR per CP-UE."""
    h = np.einsum("km,m,mn->kn", ch.h_pu.conj(), sol.phi, ch.g_t)
    gains = np.abs(h @ sol.w.T) ** 2                    # [k, j] = |h_k w_j|^2
    k_n = h.shape[0]
    desired = gains[np.arange(k_n), np.arange(k_n) + 1]
    ebar = ch.e_direct + np.einsum("km,m,lm->lk", ch.h_pu.conj(), sol.phi, ch.g_pu)
    cci = np.zeros(k_n) if hd else sol.p @ (np.abs(ebar) ** 2)
    r_com = desired / (gains.sum(axis=1) - desired + cci + cfg.noise_ue_watt)

    g = np.einsum("mr,m,lm->lr", ch.g_r.conj(), sol.phi, ch.g_pu)
    recv = np.abs(sol.u.conj() @ g.T) ** 2 * sol.p[None, :]   # [l, l'] = p_l'|u_l^H g_l'|^2
    l_n = g.shape[0]
    own = recv[np.arange(l_n), np.arange(l_n)]
    si = np.zeros(l_n) if hd else np.sum(np.abs(sol.u.conj() @ ch.h_si @ sol.w.T) ** 2, axis=1)
    noise = np.sum(np.abs(sol.u) ** 2, axis=1) * cfg.noise_bs_watt
    den = recv.sum(axis=1) - own + si + noise
    r_off = np.divide(own, den, out=np.zeros(l_n), where=den > 0)
    return r_com, r_off


def uncached_share(e: np.ndarray, skew: float) -> float:
    """sum_v (1 - e_v) c_v for Zipf popularities c_v proportional to v^-skew."""
    w = _zipf(e.size, skew)
    return float(np.sum((1.0 - e) * w) / np.sum(w))


def backhaul(cfg, e: np.ndarray) -> float:
    """T sum_v rho_v (1 - e_v) c_v sum_l R_0l."""
    cache = cfg.cache
    w = _zipf(e.size, cache.skew)
    rho = _per_index(cache.backhaul_price, e.size)
    r0 = _per_index(cache.backhaul_rate, cfg.n_cp)
    return float(cfg.coherence_time_s * np.sum(rho * (1.0 - e) * w) / np.sum(w) * r0.sum())


def check_feasible(cfg, ch, sol) -> list[str]:
    """Power budget, unit modulus, radar floor, energy budget, cache budget."""
    out = []
    power = float(np.sum(np.abs(sol.w) ** 2))
    if power > cfg.p_bs_watt * (1.0 + TOL_POWER):
        out.append(f"power: sum |w_j|^2 = {power:.6e} > P_BS = {cfg.p_bs_watt:.6e}")
    modulus = float(np.max(np.abs(np.abs(sol.phi) - 1.0)))
    if not modulus <= TOL_MODULUS:
        out.append(f"modulus: max ||phi_m| - 1| = {modulus:.3e}")
    sinr = echo_sinr(cfg, ch, sol)
    if not sinr >= cfg.gamma_tar_linear * (1.0 - TOL_ECHO):
        out.append(f"echo: radar SINR {sinr:.6e} < Gamma = {cfg.gamma_tar_linear:.6e}")
    if sol.p.size:
        e_max = _per_index(cfg.e_max_joule, cfg.n_cp)
        t = cfg.coherence_time_s
        energy = t * sol.p + t * cfg.zeta * sol.f ** 3
        if np.any(sol.p < 0) or np.any(sol.f < 0):
            out.append("energy: negative power or CPU frequency")
        if not np.all(energy <= e_max * (1.0 + TOL_ENERGY)):
            out.append(f"energy: T p + T zeta f^3 = {energy.max():.6e} > E_max")
    lengths = _per_index(cfg.cache.lengths, cfg.cache.n_files)
    used = float(sol.e @ lengths)
    if not used <= cfg.cache.capacity * (1.0 + TOL_CACHE):
        out.append(f"cache: sum e_v q_v = {used:.6e} > F = {cfg.cache.capacity:.6e}")
    if np.any(sol.e < 0.0) or np.any(sol.e > 1.0):
        out.append("cache: placement outside [0, 1]")
    return out


def check_trace(result) -> list[str]:
    """The surrogate objective never decreases across recorded iterations."""
    objs = [row.objective for row in result.trace]
    for i, (a, b) in enumerate(zip(objs, objs[1:])):
        if not b >= a - TOL_OBJECTIVE * abs(a):
            return [f"objective: decreased at iteration {i + 2}: {a!r} -> {b!r}"]
    return []


def check_metrics(cfg, ch, result) -> list[str]:
    """Returned SINRs match a recomputation; sum_bits and utility match the
    arithmetic T sum(B log2(1 + SINR) + f / eps) and sum_bits - d_total."""
    out = []
    sol, met = result.solution, result.metrics
    hd = result.scheme == "hd"
    r_com, r_off = user_sinrs(cfg, ch, sol, hd)
    for name, mine, theirs in (("r_com", r_com, met.r_com), ("r_off", r_off, met.r_off)):
        if mine.shape != np.shape(theirs) or not all(
                _close(a, b, TOL_SINR) for a, b in zip(mine, theirs)):
            out.append(f"sinr: returned {name} {np.asarray(theirs)} != recomputed {mine}")
    if not _close(echo_sinr(cfg, ch, sol), met.r_tar, TOL_SINR):
        out.append(f"sinr: returned r_tar {met.r_tar} != recomputed")
    duplex = 0.5 if hd else 1.0
    b, t = cfg.bandwidth_hz, cfg.coherence_time_s
    eps = _per_index(cfg.eps_cycles_per_bit, cfg.n_cp)
    rates = [duplex * b * math.log2(1.0 + float(r)) for r in met.r_com]
    rates += [duplex * b * math.log2(1.0 + float(r)) for r in met.r_off]
    rates += [float(f) / float(e) for f, e in zip(sol.f, eps)]
    bits = t * math.fsum(rates)
    if not _close(bits, met.sum_bits, TOL_BITS):
        out.append(f"bits: sum_bits {met.sum_bits!r} != recomputed {bits!r}")
    cost = backhaul(cfg, sol.e)
    if not _close(cost, met.d_total, TOL_BITS):
        out.append(f"bits: d_total {met.d_total!r} != recomputed {cost!r}")
    scale = max(abs(met.sum_bits), abs(met.d_total))
    if abs(met.utility - (met.sum_bits - met.d_total)) > TOL_BITS * scale:
        out.append(f"bits: utility {met.utility!r} != sum_bits - d_total")
    return out


def check_cell(cfg, ch, result) -> list[str]:
    """Every per-cell check of a cell that returned a feasible start."""
    out = check_feasible(cfg, ch, result.solution)
    out += check_trace(result)
    out += check_metrics(cfg, ch, result)
    if result.scheme == "full-offloading" and np.any(result.solution.f != 0.0):
        out.append("scheme: full-offloading returned f != 0")
    return out


def lp_uncached_share(cfg) -> float:
    """Optimal uncached popularity share of the placement LP
    min sum_v c_v (1 - e_v)  s.t.  sum_v q_v e_v <= F,  0 <= e <= 1,
    solved by HiGHS, independent of the package's greedy knapsack."""
    from scipy.optimize import linprog

    cache = cfg.cache
    w = _zipf(cache.n_files, cache.skew)
    c = w / w.sum()
    q = _per_index(cache.lengths, cache.n_files)
    # HiGHS presolve alone takes seconds on this one-row LP; the solve without it
    # takes a fraction of a second
    res = linprog(-c, A_ub=q[None, :], b_ub=[cache.capacity], bounds=(0.0, 1.0),
                  method="highs", options={"presolve": False})
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(1.0 + res.fun)


def check_cache_group(cfg, results: dict, lp_share: float) -> list[str]:
    """Checks across the caching schemes of one (skew, seed): ``results``
    maps scheme -> RunResult for proposed, random-caching and no-caching."""
    out = []
    prop, rand, none = (results[s] for s in ("proposed", "random-caching", "no-caching"))
    bits = {s: r.metrics.sum_bits for s, r in results.items()}
    if len(set(bits.values())) != 1:
        out.append(f"cache: sum_bits differ across caching schemes {bits}")
    d = [prop.metrics.d_total, rand.metrics.d_total, none.metrics.d_total]
    if not d[0] <= d[1] <= d[2]:
        out.append(f"cache: costs not ordered proposed <= random <= none: {d}")
    price = np.atleast_1d(np.asarray(cfg.cache.backhaul_price, float))
    if price.size == 1:
        r0 = _per_index(cfg.cache.backhaul_rate, cfg.n_cp)
        exact = cfg.coherence_time_s * float(price[0]) * float(r0.sum())
        if none.metrics.d_total != exact:
            out.append(f"cache: no-caching cost {none.metrics.d_total!r} != T rho sum R0 {exact!r}")
    share = uncached_share(prop.solution.e, cfg.cache.skew)
    if abs(share - lp_share) > TOL_LP:
        out.append(f"cache: placement share {share!r} != LP optimum {lp_share!r}")
    return out
