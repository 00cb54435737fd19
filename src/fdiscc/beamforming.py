"""Transmit beamforming in closed form from a two-multiplier dual, and the
closed-form receive combiners.

The transmit subproblem

    max  sum_k 2Re(w_{k+1}^H q_k) - sum_j w_j^H S w_j
    s.t. sum_j ||w_j||^2 <= P,   sum_j |d^H w_j|^2 >= b0

has a tight semidefinite relaxation (separable-SDP rank bound, Huang &
Palomar, IEEE TSP 2010), so its Lagrangian dual in the power multiplier mu and
the radar multiplier nu has no gap. With A = S + mu I - nu d d^H > 0 the
maximizer is w_{k+1} = A^{-1} q_k, w_0 = 0 (the ISAC construction of Liu,
Huang, Li & Masouros, IEEE TSP 2020). The echo matrix d d^H is rank one
(d = conj(r), r the echo row of ``sysmodel.Composite``), so one
eigendecomposition of S and Sherman-Morrison in nu give every trial point, the
nu minimizing the dual at a given mu is closed form, and mu solves the power
equation by a secular root-find. When no communication beam can carry echo
power A is singular at the optimum and the sensing beam w_0 lies in its null
space. ``tx_certificate`` gives a solve's KKT residuals, which the tests and
``fdiscc selftest`` (``selftest.py``) read.

``solve_tx_sdr``, ``sdr_bound`` and ``gaussian_randomize`` keep the lifted
relaxation and its randomized rank-one recovery as the test oracle of the
closed form; nothing in the package calls them.  The coefficients hold only
q and d: the oracle lifts them itself, into the costs [[S, -q_k], [-q_k^H, 0]]
and the echo matrix d d^H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conic
from .channels import ChannelSet
from .config import SystemConfig
from .rootfind import EPS, NoBracketError, increasing_root
from .sysmodel import LinkTerms, SensingInfeasible, Solution, relative
from .wmmse import LN2, AuxVars, _bracket

# the closed form aims at b0 (1 + RADAR_MARGIN), so rounding leaves the echo
# above the floor; the certified dual value is still taken at b0 itself
RADAR_MARGIN = 1e-12


@dataclass(frozen=True)
class TxCoeffs:
    """Per-beam objective data (log2 scaled) plus the unscaled sensing row.

    q: (K, N_t) linear terms, q_k = sqrt(1+alpha1_k) beta1_k conj(h_k) / ln 2;
    s_mat: (N_t, N_t) PSD, combined interference+SI weight applied to every
    beam; d: (N_t,) echo direction, echo power sum_j |d^H w_j|^2;
    b0: sensing floor.
    """

    q: np.ndarray
    s_mat: np.ndarray
    d: np.ndarray
    b3: np.ndarray
    b4: np.ndarray
    b0: float
    p_bs: float


@dataclass(frozen=True)
class RxCoeffs:
    """Combiner data (log2 scaled): CP-UE l maximizes
    2Re{u^H t5_l} - weight_l u^H R u, with the received covariance R shared
    by every user and weight_l = |beta2_l|^2 / ln 2. Its offloading surrogate
    adds the u-free (ln(1 + alpha2_l) - alpha2_l) / ln 2."""

    t5: np.ndarray
    cov: np.ndarray
    weight: np.ndarray


def assemble_tx_coeffs(sol: Solution, ch: ChannelSet, aux: AuxVars,
                       cfg: SystemConfig, lt: LinkTerms) -> TxCoeffs:
    """Transmit coefficients at ``sol``, with the residual SI weighed by
    ``lt.cross``; ``lt`` is the ``link_terms`` of this same solution."""
    comp = lt.comp
    bb1 = np.abs(aux.beta1) ** 2
    s_mat = (comp.h.conj().T * bb1) @ comp.h
    q = (np.sqrt(1.0 + aux.alpha1) * aux.beta1 / LN2)[:, None] * comp.h.conj()
    # beam-free parts of the surrogates: downlink CCI and noise, and every
    # offloading term but the residual SI
    b3 = _bracket(aux.alpha1, aux.beta1, 0.0, lt.cci + cfg.noise_ue_watt)
    b4 = _bracket(aux.alpha2, aux.beta2, lt.off_sig, lt.off_den - lt.si)
    v = sol.u @ ch.h_si.conj()                  # rows v_l = H_SI^H u_l
    s_mat = s_mat + (v.T * (lt.cross * np.abs(aux.beta2) ** 2)) @ v.conj()

    return TxCoeffs(
        q=q, s_mat=(s_mat + s_mat.conj().T) / 2.0 / LN2,
        d=comp.r.conj(), b3=b3, b4=b4, b0=lt.floor, p_bs=cfg.p_bs_watt,
    )


def tx_objective(coeffs: TxCoeffs, w: np.ndarray) -> float:
    """Surrogate sum at a concrete beam set (matches the SDP objective on
    rank-one liftings)."""
    quad = np.vdot(w, w @ coeffs.s_mat.T).real          # sum_j w_j^H S w_j
    lin = 2.0 * np.vdot(w[1:], coeffs.q).real
    return float(coeffs.b3.sum() + coeffs.b4.sum() - quad + lin)


def radar_power(coeffs: TxCoeffs, w: np.ndarray) -> float:
    """Expected echo power sum_j |d^H w_j|^2."""
    return float((np.abs(w @ coeffs.d.conj()) ** 2).sum())


def _tx_beams(s: np.ndarray, x: np.ndarray, y: np.ndarray, target: float,
              mu: float) -> tuple[np.ndarray, float, float]:
    """Beams maximizing the Lagrangian at (mu, nu*(mu)) in the eigenbasis of S (eigenvalues
    s, coordinates x of the q_k and y of d), nu*, and sum_k q_k^H A^{-1} q_k."""
    b = s + mu
    xb, yb = x / b, y / b
    phi = float((np.abs(y) ** 2 / b).sum())
    r = xb @ y.conj()                                   # d^H B^{-1} q_k
    rr = float((np.abs(r) ** 2).sum())
    gain = float((np.abs(x) ** 2 / b).sum())
    w = np.zeros((x.shape[0] + 1, s.size), complex)
    w[1:] = xb
    if rr >= target:
        return w, 0.0, gain
    if rr > 0.0:
        t = np.sqrt(rr / target)                        # 1 - nu phi
        w[1:] += ((1.0 - t) / (phi * t)) * r[:, None] * yb
        return w, (1.0 - t) / phi, gain + (1.0 - t) * np.sqrt(rr * target) / phi
    w[0] = (np.sqrt(target) / phi) * yb
    return w, 1.0 / phi, gain


# exponents of the rows b^-1, b^-2, b^-3 of _tx_power's B
_POWERS = -np.arange(1.0, 4.0)[:, None]


def _tx_power(s: np.ndarray, sums: np.ndarray, target: float, mu: float) -> tuple[float, float]:
    """||w||^2 of ``_tx_beams`` at mu and its slope in mu, from ``sums`` =
    [X Y C] (N_t, N_t + 2): X_i = sum_k |x_ki|^2, Y_i = |y_i|^2 and
    C = Re(Z^H Z) with Z_ki = x_ki conj(y_i). With the rows b^-n = (s + mu)^-n
    (n = 1, 2, 3) of B, every sum below is an entry of B [X Y] or of B C B^T:
    A_n = X b^-n, phi_n = Y b^-n and c_nm = Re(r_n^H r_m) for r_n = Z b^-n. Then
    ||w||^2 = A_2 + 2 c c_12 + c^2 c_11 phi_2 with c = 0 at nu* = 0 (c_11 >= target)
    and (sqrt(target / c_11) - 1) / phi_1 below 1/phi_1, and A_2 + target phi_2 /
    phi_1^2 with the sensing beam (c_11 = 0). Two matmuls and the rest on
    Python floats."""
    b = (s + mu) ** _POWERS
    rows = b @ sums
    (_, phi, *_), (norm, phi2, *_), (xx3, phi3, *_) = rows.tolist()
    (rr, cross, c13), (_, c22, _), _ = (rows[:, 2:] @ b.T).tolist()
    slope = -2.0 * xx3
    if rr >= target:
        return norm, slope
    if rr <= 0.0:
        return (norm + target * phi2 / phi ** 2,
                slope + 2.0 * target * (phi2 ** 2 / phi - phi3) / phi ** 2)
    d_cross = -c22 - 2.0 * c13
    g = math.sqrt(target / rr)                          # d rr = -2 cross
    c = (g - 1.0) / phi
    d_c = (g * cross / rr + c * phi2) / phi
    return (norm + 2.0 * c * cross + c * c * rr * phi2,
            slope + 2.0 * (d_c * cross + c * d_cross) + 2.0 * c * d_c * rr * phi2
            - 2.0 * c * c * (cross * phi2 + rr * phi3))


def solve_tx(coeffs: TxCoeffs) -> tuple[np.ndarray, dict]:
    """Exact transmit optimum and its dual certificate.

    In the eigenbasis of S, B = S + mu I is diagonal and A^{-1} = B^{-1} +
    nu B^{-1} d d^H B^{-1} / (1 - nu phi), phi = d^H B^{-1} d. With
    R = sum_k |d^H B^{-1} q_k|^2 the echo of the beams A^{-1} q_k is
    R / (1 - nu phi)^2, so the nu minimizing the dual at fixed mu is 0 if
    R >= b0 and otherwise (1 - t) / phi with t = sqrt(R / b0), which puts the
    echo on the floor. If R = 0 the comm beams carry no echo: nu = 1/phi makes
    A singular and the floor is met by w_0 = tau B^{-1} d, its null vector.
    The power ||w(mu)||^2 then falls with mu, and mu is 0 when the budget is
    slack (EPS max(1, ||S||) if S is singular, where B must stay invertible),
    else the root of 1/||w(mu)|| = 1/sqrt(P) by ``rootfind.increasing_root``
    on ``_tx_power``, from the larger of the Newton step off that smallest mu
    and max_i sqrt(X_i / P) - s_i, the mu each term alone needs. The mu-free
    data of ``_tx_power``, [X Y C] with the N_t x N_t C = Re(Z^H Z), is formed
    once per call, so each evaluation is two small matmuls. The beams are
    formed once, at the root.

    Returns the beams (K+1, N_t) and ``{"dual", "mu", "nu", "iterations",
    "sensing_beam"}``, where ``iterations`` counts the root-find's evaluations
    of ||w(mu)|| (0 when the budget is slack) and ``dual`` is
    g(mu, nu) = b3 + b4 + sum_k q_k^H A^{-1} q_k + mu P - nu b0, an upper
    bound on the objective.
    Raises SensingInfeasible when the floor exceeds the echo ceiling P ||d||^2.
    """
    q, d = coeffs.q, coeffs.d
    p_max, target = coeffs.p_bs, coeffs.b0 * (1.0 + RADAR_MARGIN)
    ceiling = p_max * float(np.vdot(d, d).real)
    if ceiling < target:
        raise SensingInfeasible(f"echo ceiling {ceiling:.3e} below floor {coeffs.b0:.3e}")
    s, vecs = np.linalg.eigh(coeffs.s_mat)
    s = np.maximum(s, 0.0)
    x, y = q @ vecs.conj(), d @ vecs.conj()          # eigenbasis coordinates
    xx, z = (np.abs(x) ** 2).sum(axis=0), x * y.conj()
    sums = np.column_stack((xx, np.abs(y) ** 2, (z.conj().T @ z).real))
    inv_sqrt_p = 1.0 / math.sqrt(p_max)

    def slack(mu: float) -> tuple[float, float]:     # 1/||w|| - 1/sqrt(P), nearly linear in mu
        norm2, d_norm2 = _tx_power(s, sums, target, mu)
        if norm2 <= 0.0:
            return np.inf, 0.0
        return 1.0 / math.sqrt(norm2) - inv_sqrt_p, -0.5 * d_norm2 / norm2 ** 1.5

    mu = 0.0 if s[0] > 0.0 else EPS * max(s[-1], 1.0)
    value, slope, iters = *slack(mu), 0
    if value < 0.0:
        start = max(mu - value / slope, float((np.sqrt(xx / p_max) - s).max()))
        try:
            mu, iters = increasing_root(slack, start, mu)
        except NoBracketError as exc:
            raise SensingInfeasible("sensing floor at the echo ceiling") from exc
    w, nu, gain = _tx_beams(s, x, y, target, mu)
    dual = float(coeffs.b3.sum() + coeffs.b4.sum()) + gain + mu * p_max - nu * coeffs.b0
    return w @ vecs.T, {"dual": float(dual), "mu": float(mu), "nu": float(nu),
                        "iterations": iters, "sensing_beam": bool(np.any(w[0]))}


def tx_certificate(coeffs: TxCoeffs, w: np.ndarray, info: dict) -> dict:
    """KKT residuals of the beams ``w`` at the ``mu``, ``nu`` and ``dual`` of
    ``solve_tx``'s info, each relative to its own scale and 0 when exact. With
    A = S + mu I - nu d d^H, stationarity reads A w_{k+1} = q_k, A w_0 = 0."""
    mu, nu, d, w0 = info["mu"], info["nu"], coeffs.d, w[0]
    a = coeffs.s_mat + mu * np.eye(d.size) - nu * np.outer(d, d.conj())
    value, power, echo = tx_objective(coeffs, w), float(np.sum(np.abs(w) ** 2)), radar_power(coeffs, w)
    scale = max(1.0, abs(value))
    w0_terms = (np.linalg.norm(coeffs.s_mat @ w0) + mu * np.linalg.norm(w0)
                + nu * np.linalg.norm(d) * abs(np.vdot(d, w0)))
    return {
        "power": max(power / coeffs.p_bs - 1.0, 0.0),
        "echo": relative(max(coeffs.b0 - echo, 0.0), coeffs.b0),
        "comm_stationarity": relative(np.linalg.norm(w[1:] @ a.T - coeffs.q),
                                      np.linalg.norm(coeffs.q)),
        "sensing_stationarity": relative(np.linalg.norm(a @ w0), w0_terms),
        "mu_sign": max(0.0, -mu) * coeffs.p_bs / scale,
        "nu_sign": float(max(0.0, -nu) * coeffs.b0 / scale),
        "power_slackness": abs(mu * (coeffs.p_bs - power)) / scale,
        "echo_slackness": float(abs(nu * (echo - coeffs.b0)) / scale),
        "dual_gap": abs(info["dual"] - value) / scale,
    }


def optimize_tx(sol: Solution, ch: ChannelSet, aux: AuxVars, cfg: SystemConfig,
                lt: LinkTerms) -> tuple[np.ndarray, dict]:
    """Full transmit update with a monotonicity safeguard: the incumbent beams
    are kept whenever the new ones do not improve the surrogate (possible only
    when the incumbent misses the current sensing floor) or when the floor is
    out of reach, flagged ``infeasible``."""
    coeffs = assemble_tx_coeffs(sol, ch, aux, cfg, lt)
    try:
        w_new, info = solve_tx(coeffs)
    except SensingInfeasible:
        return sol.w, {"accepted": False, "infeasible": True}
    incumbent_val = tx_objective(coeffs, sol.w)
    new_val = tx_objective(coeffs, w_new)
    info["accepted"] = new_val >= incumbent_val - 1e-10 * (1.0 + abs(incumbent_val))
    if not info["accepted"]:
        return sol.w, info
    return w_new, info


# --- test oracle: the lifted relaxation and its randomized recovery ---------

def solve_tx_sdr(coeffs: TxCoeffs, cfg: SystemConfig) -> conic.SdpResult:
    """Relaxed lifted solve (test oracle of ``solve_tx``).  Raises
    SensingInfeasible when even the best eigen-direction at full power misses
    the sensing floor."""
    nt = cfg.n_tx
    n_beams = coeffs.q.shape[0] + 1
    lam_max = float(np.vdot(coeffs.d, coeffs.d).real)
    if coeffs.p_bs * lam_max < coeffs.b0:
        raise SensingInfeasible(
            f"echo ceiling {coeffs.p_bs * lam_max:.3e} below floor {coeffs.b0:.3e}")

    dim = nt + 1
    # minimize Tr(cost_j X_j) == maximize the surrogate part; beam 0 has no q
    costs = np.zeros((n_beams, dim, dim), complex)
    costs[:, :nt, :nt] = coeffs.s_mat
    costs[1:, :nt, nt] = -coeffs.q
    costs[1:, nt, :nt] = -coeffs.q.conj()

    # rows normalised to right-hand sides of 1: d d^H is ~1e-11 at paper
    # scale, below the kernel's residual tolerance, which then reported
    # "optimal" blocks with their echo 20% under the floor
    radar_scale = 1.0 / coeffs.b0 if coeffs.b0 > 0.0 else 1.0
    eye_tl = np.zeros((dim, dim), complex)
    eye_tl[:nt, :nt] = np.eye(nt) / coeffs.p_bs
    echo_tl = np.zeros((dim, dim), complex)
    echo_tl[:nt, :nt] = np.outer(coeffs.d, coeffs.d.conj()) * radar_scale
    cons = [
        conic.SdpConstraint(tuple((j, eye_tl) for j in range(n_beams)), "<=", 1.0),
        conic.SdpConstraint(tuple((j, echo_tl) for j in range(n_beams)), ">=",
                            coeffs.b0 * radar_scale),
    ]
    cons += [conic.fix_diag_entry(j, dim, nt, 1.0) for j in range(n_beams)]
    prob = conic.SdpProblem(dims=(dim,) * n_beams, costs=tuple(costs),
                            constraints=tuple(cons))
    res = conic.solve_sdp(prob)
    if res.status == conic.INFEASIBLE:
        raise SensingInfeasible("lifted transmit problem infeasible")
    return res


def sdr_bound(coeffs: TxCoeffs, res: conic.SdpResult) -> float:
    """Certified upper bound on the surrogate objective: the dual value of the
    lifted minimization under-estimates its optimum regardless of the
    remaining interior-point gap."""
    return float(coeffs.b3.sum() + coeffs.b4.sum()) - res.dual_objective


def gaussian_randomize(wtilde: list, coeffs: TxCoeffs, cfg: SystemConfig,
                       n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Recover beams from the lifted blocks.

    Numerically rank-one blocks are collapsed by the corner-normalized
    principal eigenvector; otherwise candidates are sampled from the induced
    Gaussian, rescaled onto the power budget when that helps, filtered by the
    sensing floor and scored by the surrogate objective.
    """
    nt = cfg.n_tx
    n_beams = len(wtilde)
    eig = [np.linalg.eigh((x + x.conj().T) / 2.0) for x in wtilde]
    rank1 = all(vals[-2] <= 1e-8 * vals[-1] for vals, _ in eig)

    def corner_scale(vec: np.ndarray) -> np.ndarray:
        last = vec[nt]
        if abs(last) < 1e-12:
            return vec[:nt]
        return vec[:nt] / last

    principal = np.stack([
        corner_scale(vecs[:, -1] * np.sqrt(max(vals[-1], 0.0)))
        for vals, vecs in eig
    ])
    if rank1 and _feasible(principal, coeffs):
        return principal

    candidates = []
    roots = [vecs * np.sqrt(np.maximum(vals, 0.0))[None, :] for vals, vecs in eig]
    for _ in range(n_draws):
        draw = np.stack([
            corner_scale(root @ ((rng.standard_normal(nt + 1)
                                  + 1j * rng.standard_normal(nt + 1)) / np.sqrt(2.0)))
            for root in roots
        ])
        candidates.append(draw)
        power = float(np.sum(np.abs(draw) ** 2))
        if power > 0:
            candidates.append(draw * np.sqrt(coeffs.p_bs / power))
    candidates.append(principal)
    power = float(np.sum(np.abs(principal) ** 2))
    if power > 0:
        candidates.append(principal * np.sqrt(coeffs.p_bs / power))
    # sensing repair: mix power-budget candidates toward the best echo direction
    repaired = [_radar_repair(c, coeffs) for c in candidates]
    candidates += [c for c in repaired if c is not None]

    best, best_val = None, -np.inf
    for cand in candidates:
        if not _feasible(cand, coeffs):
            continue
        val = tx_objective(coeffs, cand)
        if val > best_val:
            best, best_val = cand, val
    if best is None:
        raise SensingInfeasible("no randomized beam met the sensing floor")
    return best


def _radar_repair(w: np.ndarray, coeffs: TxCoeffs) -> np.ndarray | None:
    """Shift power from the communication beams onto the echo-optimal sensing
    direction until the floor is met; linear in the shift fraction, so the
    smallest sufficient shift is closed form."""
    if _feasible(w, coeffs) or radar_power(coeffs, w) >= coeffs.b0:
        return None
    lam_max = float(np.vdot(coeffs.d, coeffs.d).real)
    v_max = coeffs.d / np.sqrt(lam_max)
    com = w[1:]
    p_com = float(np.sum(np.abs(com) ** 2))
    p_res = max(coeffs.p_bs - p_com, 0.0)
    echo_com = radar_power(coeffs, np.vstack([np.zeros_like(w[0]), com]))
    target = coeffs.b0 * (1.0 + 1e-9)
    # echo(t) = (1-t) echo_com + (p_res + t p_com) lam_max over t in [0, 1]
    denom = p_com * lam_max - echo_com
    if p_com <= 0.0 or abs(denom) < 1e-300:
        t = 1.0
    else:
        t = (target - echo_com - p_res * lam_max) / denom
    if not np.isfinite(t) or t > 1.0:
        t = 1.0
    t = min(max(t, 0.0), 1.0)
    out = np.vstack([v_max * np.sqrt(p_res + t * p_com), np.sqrt(1.0 - t) * com])
    return out


def _feasible(w: np.ndarray, coeffs: TxCoeffs) -> bool:
    power_ok = float(np.sum(np.abs(w) ** 2)) <= coeffs.p_bs * (1.0 + 1e-9)
    radar_ok = radar_power(coeffs, w) >= coeffs.b0 * (1.0 - 1e-9)
    return power_ok and radar_ok


def assemble_rx_coeffs(sol: Solution, ch: ChannelSet, aux: AuxVars,
                       cfg: SystemConfig, lt: LinkTerms) -> RxCoeffs:
    """Combiner coefficients at ``sol``.  Of ``lt`` only the composite
    channels and ``cross`` are read, so it may be the ``link_terms`` of any
    state with the phases ``sol.phi``.

    Every CP-UE sees the same received covariance
    R = sum_l p_l g_l g_l^H + sigma_bs^2 I + cross H_SI W^T W^* H_SI^H,
    which each weighs by |beta2_l|^2 / ln 2."""
    comp = lt.comp
    hw = sol.w @ ch.h_si.T                      # rows H_SI w_j
    cov = (comp.g.T * sol.p) @ comp.g.conj() + cfg.noise_bs_watt * np.eye(cfg.n_rx) \
        + lt.cross * (hw.T @ hw.conj())
    cov = (cov + cov.conj().T) / 2.0
    t5 = (np.sqrt(1.0 + aux.alpha2) * aux.beta2.conj() * np.sqrt(sol.p) / LN2)[:, None] * comp.g
    return RxCoeffs(t5=t5, cov=cov, weight=np.abs(aux.beta2) ** 2 / LN2)


def solve_rx(coeffs: RxCoeffs) -> np.ndarray:
    """Closed-form stationary combiners u_l = R^{-1} t5_l / weight_l, from one
    solve of R (which is at least sigma_bs^2 I) with every t5_l as a
    right-hand side. A user with zero weight has a constant objective, and
    gets e_0."""
    x = np.linalg.solve(coeffs.cov, coeffs.t5.T).T
    u = np.zeros(coeffs.t5.shape, complex)
    u[:, 0] = 1.0
    return np.divide(x, coeffs.weight[:, None], out=u, where=coeffs.weight[:, None] > 0.0)


def optimize_rx(sol: Solution, ch: ChannelSet, aux: AuxVars, cfg: SystemConfig,
                lt: LinkTerms) -> np.ndarray:
    """Receive update; keeps the incumbent row of a user with zero weight
    (zero offload power makes the combiner irrelevant)."""
    coeffs = assemble_rx_coeffs(sol, ch, aux, cfg, lt)
    u_new = solve_rx(coeffs)
    keep = (coeffs.weight > 0.0) & np.all(np.isfinite(u_new), axis=1)
    return np.where(keep[:, None], u_new, sol.u)
