"""IRS phase-shift optimization.

The surrogate objective and the radar constraint are first collapsed to the
data (F, t12, b12, V, b0) of the reflection vector.  Each quadratic surrogate
term is |a^H diag(phi) b|^2 = |(a o conj(b))^H phi|^2, so the quadratic
weight is T12 = F F^H with one column of F (over sqrt(ln 2)) per term:

    |beta1_k| h_pu,k o conj(G_t w_j)              every CM-UE k and beam j,
    sqrt(p_l) |beta1_k| h_pu,k o conj(g_pu,l)     every k and CP-UE l (FD only),
    sqrt(p_l') |beta2_l| c_l o conj(g_pu,l'),  c_l = G_r u_l,  every l and l'.

So T12 has rank at most K(K+1) + KL + L^2; zero columns (p_l = 0) are
dropped. With the thin SVD F = U Sigma W^H, exactly for any column count,

    (T12 + c I)^{-1} v = v / c - U diag(sigma^2 / (c (sigma^2 + c))) U^H v,

and the surrogate reads ||F^H phi||^2, so no M x M matrix is formed.
The echo power needs no M x M matrix either: with the target row t of
``ChannelSet.target_row``, it is ||V phi||^2 over the K+1 echo rows
v_j = t o (G_t w_j), and V^H (V phi) is its gradient direction.

The linear term is t12 = (t1 + t2) / ln 2 with
t1 = sum_k sqrt(1+alpha1_k) beta1_k conj(G_t w_{k+1}) o h_pu,k, less, under FD
only, sum_k |beta1_k|^2 h_pu,k o sum_l p_l e_lk conj(g_pu,l), and
t2 = sum_l sqrt(1+alpha2_l) beta2_l sqrt(p_l) c_l o conj(g_pu,l).  The
phi-free rest b12 is the surrogate bracket with the downlink denominator
sigma_ue^2 + sum_l p_l |e_lk|^2 (the sum under FD only) and the offloading one
residual SI plus receiver noise.

The unit modulus constraint is split off onto a copy variable and handled by
ADMM with a geometrically decreasing penalty; the nonconvex side of the radar
constraint is linearized at the current iterate each pass (a tangent minorant
of the echo power, so any point feasible for the linearized constraint is
feasible for the true one), so each pass has a closed-form reflection step.

What does not change within a call is computed once per call, on the
``PhaseCoeffs``: the thin SVD of F with U^H t12 (``split``) and V^H
(``echo_rows_h``). A pass computes only what its iterate and penalty set.
A call that keeps the incoming phases (a revert, or an infeasible entry or
step) returns the array ``sol.phi`` itself, so its caller can tell that
nothing moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import ChannelSet
from .config import SystemConfig
from .sysmodel import LinkTerms, SensingInfeasible, Solution, relative
from .wmmse import LN2, AuxVars, _bracket


@dataclass(frozen=True)
class PhaseCoeffs:
    """Quadratic data of the reflection vector phi.

    Surrogate sum = -||F^H phi||^2 + 2 Re{t12^H phi} + b12 (log2 units), so
    T12 = F F^H with the factor F (M, r) of the module docstring;
    radar constraint reads  b0 - ||V phi||^2 <= 0  (linear units), and V
    (K+1, M) holds the echo rows v_j = t o (G_t w_j).
    """

    factor: np.ndarray
    t12_vec: np.ndarray
    b12: float
    echo_rows: np.ndarray
    b0: float

    @cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """U, U^H, sigma^2 and U^H t12 of the thin SVD F = U Sigma W^H."""
        u, sigma, _ = np.linalg.svd(self.factor, full_matrices=False)
        uh = u.conj().T
        return u, uh, sigma ** 2, uh @ self.t12_vec

    @cached_property
    def echo_rows_h(self) -> np.ndarray:
        """V^H (M, K+1), which every pass's tangent applies."""
        return self.echo_rows.conj().T


@dataclass
class AdmmState:
    phi: np.ndarray
    psi: np.ndarray
    lam: np.ndarray
    rho: float


@dataclass(frozen=True)
class LinearRadar:
    """Affine minorant constraint -2 Re{d^H phi} + e <= 0."""

    d: np.ndarray
    e: float


# penalty rho = max(RHO_INIT * RHO_FACTOR^n, RHO_FLOOR) on pass n; stop after
# MAX_INNER passes or at consensus max|phi - psi| <= CONSENSUS_TOL
RHO_INIT, RHO_FACTOR, RHO_FLOOR = 1.0, 0.8, 1e-6
MAX_INNER, CONSENSUS_TOL = 200, 1e-5
SLACK_TOL = 1e-12       # radar slack, relative to max(1, |e|), still taken as met


@dataclass
class PhaseInfo:
    iterations: int = 0
    consensus: float = float("inf")
    reverted: bool = False
    infeasible: bool = False


def _column_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows a_i o conj(b_j) over every pair (i, j)."""
    return (a[:, None, :] * b.conj()[None, :, :]).reshape(-1, a.shape[1])


def assemble_phase_coeffs(sol: Solution, ch: ChannelSet, aux: AuxVars,
                          cfg: SystemConfig, lt: LinkTerms) -> PhaseCoeffs:
    """Collapse the surrogates and the echo power into quadratic coefficients
    (the factor F of the module docstring), in the duplex mode of ``lt``, the
    ``link_terms`` of this same solution."""
    gtw = sol.w @ ch.g_t.T                      # rows G_t w_j, shape (K+1, M)
    c = sol.u @ ch.g_r.T                        # rows c_l = G_r u_l, shape (L, M)
    gp = np.sqrt(sol.p)[:, None] * ch.g_pu      # rows sqrt(p_l) g_pu,l
    bb1 = np.abs(aux.beta1) ** 2

    t1 = (np.sqrt(1.0 + aux.alpha1) * aux.beta1) @ (gtw[1:].conj() * ch.h_pu)
    t2 = (np.sqrt(1.0 + aux.alpha2) * aux.beta2 * np.sqrt(sol.p)) @ (c * ch.g_pu.conj())
    den1 = np.full(bb1.shape, cfg.noise_ue_watt)
    beams = gtw if lt.hd else np.vstack([gtw, gp])      # H_b's partners; no CCI under HD
    if not lt.hd:
        # full-duplex CCI: e_lk + h_pu_k^H diag(phi) g_pu_l through every CP-UE
        t1 = t1 - bb1 @ (ch.h_pu * ((sol.p[:, None] * ch.e_direct).T @ ch.g_pu.conj()))
        den1 = den1 + sol.p @ np.abs(ch.e_direct) ** 2
    # phi-free rest: downlink noise and direct-link CCI, offloading SI and noise
    b12 = _bracket(aux.alpha1, aux.beta1, 0.0, den1).sum() \
        + _bracket(aux.alpha2, aux.beta2, 0.0, lt.si + lt.noise_off).sum()

    cols = np.vstack([_column_products(np.abs(aux.beta1)[:, None] * ch.h_pu, beams),
                      _column_products(np.abs(aux.beta2)[:, None] * c, gp)])
    cols = cols[np.any(cols != 0.0, axis=1)]
    return PhaseCoeffs(factor=cols.T / np.sqrt(LN2), t12_vec=(t1 + t2) / LN2,
                       b12=float(b12), echo_rows=gtw * ch.target_row, b0=lt.floor)


def surrogate_value(coeffs: PhaseCoeffs, phi: np.ndarray) -> float:
    """-||F^H phi||^2 + 2 Re{t12^H phi} + b12."""
    quad = float((np.abs(phi @ coeffs.factor.conj()) ** 2).sum())
    lin = 2.0 * float((coeffs.t12_vec.conj() @ phi).real)
    return -quad + lin + coeffs.b12


def echo_power(coeffs: PhaseCoeffs, phi: np.ndarray) -> float:
    """||V phi||^2."""
    return float((np.abs(coeffs.echo_rows @ phi) ** 2).sum())


def mm_linearize_radar(coeffs: PhaseCoeffs, phi0: np.ndarray) -> LinearRadar:
    """Tangent minorant of the echo power at phi0: d = V^H (V phi0)."""
    echo = coeffs.echo_rows @ phi0
    return LinearRadar(d=coeffs.echo_rows_h @ echo,
                       e=float((np.abs(echo) ** 2).sum()) + coeffs.b0)


def admm_phi_step(coeffs: PhaseCoeffs, state: AdmmState, lin: LinearRadar) -> np.ndarray:
    """Exact minimizer of phi^H A phi - 2 Re{r^H phi} s.t. -2 Re{d^H phi} + e <= 0 with
    A = T12 + I/(2 rho), r = t12 + (psi - rho lambda)/(2 rho): phi_u = A^-1 r if it meets
    the constraint, else phi_u + mu A^-1 d with the binding multiplier mu = slack(phi_u) /
    (2 d^H A^-1 d).  A^-1 is applied through the thin SVD of the factor F (module
    docstring).  Raises SensingInfeasible when d = 0 and the constraint is violated."""
    u, uh, sigma2, uh_t12 = coeffs.split
    prox = 1.0 / (2.0 * state.rho)
    shrink = sigma2 / (prox * (sigma2 + prox))

    def a_inv(v, uh_v):
        return v / prox - u @ (shrink * uh_v)

    target = state.psi - state.rho * state.lam
    phi_u = a_inv(coeffs.t12_vec + prox * target, uh_t12 + prox * (uh @ target))
    slack = -2.0 * float((lin.d.conj() @ phi_u).real) + lin.e
    if slack <= SLACK_TOL * max(1.0, abs(lin.e)):
        return phi_u
    a_inv_d = a_inv(lin.d, uh @ lin.d)
    curvature = float((lin.d.conj() @ a_inv_d).real)
    if curvature <= 0.0:
        raise SensingInfeasible("the linearized radar constraint admits no reflection vector")
    return phi_u + (slack / (2.0 * curvature)) * a_inv_d


def step_certificate(coeffs: PhaseCoeffs, state: AdmmState, lin: LinearRadar,
                     x: np.ndarray) -> dict:
    """KKT residuals of ``x`` as the minimizer of ``admm_phi_step``'s problem,
    each relative to its own scale and 0 when exact; the multiplier of
    A x - r = mu d is fitted by least squares."""
    prox = 1.0 / (2.0 * state.rho)
    r = coeffs.t12_vec + prox * (state.psi - state.rho * state.lam)
    grad = coeffs.factor @ (x @ coeffs.factor.conj()) + prox * x - r
    d_norm, r_norm = np.linalg.norm(lin.d), np.linalg.norm(r)
    mu = relative(float((lin.d.conj() @ grad).real), d_norm ** 2)
    violation = relative(lin.e - 2.0 * float((lin.d.conj() @ x).real), abs(lin.e))
    return {
        "stationarity": relative(np.linalg.norm(grad - mu * lin.d), r_norm),
        "mu_sign": float(max(0.0, -mu) * d_norm / r_norm),
        "feasibility": max(violation, 0.0),
        "slackness": float(abs(mu * violation) * d_norm / r_norm),
    }


def psi_step(phi: np.ndarray, lam: np.ndarray, rho: float) -> np.ndarray:
    """Unit-modulus projection aligned with phi + rho*lambda."""
    return np.exp(1j * np.angle(phi + rho * lam))


def dual_step(state: AdmmState) -> np.ndarray:
    return state.lam + (state.phi - state.psi) / state.rho


def optimize_phase(sol: Solution, ch: ChannelSet, aux: AuxVars, cfg: SystemConfig,
                   lt: LinkTerms) -> tuple[np.ndarray, PhaseInfo]:
    """Full inner ADMM pass; returns a unit-modulus phi that never lowers the
    surrogate of the incoming one, or else the incoming array ``sol.phi``
    itself."""
    coeffs = assemble_phase_coeffs(sol, ch, aux, cfg, lt)
    info = PhaseInfo()
    phi_in = sol.phi
    entry_val = surrogate_value(coeffs, phi_in)
    if echo_power(coeffs, phi_in) < coeffs.b0 * (1.0 - 1e-9):
        # entry violates the sensing floor: phases alone are not trusted to
        # restore it this round (the tangent minorant would force extreme
        # excursions); leave it to the beam/power blocks
        info.infeasible = True
        return phi_in, info

    state = AdmmState(phi=phi_in, psi=np.exp(1j * np.angle(phi_in)),
                      lam=np.zeros_like(phi_in), rho=RHO_INIT)

    for it in range(1, MAX_INNER + 1):
        lin = mm_linearize_radar(coeffs, state.phi)
        try:
            state.phi = admm_phi_step(coeffs, state, lin)
        except SensingInfeasible:
            info.infeasible = True
            return phi_in, info
        state.psi = psi_step(state.phi, state.lam, state.rho)
        state.lam = dual_step(state)
        info.consensus = float(np.abs(state.phi - state.psi).max())
        info.iterations = it
        if info.consensus <= CONSENSUS_TOL:
            break
        state.rho = max(state.rho * RHO_FACTOR, RHO_FLOOR)

    phi_out = state.psi
    exit_val = surrogate_value(coeffs, phi_out)
    radar_ok = echo_power(coeffs, phi_out) >= coeffs.b0 * (1.0 - 1e-6)
    if exit_val < entry_val - 1e-10 * (1.0 + abs(entry_val)) or not radar_ok:
        info.reverted = True
        return phi_in, info
    return phi_out, info
