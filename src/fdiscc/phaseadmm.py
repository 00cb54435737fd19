"""IRS phase-shift optimization.

The surrogate objective and the radar constraint are first collapsed to the
data (F, t12, b12, V, b0) of the reflection vector.  Each quadratic surrogate
term is |a^H diag(phi) b|^2 = |(a o conj(b))^H phi|^2, so the quadratic
weight is T12 = F F^H with one column of F (over sqrt(ln 2)) per term:

    |beta1_k| h_pu,k o conj(G_t w_j)              every CM-UE k and beam j,
    cross sqrt(p_l) |beta1_k| h_pu,k o conj(g_pu,l)   every k and CP-UE l,
    sqrt(p_l') |beta2_l| c_l o conj(g_pu,l'),  c_l = G_r u_l,  every l and l'.

with ``cross`` of ``LinkTerms`` (0 under HD, which hears no CCI).  So T12
has rank at most K(K+1) + KL + L^2; zero columns (p_l = 0, or cross = 0) are
dropped. With the eigendecomposition F^H F = W diag(sigma^2) W^H of the
r x r Gram matrix and U' = F W (so U'^H U' = diag(sigma^2)), exactly for any
column count and any rank,

    (T12 + c I)^{-1} v = v / c - U' diag(1 / (c (sigma^2 + c))) U'^H v,

and the surrogate reads ||F^H phi||^2, so no M x M matrix is formed and
nothing is divided by sigma: a zero or tiny singular value needs no guard.
The echo power needs no M x M matrix either: with the target row t of
``ChannelSet.target_row``, it is ||V phi||^2 over the K+1 echo rows
v_j = t o (G_t w_j), and V^H (V phi) is its gradient direction.

The linear term is t12 = (t1 + t2) / ln 2 with
t1 = sum_k sqrt(1+alpha1_k) beta1_k conj(G_t w_{k+1}) o h_pu,k, less
cross sum_k |beta1_k|^2 h_pu,k o sum_l p_l e_lk conj(g_pu,l), and
t2 = sum_l sqrt(1+alpha2_l) beta2_l sqrt(p_l) c_l o conj(g_pu,l).  The
phi-free rest b12 is the surrogate bracket with the downlink denominator
sigma_ue^2 + cross sum_l p_l |e_lk|^2 and the offloading one residual SI plus
receiver noise.

The unit modulus constraint is split off onto a copy variable psi and
handled by ADMM with a geometrically decreasing penalty rho; the nonconvex
side of the radar constraint is linearized at the current iterate each pass
(a tangent minorant of the echo power, so any point feasible for the
linearized constraint is feasible for the true one), so each pass has a
closed-form reflection step.

What does not change within a call is computed once per call, on the
``PhaseCoeffs``: U', U'^H and sigma^2 of the Gram eigendecomposition
(``split``) and V^H (``echo_rows_h``). A pass computes only what its iterate
and penalty set, on plain arrays: the tangent (d, e) at phi
(``mm_linearize_radar``), rho lambda once, the step (``admm_phi_step``) on
the target psi - rho lambda, the projection psi = (phi + rho lambda) /
|phi + rho lambda| (``unit_modulus``), phi - psi once, and from it the dual
update lambda + (phi - psi) / rho and the consensus max |phi - psi|.
A call that keeps the incoming phases (a revert, or an infeasible entry or
step) flags it in its ``PhaseInfo`` and returns the array ``sol.phi`` itself.
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
    def split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U' = F W, U'^H and sigma^2 of the Gram eigendecomposition
        F^H F = W diag(sigma^2) W^H (module docstring)."""
        sigma2, w = np.linalg.eigh(self.factor.conj().T @ self.factor)
        u = self.factor @ w
        return u, u.conj().T, sigma2

    @cached_property
    def echo_rows_h(self) -> np.ndarray:
        """V^H (M, K+1), which every pass's tangent applies."""
        return self.echo_rows.conj().T


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
    binding: int = 0        # passes whose tangent radar constraint binds


def _column_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows a_i o conj(b_j) over every pair (i, j)."""
    return (a[:, None, :] * b.conj()[None, :, :]).reshape(-1, a.shape[1])


def assemble_phase_coeffs(sol: Solution, ch: ChannelSet, aux: AuxVars,
                          cfg: SystemConfig, lt: LinkTerms) -> PhaseCoeffs:
    """Collapse the surrogates and the echo power into quadratic coefficients
    (the factor F of the module docstring), with the CCI weighed by
    ``lt.cross``; ``lt`` is the ``link_terms`` of this same solution."""
    gtw = sol.w @ ch.g_t.T                      # rows G_t w_j, shape (K+1, M)
    c = sol.u @ ch.g_r.T                        # rows c_l = G_r u_l, shape (L, M)
    gp = np.sqrt(sol.p)[:, None] * ch.g_pu      # rows sqrt(p_l) g_pu,l
    bb1 = np.abs(aux.beta1) ** 2

    t1 = (np.sqrt(1.0 + aux.alpha1) * aux.beta1) @ (gtw[1:].conj() * ch.h_pu)
    t2 = (np.sqrt(1.0 + aux.alpha2) * aux.beta2 * np.sqrt(sol.p)) @ (c * ch.g_pu.conj())
    # the CCI e_lk + h_pu_k^H diag(phi) g_pu_l through every CP-UE, weighed
    # by cross: under HD its partners are zero rows, whose zero columns go
    beams = np.vstack([gtw, lt.cross * gp])     # H_b's partners
    t1 = t1 - lt.cross * (bb1 @ (ch.h_pu * ((sol.p[:, None] * ch.e_direct).T @ ch.g_pu.conj())))
    den1 = cfg.noise_ue_watt + lt.cross * (sol.p @ np.abs(ch.e_direct) ** 2)
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


def mm_linearize_radar(coeffs: PhaseCoeffs, phi0: np.ndarray) -> tuple[np.ndarray, float]:
    """Tangent minorant -2 Re{d^H phi} + e <= 0 of the radar constraint at
    phi0: d = V^H (V phi0) and e = ||V phi0||^2 + b0."""
    echo = coeffs.echo_rows @ phi0
    return coeffs.echo_rows_h @ echo, float(np.vdot(echo, echo).real) + coeffs.b0


def admm_phi_step(coeffs: PhaseCoeffs, rho: float, target: np.ndarray, d: np.ndarray,
                  e: float) -> tuple[np.ndarray, float]:
    """Exact minimizer of phi^H A phi - 2 Re{r^H phi} s.t. -2 Re{d^H phi} + e <= 0,
    with A = T12 + c I, c = 1/(2 rho), and r = t12 + c target (target = psi - rho lambda),
    and its multiplier mu: phi_u = A^-1 r if it meets the constraint (mu = 0), else
    phi_u + mu A^-1 d with mu = slack(phi_u) / (2 d^H A^-1 d).  With v = r / c =
    2 rho t12 + target the Gram-eigen inverse (module docstring) reads
    A^-1 r = v - U' diag(1 / (sigma^2 + c)) U'^H v.  Raises SensingInfeasible when
    d = 0 and the constraint is violated."""
    u, uh, sigma2 = coeffs.split
    g = 1.0 / (sigma2 + 0.5 / rho)
    v = 2.0 * rho * coeffs.t12_vec + target
    phi_u = v - u @ (g * (uh @ v))
    slack = e - 2.0 * np.vdot(d, phi_u).real
    if slack <= SLACK_TOL * max(1.0, abs(e)):
        return phi_u, 0.0
    y = d - u @ (g * (uh @ d))                  # A^-1 d = 2 rho y
    curvature = np.vdot(d, y).real
    if curvature <= 0.0:
        raise SensingInfeasible("the linearized radar constraint admits no reflection vector")
    return phi_u + (0.5 * slack / curvature) * y, float(slack / (4.0 * rho * curvature))


def step_certificate(coeffs: PhaseCoeffs, rho: float, target: np.ndarray, d: np.ndarray,
                     e: float, x: np.ndarray) -> dict:
    """KKT residuals of ``x`` as the minimizer of ``admm_phi_step``'s problem at
    the same (rho, target, d, e), each relative to its own scale and 0 when
    exact; the multiplier of A x - r = mu d is fitted by least squares, not
    taken from the step."""
    c = 0.5 / rho
    r = coeffs.t12_vec + c * target
    grad = coeffs.factor @ (x @ coeffs.factor.conj()) + c * x - r
    d_norm, r_norm = np.linalg.norm(d), np.linalg.norm(r)
    mu = relative(float((d.conj() @ grad).real), d_norm ** 2)
    violation = relative(e - 2.0 * float((d.conj() @ x).real), abs(e))
    return {
        "stationarity": relative(np.linalg.norm(grad - mu * d), r_norm),
        "mu_sign": float(max(0.0, -mu) * d_norm / r_norm),
        "feasibility": max(violation, 0.0),
        "slackness": float(abs(mu * violation) * d_norm / r_norm),
    }


def unit_modulus(z: np.ndarray) -> np.ndarray:
    """The unit-modulus vector nearest z, z / |z| entrywise; a zero entry maps
    to 1, as exp(1j angle(0)) does."""
    m = np.abs(z)
    if m.all():
        return z / m
    return np.divide(z, m, out=np.ones_like(z), where=m > 0.0)


def optimize_phase(sol: Solution, ch: ChannelSet, aux: AuxVars, cfg: SystemConfig,
                   lt: LinkTerms) -> tuple[np.ndarray, PhaseInfo]:
    """Full inner ADMM pass; returns a unit-modulus phi that never lowers the
    surrogate of the incoming one, or else, with the call flagged ``reverted``
    or ``infeasible``, the incoming array ``sol.phi`` itself."""
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

    phi, psi, lam, rho = phi_in, unit_modulus(phi_in), np.zeros_like(phi_in), RHO_INIT
    for it in range(1, MAX_INNER + 1):
        d, e = mm_linearize_radar(coeffs, phi)
        rho_lam = rho * lam
        try:
            phi, mu = admm_phi_step(coeffs, rho, psi - rho_lam, d, e)
        except SensingInfeasible:
            info.infeasible = True
            return phi_in, info
        psi = unit_modulus(phi + rho_lam)
        gap = phi - psi
        lam = lam + gap / rho
        info.binding += mu > 0.0
        info.consensus = float(np.abs(gap).max())
        info.iterations = it
        if info.consensus <= CONSENSUS_TOL:
            break
        rho = max(rho * RHO_FACTOR, RHO_FLOOR)

    exit_val = surrogate_value(coeffs, psi)
    radar_ok = echo_power(coeffs, psi) >= coeffs.b0 * (1.0 - 1e-6)
    if exit_val < entry_val - 1e-10 * (1.0 + abs(entry_val)) or not radar_ok:
        info.reverted = True
        return phi_in, info
    return psi, info
