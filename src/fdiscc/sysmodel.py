"""The signal and sensing model, and exact evaluation of the physical metrics.

This module owns the model every block optimizes: ``link_terms`` gives each
user's desired amplitude and SINR denominator (interference, uplink CCI,
residual SI, receiver noise) and the radar constraint's echo power,
disturbance and floor, from which its ``LinkTerms`` read every SINR; and
``SensingInfeasible`` is the one signal that the floor is out of reach.  On
top of those: local computation rate/energy, backhaul cost and the overall
system utility (bits).

It is the one module that knows the target response G_s = eta a_active
a_passive^H is rank one: G_s^H G_s = t^H t for the row t
(``ChannelSet.target_row``), so the echo power of the beams w_j at phases phi
is sum_j |r w_j|^2 for the row r = (t o phi) G_t (``Composite.r``), and no
block forms G_s diag(phi) G_t.

Each quantity is computed once, at the level it depends on. The row t and
the rows ||g_au,l||^2 depend on the channels alone, and the ``ChannelSet``
keeps them. The composite channels depend on the phases alone, so one
``Composite`` serves every ``link_terms`` at one phase array: it records the
array it was built from, and ``link_terms`` reuses a passed one only for that
same array (``sol.phi`` itself) and recomputes it otherwise.

``link_terms`` is where the duplex mode enters, and the only place that
tests it: it records the mode in its ``LinkTerms`` as ``hd``, ``duplex``
(the share of time each link transmits) and ``cross`` (the share of the
other direction's transmission each receiver hears: 1 under FD, 0 under HD,
where the two directions take turns), and weighs the uplink CCI and the
residual SI by ``cross``.  Every block, and ``residuals``, take that record
as a required ``lt`` and weigh their own cross-link terms by its ``cross``,
so FD and HD run one code path through every block.  ``utility`` computes
its own from ``hd`` when none is passed, and charges the backhaul cost of
``sol.e`` unless given a ``d_total``.  ``residuals`` measures the radio
constraints alone: the cache residual depends on the placement alone, and
``orchestrator.price``, which charges a run's placement, records it.

Rates use log2 so that SINR = 1 gives exactly B bits/s.  Quadratic terms in
the transmitted symbol vector are evaluated in expectation (unit-variance
independent symbols), i.e. |a^H x|^2 -> sum_k |a^H w_k|^2 over all beams
including the sensing beam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .config import SystemConfig
from .cacheopt import catalogue, uncached_mass


@dataclass(frozen=True)
class Solution:
    """Decision variables.  w has shape (K+1, N_t) with row 0 the sensing beam;
    u (L, N_r); phi (M,) unit modulus; f and p (L,); e (V,) in [0, 1]."""

    w: np.ndarray
    u: np.ndarray
    phi: np.ndarray
    f: np.ndarray
    p: np.ndarray
    e: np.ndarray

    def copy_with(self, **changes) -> "Solution":
        return Solution(**{**self.__dict__, **changes})


@dataclass(frozen=True)
class Metrics:
    r_com: np.ndarray      # downlink SINR per CM-UE
    rate_com: np.ndarray   # bit/s
    r_off: np.ndarray      # offloading SINR per CP-UE
    rate_off: np.ndarray   # bit/s
    r_tar: float           # radar SINR
    rate_loc: np.ndarray   # bit/s
    energy_loc: np.ndarray # J
    d_total: float         # backhaul cost, bits-equivalent
    sum_bits: float        # T * (sum rate_com + sum rate_off + sum rate_loc)
    utility: float         # sum_bits - d_total


class SensingInfeasible(Exception):
    """The radar floor is out of reach: from every start, or in the transmit,
    power or a phase step."""


@dataclass(frozen=True)
class Composite:
    """phi-dependent effective channels: h (K, N_t) rows h_k, ebar (L, K),
    g (L, N_r) and the echo row r (N_t,), at the phase array ``phi`` they
    were built from."""

    phi: np.ndarray
    h: np.ndarray
    ebar: np.ndarray
    g: np.ndarray
    r: np.ndarray


def composite_channels(ch: ChannelSet, phi: np.ndarray) -> Composite:
    """h_k = h_pu_k^H diag(phi) G_t,  ebar_lk = e_lk + h_pu_k^H diag(phi) g_pu_l,
    g_l = G_r^H diag(phi) g_pu_l,  r = (t o phi) G_t, for which
    sum_j |r w_j|^2 = sum_j ||G_s diag(phi) G_t w_j||^2."""
    m = ch.g_t.shape[0]
    phi = np.asarray(phi)
    if phi.shape != (m,):
        raise ValueError(f"phi must have shape ({m},), got {phi.shape}")
    hp = ch.h_pu.conj() * phi[None, :]              # rows h_pu_k^H diag(phi)
    h = hp @ ch.g_t                                  # (K, N_t)
    ebar = ch.e_direct + (hp @ ch.g_pu.T).T          # (L, K): e_lk + h_k^H Phi g_pu_l
    g = (ch.g_pu * phi[None, :]) @ ch.g_r.conj()     # (L, N_r): G_r^H diag(phi) g_pu_l
    r = (ch.target_row * phi) @ ch.g_t               # (N_t,): the echo row
    return Composite(phi=phi, h=h, ebar=ebar, g=g, r=r)


@dataclass(frozen=True)
class LinkTerms:
    """Per-user terms of the SINR model at one solution.

    Downlink, CM-UE k: desired amplitude com_sig_k = h_k w_k and full
    denominator com_den_k = sum_j |h_k w_j|^2 + cci_k + sigma_ue^2 (every beam,
    the desired one included), so SINR_k = |sig|^2 / (den - |sig|^2).
    Offloading, CP-UE l after combining with u_l: off_sig_l = sqrt(p_l) uamp_ll
    and off_den_l = sum_l' p_l' |uamp_ll'|^2 + si_l + noise_off_l, with
    uamp_ll' = u_l^H g_l'.  The uplink CCI and the residual SI are weighed by
    ``cross``, the share of the other direction's transmission each receiver
    hears: 1 under FD and 0 under HD (``hd``), so both are zero under HD.  An
    all-zero combiner has off_den = 0 and SINR 0.  The radar constraint is
    echo >= floor, i.e. r_tar >= Gamma.
    """

    comp: Composite
    com_sig: np.ndarray    # (K,) complex
    com_den: np.ndarray    # (K,)
    cci: np.ndarray        # (K,) sum_l p_l |ebar_lk|^2
    off_sig: np.ndarray    # (L,) complex
    off_den: np.ndarray    # (L,)
    si: np.ndarray         # (L,) sum_j |u_l^H H_SI w_j|^2
    noise_off: np.ndarray  # (L,) ||u_l||^2 sigma_bs^2
    uamp: np.ndarray       # (L, L) complex
    hd: bool               # the duplex mode these terms were computed under
    cross: float           # share of the other direction each receiver hears
    echo: float            # sum_j |r w_j|^2
    disturbance: float     # sum_l p_l ||g_au,l||^2 + sigma_irs^2
    floor: float           # Gamma disturbance

    @property
    def duplex(self) -> float:
        """Share of time each link transmits: 1 under FD, 1/2 under HD."""
        return 0.5 if self.hd else 1.0

    @property
    def r_com(self) -> np.ndarray:
        sig = np.abs(self.com_sig) ** 2
        return sig / (self.com_den - sig)

    @property
    def r_off(self) -> np.ndarray:
        sig = np.abs(self.off_sig) ** 2
        return np.divide(sig, self.off_den - sig, out=np.zeros(sig.shape),
                         where=self.off_den > 0.0)

    @property
    def r_tar(self) -> float:
        return self.echo / self.disturbance


def link_terms(sol: Solution, ch: ChannelSet, cfg: SystemConfig,
               hd: bool = False, comp: Composite | None = None) -> LinkTerms:
    """Every user's desired amplitude and SINR denominator, and the radar
    terms, at ``sol``.  A passed ``comp`` is used if it was built from the
    array ``sol.phi`` itself, and the composite is recomputed otherwise."""
    if comp is None or comp.phi is not sol.phi:
        comp = composite_channels(ch, sol.phi)
    cross = 0.0 if hd else 1.0                       # HD: the two directions take turns
    amps = comp.h @ sol.w.T                          # [k, j] = h_k w_j
    cci = cross * (sol.p @ np.abs(comp.ebar) ** 2)
    com_den = (np.abs(amps) ** 2).sum(axis=1) + cci + cfg.noise_ue_watt

    uamp = sol.u.conj() @ comp.g.T                   # [l, l'] = u_l^H g_l'
    si = cross * (np.abs(sol.u.conj() @ ch.h_si @ sol.w.T) ** 2).sum(axis=1)
    noise_off = (np.abs(sol.u) ** 2).sum(axis=1) * cfg.noise_bs_watt
    off_den = np.abs(uamp) ** 2 @ sol.p + si + noise_off

    echo = float((np.abs(sol.w @ comp.r) ** 2).sum())
    disturbance = float(sol.p @ ch.g_au_norm2) + cfg.noise_irs_watt
    return LinkTerms(
        comp=comp, com_sig=np.diagonal(amps, 1), com_den=com_den,
        cci=cci, off_sig=np.sqrt(sol.p) * np.diagonal(uamp), off_den=off_den, si=si,
        noise_off=noise_off, uamp=uamp, hd=hd, cross=cross, echo=echo, disturbance=disturbance,
        floor=cfg.gamma_tar_linear * disturbance,
    )


def backhaul_cost(e: np.ndarray, cache_cfg, t: float, n_cp: int,
                  mass: float | None = None) -> float:
    """D_total = T sum_v rho_v (1 - e_v) c_v sum_l R_0l = T rho_max M(e) sum_l R_0l.

    M(e) = sum_v (rho_v / rho_max)(1 - e_v) c_v is the priced uncached mass
    (``cacheopt.uncached_mass``), the objective of the cache placement LP that
    ``cacheopt.solve_caching`` minimizes. A caller that holds it passes it as
    ``mass``. Under a uniform price M is exactly 1 at e = 0 and exactly 0 at
    e = 1, so the no-cache cost is exactly T rho sum_l R_0l whatever the skew.
    """
    if mass is None:
        mass = uncached_mass(e, cache_cfg)
    return float(t * catalogue(cache_cfg).rho_max * mass * cache_cfg.rate_array(n_cp).sum())


def utility(sol: Solution, ch: ChannelSet, cfg: SystemConfig, hd: bool = False, *,
            lt: LinkTerms | None = None, d_total: float | None = None) -> Metrics:
    """Evaluate every metric of the current solution.  HD halves both
    throughput terms (``LinkTerms.duplex``).

    A caller that already holds ``link_terms`` of this solution, or
    ``backhaul_cost`` of its cache placement ``sol.e``, passes them as ``lt``
    and ``d_total`` instead of having them recomputed; a passed ``lt``
    carries its own duplex mode, and ``hd`` then goes unread.  The radio
    solve passes ``d_total = 0``, since its solutions carry no placement."""
    b, t = cfg.bandwidth_hz, cfg.coherence_time_s

    lt = link_terms(sol, ch, cfg, hd) if lt is None else lt
    r_com, r_off = lt.r_com, lt.r_off
    rate_com = lt.duplex * b * np.log2(1.0 + r_com)
    rate_off = lt.duplex * b * np.log2(1.0 + r_off)
    rate_loc = sol.f / cfg.eps_array()
    energy_loc = t * cfg.zeta * sol.f ** 3
    if d_total is None:
        d_total = backhaul_cost(sol.e, cfg.cache, t, cfg.n_cp)
    sum_bits = t * (rate_com.sum() + rate_off.sum() + rate_loc.sum())
    return Metrics(
        r_com=r_com, rate_com=rate_com, r_off=r_off, rate_off=rate_off,
        r_tar=lt.r_tar, rate_loc=rate_loc, energy_loc=energy_loc,
        d_total=d_total, sum_bits=sum_bits, utility=sum_bits - d_total,
    )


def residuals(sol: Solution, cfg: SystemConfig, lt: LinkTerms) -> dict[str, float]:
    """Signed residuals of the radio constraints; positive means violated.
    ``lt`` is the ``link_terms`` of ``sol``.  The cache constraint belongs to
    the placement, whose residual ``orchestrator.price`` records."""
    t = cfg.coherence_time_s
    power = float((np.abs(sol.w) ** 2).sum() - cfg.p_bs_watt)
    gamma = cfg.gamma_tar_linear
    radar = float(gamma - lt.r_tar) / gamma
    modulus = float(np.abs(np.abs(sol.phi) - 1.0).max())
    if sol.p.size:
        energy = float((t * sol.p + t * cfg.zeta * sol.f ** 3 - cfg.e_max_array()).max())
    else:
        energy = 0.0
    return {"power": power, "radar": radar, "modulus": modulus, "energy": energy}


def relative(residual: float, scale: float) -> float:
    """A certificate residual over its scale, and 0 for an exact zero, as of
    an empty or all-zero term."""
    return float(residual / scale) if residual else 0.0


METRICS_CSV_COLUMNS = (
    "utility_bits", "sum_bits", "rate_com_bits", "rate_off_bits", "rate_loc_bits",
    "backhaul_cost_bits", "radar_sinr",
)


def metrics_csv_row(m: Metrics, t: float) -> list[float]:
    """Fixed-order CSV projection of a Metrics record (column names in
    METRICS_CSV_COLUMNS; all linear units)."""
    return [
        m.utility, m.sum_bits, t * m.rate_com.sum(), t * m.rate_off.sum(),
        t * m.rate_loc.sum(), m.d_total, m.r_tar,
    ]
