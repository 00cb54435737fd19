"""Concave surrogate layer for the sum-rate objective.

``update_aux`` gives the closed-form optimal ratio/combiner auxiliaries; at
those values each surrogate equals log2(1+SINR) exactly, and for any other
auxiliaries it is a lower bound.  Surrogates are reported in log2 units (the
whole bracket is divided by ln 2, which leaves every maximizer unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .config import SystemConfig
from .sysmodel import Composite, Solution, composite_channels, si_power

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class AuxVars:
    alpha1: np.ndarray   # (K,) ratio auxiliaries, downlink
    beta1: np.ndarray    # (K,) complex combiner auxiliaries, downlink
    alpha2: np.ndarray   # (L,) ratio auxiliaries, offloading
    beta2: np.ndarray    # (L,) complex combiner auxiliaries, offloading


def _com_terms(sol: Solution, ch: ChannelSet, cfg: SystemConfig,
               comp: Composite, k: int, hd: bool):
    """(signal amplitude h_k w_k, full denominator incl. the signal term)."""
    amps = sol.w @ comp.h[k]                    # h_k w_j for every beam j
    cci = 0.0 if hd else float(sol.p @ np.abs(comp.ebar[:, k]) ** 2)
    den = float(np.sum(np.abs(amps) ** 2)) + cci + cfg.noise_ue_watt
    return amps[k + 1], den


def _off_terms(sol: Solution, ch: ChannelSet, cfg: SystemConfig,
               comp: Composite, l: int, hd: bool):
    """(signal amplitude sqrt(p_l) u^H g_l, full denominator)."""
    u = sol.u[l]
    amps = comp.g @ u.conj()                    # u^H g_l' per CP-UE
    sig = np.sqrt(sol.p[l]) * amps[l]
    si = 0.0 if hd else si_power(u, ch, sol.w)
    den = float(sol.p @ np.abs(amps) ** 2) + si + float(np.vdot(u, u).real) * cfg.noise_bs_watt
    return sig, den


def update_aux(sol: Solution, ch: ChannelSet, cfg: SystemConfig,
               hd: bool = False) -> AuxVars:
    """Closed-form optimal auxiliaries at the current solution."""
    comp = composite_channels(ch, sol.phi)
    k_n, l_n = ch.h_pu.shape[0], ch.g_pu.shape[0]
    alpha1 = np.zeros(k_n)
    beta1 = np.zeros(k_n, complex)
    for k in range(k_n):
        sig, den = _com_terms(sol, ch, cfg, comp, k, hd)
        p_sig = float(np.abs(sig) ** 2)
        alpha1[k] = p_sig / (den - p_sig)
        beta1[k] = np.sqrt(1.0 + alpha1[k]) * sig / den
    alpha2 = np.zeros(l_n)
    beta2 = np.zeros(l_n, complex)
    for l in range(l_n):
        sig, den = _off_terms(sol, ch, cfg, comp, l, hd)
        if den <= 0.0:        # all-zero combiner: nothing to receive
            continue
        p_sig = float(np.abs(sig) ** 2)
        alpha2[l] = p_sig / (den - p_sig)
        beta2[l] = np.sqrt(1.0 + alpha2[l]) * sig / den
    return AuxVars(alpha1=alpha1, beta1=beta1, alpha2=alpha2, beta2=beta2)


def _bracket(alpha: float, beta: complex, sig: complex, den: float) -> float:
    val = (
        np.log(1.0 + alpha) - alpha
        + 2.0 * np.sqrt(1.0 + alpha) * (np.conj(beta) * sig).real
        - abs(beta) ** 2 * den
    )
    return float(val) / LN2


def surrogate_com(sol: Solution, ch: ChannelSet, cfg: SystemConfig,
                  aux: AuxVars, k: int, comp: Composite | None = None,
                  hd: bool = False) -> float:
    """Downlink surrogate rate of CM-UE k in log2 units."""
    comp = comp or composite_channels(ch, sol.phi)
    sig, den = _com_terms(sol, ch, cfg, comp, k, hd)
    return _bracket(float(aux.alpha1[k]), complex(aux.beta1[k]), sig, den)


def surrogate_off(sol: Solution, ch: ChannelSet, cfg: SystemConfig,
                  aux: AuxVars, l: int, comp: Composite | None = None,
                  hd: bool = False) -> float:
    """Offloading surrogate rate of CP-UE l in log2 units."""
    comp = comp or composite_channels(ch, sol.phi)
    sig, den = _off_terms(sol, ch, cfg, comp, l, hd)
    return _bracket(float(aux.alpha2[l]), complex(aux.beta2[l]), sig, den)


def surrogate_sum(sol: Solution, ch: ChannelSet, cfg: SystemConfig,
                  aux: AuxVars, hd: bool = False) -> float:
    """Sum of all communication and offloading surrogates."""
    comp = composite_channels(ch, sol.phi)
    total = 0.0
    for k in range(ch.h_pu.shape[0]):
        total += surrogate_com(sol, ch, cfg, aux, k, comp, hd)
    for l in range(ch.g_pu.shape[0]):
        total += surrogate_off(sol, ch, cfg, aux, l, comp, hd)
    return total


def bca_objective(sol: Solution, ch: ChannelSet, cfg: SystemConfig,
                  aux: AuxVars, hd: bool = False) -> float:
    """Block-coordinate objective: surrogates (halved under HD) plus normalized
    local computation rate (everything per channel use, log2 units)."""
    loc = float(np.sum(sol.f / (cfg.eps_array() * cfg.bandwidth_hz))) if sol.f.size else 0.0
    return (0.5 if hd else 1.0) * surrogate_sum(sol, ch, cfg, aux, hd) + loc
