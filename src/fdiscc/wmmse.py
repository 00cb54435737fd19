"""Concave surrogate layer for the sum-rate objective.

Every surrogate is the quadratic transform of Shen & Yu (IEEE TSP 2018)
applied to one user's SINR as ``sysmodel.link_terms`` states it: with ratio
auxiliary alpha and combiner auxiliary beta,

    log(1 + alpha) - alpha + 2 sqrt(1 + alpha) Re{beta^* sig} - |beta|^2 den.

``update_aux`` gives the closed-form optimal auxiliaries (alpha is the SINR);
at those values each surrogate equals log2(1+SINR) exactly, and for any other
auxiliaries it is a lower bound.  Surrogates are reported in log2 units (the
whole bracket is divided by ln 2, which leaves every maximizer unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .sysmodel import LinkTerms, Solution

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class AuxVars:
    alpha1: np.ndarray   # (K,) ratio auxiliaries, downlink
    beta1: np.ndarray    # (K,) complex combiner auxiliaries, downlink
    alpha2: np.ndarray   # (L,) ratio auxiliaries, offloading
    beta2: np.ndarray    # (L,) complex combiner auxiliaries, offloading


def update_aux(lt: LinkTerms) -> AuxVars:
    """Closed-form optimal auxiliaries at the solution ``lt`` was computed at:
    alpha is the SINR and beta = sqrt(1 + alpha) sig / den (zero for an
    all-zero combiner)."""
    alpha1, alpha2 = lt.r_com, lt.r_off
    beta1 = np.sqrt(1.0 + alpha1) * lt.com_sig / lt.com_den
    beta2 = np.divide(np.sqrt(1.0 + alpha2) * lt.off_sig, lt.off_den,
                      out=np.zeros(alpha2.shape, complex), where=lt.off_den > 0.0)
    return AuxVars(alpha1=alpha1, beta1=beta1, alpha2=alpha2, beta2=beta2)


def _bracket(alpha, beta, sig, den):
    """Quadratic-transform surrogate in log2 units, elementwise."""
    val = (
        np.log(1.0 + alpha) - alpha
        + 2.0 * np.sqrt(1.0 + alpha) * (np.conj(beta) * sig).real
        - np.abs(beta) ** 2 * den
    )
    return val / LN2


def surrogates(aux: AuxVars, lt: LinkTerms) -> tuple[np.ndarray, np.ndarray]:
    """Per-user surrogate rates in log2 units: (downlink (K,), offloading (L,))."""
    return (_bracket(aux.alpha1, aux.beta1, lt.com_sig, lt.com_den),
            _bracket(aux.alpha2, aux.beta2, lt.off_sig, lt.off_den))


def surrogate_sum(aux: AuxVars, lt: LinkTerms) -> float:
    """Sum of all communication and offloading surrogates."""
    com, off = surrogates(aux, lt)
    return float(com.sum() + off.sum())


def bca_objective(sol: Solution, cfg: SystemConfig, aux: AuxVars, lt: LinkTerms) -> float:
    """Block-coordinate objective: surrogates (halved under HD) plus normalized
    local computation rate (everything per channel use, log2 units)."""
    loc = float((sol.f / (cfg.eps_array() * cfg.bandwidth_hz)).sum())
    return lt.duplex * surrogate_sum(aux, lt) + loc
