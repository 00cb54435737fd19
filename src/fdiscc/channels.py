"""Seeded generation of the propagation environment.

Rician fading on every IRS-anchored link (3 dB K-factor by default), Rayleigh
on the CP-UE -> CM-UE direct links, fixed-modulus random-phase residual
self-interference at the BS, and a rank-one target response anchored at the
known target angle.  Everything is a pure function of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SystemConfig, _read_only, db2lin


@dataclass(frozen=True)
class ChannelSet:
    """One realization of every channel and steering object.

    Shapes: g_t (M, N_t), g_r (M, N_r), h_pu (K, M), g_pu (L, M),
    g_au (L, M_a), e_direct (L, K), h_si (N_r, N_t), a_active (M_a,),
    a_passive (M,), g_s (M_a, M).  User drop positions are kept for
    reproducibility checks.

    The channel-only constants the blocks read, ``target_row`` and
    ``g_au_norm2``, are computed once per record, on first read, and are
    read-only like the channels.  They live in the instance, so a
    ``dataclasses.replace`` computes them afresh for the new record.
    """

    g_t: np.ndarray
    g_r: np.ndarray
    h_pu: np.ndarray
    g_pu: np.ndarray
    g_au: np.ndarray
    e_direct: np.ndarray
    h_si: np.ndarray
    a_active: np.ndarray
    a_passive: np.ndarray
    g_s: np.ndarray
    cm_pos: np.ndarray
    cp_pos: np.ndarray

    @cached_property
    def target_row(self) -> np.ndarray:
        """t (M,) = a_active^H G_s / ||a_active||, so that G_s^H G_s = t^H t."""
        return _read_only((self.a_active.conj() @ self.g_s) / np.linalg.norm(self.a_active))

    @cached_property
    def g_au_norm2(self) -> np.ndarray:
        """||g_au,l||^2 per CP-UE (L,): its uplink power's weight at the IRS
        sensing elements."""
        return _read_only((np.abs(self.g_au) ** 2).sum(axis=1))


def steering_vector(theta: float, n: int) -> np.ndarray:
    """ULA steering vector with half-wavelength spacing: entry i = e^{-j pi i sin(theta)}."""
    if n < 1:
        raise ValueError(f"steering vector needs n >= 1, got {n}")
    return np.exp(-1j * np.pi * np.arange(n) * np.sin(theta))


def path_loss(d_m: float, exponent: float, lambda_linear: float = 1e-3, d0_m: float = 1.0) -> float:
    """Distance-dependent gain lambda * (d/d0)^-eta, linear scale."""
    if d_m <= 0:
        raise ValueError(f"distance must be > 0, got {d_m}")
    return lambda_linear * (d_m / d0_m) ** (-exponent)


def _cn(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _angle(p_from, p_to) -> float:
    return float(np.arctan2(p_to[1] - p_from[1], p_to[0] - p_from[0]))


def _rician(rng, pl: float, k_lin: float, los: np.ndarray) -> np.ndarray:
    nlos = _cn(rng, los.shape)
    return np.sqrt(pl) * (
        np.sqrt(k_lin / (1.0 + k_lin)) * los + np.sqrt(1.0 / (1.0 + k_lin)) * nlos
    )


def draw_channels(cfg: SystemConfig) -> ChannelSet:
    """Draw the channel realization of ``cfg.seed``: equal configs give
    bitwise equal channel sets."""
    rng = np.random.default_rng(cfg.seed)

    geo, plc = cfg.geometry, cfg.pathloss
    k_lin = db2lin(cfg.rician_k_db)
    bs, irs = np.asarray(geo.bs_pos, float), np.asarray(geo.irs_pos, float)

    def drop(n):
        x = rng.uniform(*geo.user_x_range, size=n)
        y = rng.uniform(*geo.user_y_range, size=n)
        return np.stack([x, y], axis=1)

    cm_pos = drop(cfg.n_cm)
    cp_pos = drop(cfg.n_cp)

    d_bi = float(np.linalg.norm(bs - irs))
    pl_bi = path_loss(d_bi, plc.eta_br, plc.lambda_linear, plc.d0_m)
    a_irs_bs = steering_vector(_angle(irs, bs), cfg.m_passive)
    a_bs_irs_t = steering_vector(_angle(bs, irs), cfg.n_tx)
    a_bs_irs_r = steering_vector(_angle(bs, irs), cfg.n_rx)
    g_t = _rician(rng, pl_bi, k_lin, np.outer(a_irs_bs, a_bs_irs_t.conj()))
    g_r = _rician(rng, pl_bi, k_lin, np.outer(a_irs_bs, a_bs_irs_r.conj()))

    def user_link(pos, n_elem):
        d = float(np.linalg.norm(np.asarray(pos) - irs))
        pl = path_loss(d, plc.eta_ru, plc.lambda_linear, plc.d0_m)
        los = steering_vector(_angle(irs, pos), n_elem)
        return _rician(rng, pl, k_lin, los)

    h_pu = np.stack([user_link(cm_pos[k], cfg.m_passive) for k in range(cfg.n_cm)]) \
        if cfg.n_cm else np.zeros((0, cfg.m_passive), complex)
    g_pu = np.stack([user_link(cp_pos[l], cfg.m_passive) for l in range(cfg.n_cp)]) \
        if cfg.n_cp else np.zeros((0, cfg.m_passive), complex)
    g_au = np.stack([user_link(cp_pos[l], cfg.m_active) for l in range(cfg.n_cp)]) \
        if cfg.n_cp else np.zeros((0, cfg.m_active), complex)

    e_direct = np.zeros((cfg.n_cp, cfg.n_cm), complex)
    for l in range(cfg.n_cp):
        for k in range(cfg.n_cm):
            d = float(np.linalg.norm(cp_pos[l] - cm_pos[k]))
            d = max(d, plc.d0_m)  # clamp co-located drops to the reference distance
            pl = path_loss(d, plc.eta_mp, plc.lambda_linear, plc.d0_m)
            e_direct[l, k] = np.sqrt(pl) * _cn(rng, ())

    # residual SI: exact modulus, uniform random phase per antenna pair
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.n_rx, cfg.n_tx))
    h_si = np.sqrt(db2lin(cfg.si_power_db)) * np.exp(1j * phases)

    a_active = steering_vector(geo.target_angle_rad, cfg.m_active)
    a_passive = steering_vector(geo.target_angle_rad, cfg.m_passive)
    g_s = cfg.target_reflection() * np.outer(a_active, a_passive.conj())

    ch = ChannelSet(
        g_t=g_t, g_r=g_r, h_pu=h_pu, g_pu=g_pu, g_au=g_au, e_direct=e_direct,
        h_si=h_si, a_active=a_active, a_passive=a_passive, g_s=g_s,
        cm_pos=cm_pos, cp_pos=cp_pos,
    )
    for arr in vars(ch).values():
        arr.setflags(write=False)
    return ch

