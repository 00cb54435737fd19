"""The ``fdiscc selftest`` invariant suite: 16 checks on one desk-scale
scenario, one ``[PASS]`` or ``[FAIL]`` line each. The KKT checks read the
solvers' own certificates (``phaseadmm.step_certificate``,
``beamforming.tx_certificate``, ``powercomp.power_certificate``)."""

from __future__ import annotations

import dataclasses

import numpy as np
import numpy.linalg as la

from . import beamforming, cacheopt, orchestrator, phaseadmm, powercomp, sysmodel, wmmse
from .channels import draw_channels
from .config import desk_config


def scenario():
    """The suite's config, channels, start with its link terms and
    auxiliaries, the start with half the energy budget on uplink power (so
    the CCI and uplink terms weigh in), and random phases."""
    cfg = desk_config(m_passive=8, seed=3)
    ch = draw_channels(cfg)
    sol, _ = orchestrator.initialize(cfg, ch, np.random.default_rng(0))
    lt = sysmodel.link_terms(sol, ch, cfg)
    p = cfg.e_max_array() / (2.0 * cfg.coherence_time_s)
    live = sol.copy_with(p=p, f=(p / cfg.zeta) ** (1 / 3))
    phi = np.exp(1j * np.random.default_rng(1).uniform(0, 2 * np.pi, cfg.m_passive))
    return cfg, ch, sol, lt, wmmse.update_aux(lt), live, phi


def kkt_instances(cfg, ch, sol, lt, aux, live, phi) -> dict:
    """Per block, the certificate arguments of one solve with its constraint
    slack and one with it binding; the power/compute block's in both of its
    modes, with the CPU (``power``) and with f = 0 (``offload``)."""
    lt_live = sysmodel.link_terms(live, ch, cfg)
    coeffs = phaseadmm.assemble_phase_coeffs(live, ch, wmmse.update_aux(lt_live), cfg, lt_live)
    # ADMM phase step at rho = 0.5 and the target phi, its radar constraint
    # set off the unconstrained minimizer by +-||r|| (a unit d keeps mu O(1))
    a, r = coeffs.factor @ coeffs.factor.conj().T + np.eye(cfg.m_passive), coeffs.t12_vec + phi
    d, _ = phaseadmm.mm_linearize_radar(coeffs, phi)
    d = d / la.norm(d)
    edge = 2 * float((d.conj() @ la.solve(a, r)).real)
    phase = [(coeffs, 0.5, phi, d, e, phaseadmm.admm_phi_step(coeffs, 0.5, phi, d, e)[0])
             for e in (edge - la.norm(r), edge + la.norm(r))]

    # transmit step, radar floor at 1% then 90% of the echo ceiling
    tx = beamforming.assemble_tx_coeffs(sol, ch, aux, cfg, lt)
    transmit = []
    for frac in (0.01, 0.9):
        c = dataclasses.replace(tx, b0=frac * tx.p_bs * la.norm(tx.d) ** 2)
        transmit.append((c, *beamforming.solve_tx(c)))

    # power/compute step, sensing budget at 2x then 0.5x the unconstrained
    # load. The uplink is idle at this start, so b6 is set to put each user's
    # unconstrained optimum inside (0, E/T).
    pc = powercomp.assemble_power_coeffs(sol, ch, aux, cfg, lt)
    t, zeta, e_max = cfg.coherence_time_s, cfg.zeta, cfg.e_max_array()
    p_free = e_max / t * np.linspace(0.3, 0.6, cfg.n_cp)
    f_free = ((e_max - t * p_free) / (t * zeta)) ** (1 / 3)
    f_coef = 1.0 / (cfg.eps_array() * cfg.bandwidth_hz)
    pc = dataclasses.replace(pc, b6=2 * np.sqrt(p_free) * (pc.lin + f_coef / (3 * zeta * f_free ** 2)))
    power, offload = [], []
    for frac in (2.0, 0.5):
        c = dataclasses.replace(pc, c8=frac * float(p_free @ pc.b9))
        power.append((c, cfg, *powercomp.solve_power_compute(c, cfg)))
        offload.append((c, cfg, *powercomp.solve_power_compute(c, cfg, force_f_zero=True)))
    return {"phase": phase, "transmit": transmit, "power": power, "offload": offload}


def _certified(certificate, instances) -> bool:
    return all(max(certificate(*args).values()) <= 1e-9 for args in instances)


def main() -> int:
    """Run the suite; 0 when every check passes, else 1."""
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    cfg, ch, sol, lt, aux, live, phi = scenario()
    check("channel determinism", np.array_equal(draw_channels(cfg).g_t, ch.g_t))
    check("steering unit modulus", np.allclose(np.abs(ch.a_passive), 1.0))
    check("rank-one target response",
          la.matrix_rank(ch.g_s, tol=1e-12 * np.abs(ch.g_s).max()) == 1)

    # the rank-one rows against the dense M_a x M target response
    t, gram = ch.target_row, ch.g_s.conj().T @ ch.g_s
    cascade = ch.g_s @ (ch.g_t * sol.phi[:, None])
    dense, echo_gram = float(np.sum(np.abs(cascade @ sol.w.T) ** 2)), cascade.conj().T @ cascade
    r = sysmodel.composite_channels(ch, sol.phi).r
    check("echo row identity", abs(lt.echo - dense) <= 1e-12 * dense
          and la.norm(np.outer(r.conj(), r) - echo_gram) <= 1e-12 * la.norm(echo_gram)
          and la.norm(np.outer(t.conj(), t) - gram) <= 1e-12 * la.norm(gram))
    com, off = wmmse.surrogates(aux, lt)
    # the start carries no placement, so none is charged
    met = sysmodel.utility(sol, ch, cfg, lt=lt, d_total=0.0)
    check("radar SINR from link terms", met.r_tar == lt.r_tar
          and sysmodel.utility(sol, ch, cfg, d_total=0.0).r_tar == lt.r_tar)
    gaps = np.concatenate([com - np.log2(1 + met.r_com), off - np.log2(1 + met.r_off)])
    check("surrogate tightness", bool(np.all(np.abs(gaps) < 1e-9)))

    for hd in (True, False):
        lt_live = sysmodel.link_terms(live, ch, cfg, hd)
        aux_live = wmmse.update_aux(lt_live)
        coeffs = phaseadmm.assemble_phase_coeffs(live, ch, aux_live, cfg, lt_live)
        direct = wmmse.surrogate_sum(
            aux_live, sysmodel.link_terms(live.copy_with(phi=phi), ch, cfg, hd))
        check(f"phase coefficient identity ({'HD' if hd else 'FD'})",
              abs(phaseadmm.surrogate_value(coeffs, phi) - direct)
              <= 1e-10 * max(1.0, abs(direct)))

    sol_cache = cacheopt.solve_caching(cfg.cache)
    check("caching duality gap", abs(sol_cache.duality_gap) < 1e-9)

    kkt = kkt_instances(cfg, ch, sol, lt, aux, live, phi)
    check("phase step KKT", _certified(phaseadmm.step_certificate, kkt["phase"]))
    check("transmit step KKT", _certified(beamforming.tx_certificate, kkt["transmit"]))
    for block, name in (("power", "power step KKT"),
                        ("offload", "full-offloading power step KKT")):
        mus = [info["mu"] for *_, info in kkt[block]]
        check(name, _certified(powercomp.power_certificate, kkt[block])
              and mus[0] == 0.0 and mus[1] > 0.0)
    rescaled = []       # b9 and c8 in other units must leave p and f bit-equal
    for c, _, p, f, _ in kkt["power"]:
        for scale in (2.0 ** 20, 2.0 ** -20):
            p2, f2, _ = powercomp.solve_power_compute(
                dataclasses.replace(c, b9=c.b9 * scale, c8=c.c8 * scale), cfg)
            rescaled.append(p2.tobytes() == p.tobytes() and f2.tobytes() == f.tobytes())
    check("power step unit rescale", all(rescaled))

    results = {s: orchestrator.run(cfg, ch, orchestrator.RunOptions(scheme=s, max_iter=8))
               for s in ("proposed", "random-caching", "no-caching")}
    result = results["proposed"]
    objs = [r.objective for r in result.trace]
    mono = all(objs[i + 1] >= objs[i] - 1e-8 * abs(objs[i]) for i in range(len(objs) - 1))
    check("monotone objective trace", mono)

    # the caching schemes differ only in the placement, which no block reads:
    # one radio outcome, utilities apart by exactly their backhaul costs, each
    # checked against the dense sum over the placement (no ``mass`` given),
    # not the uncached mass that pricing took from the placement rule
    def radio(r):
        return (r.status, r.iterations, r.metrics.sum_bits,
                *(getattr(r.solution, name).tobytes() for name in ("w", "phi", "p")))

    check("cache decoupling", all(
        radio(r) == radio(result)
        and r.metrics.utility == result.metrics.sum_bits - sysmodel.backhaul_cost(
            r.solution.e, cfg.cache, cfg.coherence_time_s, cfg.n_cp)
        for r in results.values()))
    return 1 if failures else 0
