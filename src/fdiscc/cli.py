"""Command-line entry point.

Subcommands:
  run       solve one scenario, print the metrics and write metrics.csv,
            trace.csv and result.json into --out
  sweep     execute a sweep-spec JSON file and write the row + aggregate CSVs
  selftest  quick invariant suite (no artifacts written)

Exit codes: 0 ok, 1 infeasible scenario, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, orchestrator
from .channels import draw_channels
from .config import ConfigError, desk_config, load_config, paper_config
from .orchestrator import SCHEMES, RunOptions, result_to_json


def _load_cfg(arg: str, paper_scale: bool, seed: int | None):
    if arg == "default":
        cfg = paper_config() if paper_scale else desk_config()
    else:
        cfg = load_config(arg)
        if paper_scale:
            cfg = replace(cfg, m_passive=50, m_active=10)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_cfg(args.config, args.paper_scale, args.seed)
    ch = draw_channels(cfg)
    result = orchestrator.run(cfg, ch, RunOptions(scheme=args.scheme,
                                                  max_iter=args.max_iter))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_csv([harness.result_row(cfg, result)],
                      harness.RUN_CSV_COLUMNS, out / "metrics.csv")
    harness.write_trace_csv(result, out / "trace.csv")
    (out / "result.json").write_text(result_to_json(result))

    m = result.metrics
    print(f"scheme={result.scheme} status={result.status} iterations={result.iterations}")
    print(f"utility_bits={m.utility:.6g} sum_bits={m.sum_bits:.6g} "
          f"backhaul_cost_bits={m.d_total:.6g}")
    print(f"radar_sinr={m.r_tar:.6g} (threshold {cfg.gamma_tar_linear:.6g})")
    print(f"rate_com={np.array2string(m.rate_com, precision=4)} "
          f"rate_off={np.array2string(m.rate_off, precision=4)} "
          f"rate_loc={np.array2string(m.rate_loc, precision=4)}")
    print(f"wrote {out / 'metrics.csv'}, {out / 'trace.csv'}, {out / 'result.json'}")
    return 1 if result.status == orchestrator.INFEASIBLE_SENSING else 0


def _cmd_sweep(args) -> int:
    spec = harness.load_sweep_spec(args.spec)
    base = load_config(args.config) if args.config != "default" else None
    base = harness.sweep_base_config(spec, base)
    cells = harness.keyed_cells(spec, base)
    print(f"sweep: {len(cells)} cells, {len({key for key, _ in cells})} radio solves")
    rows = harness.run_sweep(spec, base_cfg=base, workers=args.workers)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / spec.output
    harness.write_csv(rows, harness.SWEEP_CSV_COLUMNS, rows_path)
    agg = harness.aggregate(rows)
    agg_path = rows_path.with_name(rows_path.stem + "_aggregate.csv")
    if agg:
        harness.write_csv(agg, tuple(agg[0].keys()), agg_path)
    print(f"wrote {len(rows)} rows to {rows_path} and aggregates to {agg_path}")
    bad = [r for r in rows if r["status"] == orchestrator.INFEASIBLE_SENSING]
    if bad:
        print(f"{len(bad)} cells were sensing-infeasible")
        return 1
    return 0


def _cmd_selftest(args) -> int:
    import dataclasses
    import numpy.linalg as la
    from . import beamforming, cacheopt, phaseadmm, powercomp, sysmodel, wmmse
    from .sysmodel import utility

    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    cfg = desk_config(m_passive=8, seed=3)
    ch = draw_channels(cfg)
    check("channel determinism",
          np.array_equal(draw_channels(cfg).g_t, ch.g_t))
    check("steering unit modulus",
          np.allclose(np.abs(ch.a_passive), 1.0))
    check("rank-one target response",
          la.matrix_rank(ch.g_s, tol=1e-12 * np.abs(ch.g_s).max()) == 1)

    sol = orchestrator.initialize(cfg, ch, np.random.default_rng(0))
    lt = sysmodel.link_terms(sol, ch, cfg)
    # the rank-one rows against the dense M_a x M target response
    t, gram = sysmodel.target_row(ch), ch.g_s.conj().T @ ch.g_s
    cascade = ch.g_s @ (ch.g_t * sol.phi[:, None])
    dense, echo_gram = float(np.sum(np.abs(cascade @ sol.w.T) ** 2)), cascade.conj().T @ cascade
    r = sysmodel.composite_channels(ch, sol.phi).r
    check("echo row identity", abs(lt.echo - dense) <= 1e-12 * dense
          and la.norm(np.outer(r.conj(), r) - echo_gram) <= 1e-12 * la.norm(echo_gram)
          and la.norm(np.outer(t.conj(), t) - gram) <= 1e-12 * la.norm(gram))
    aux = wmmse.update_aux(lt)
    com, off = wmmse.surrogates(aux, lt)
    met = utility(sol, ch, cfg, lt=lt)
    check("radar SINR from link terms", met.r_tar == lt.r_tar
          and utility(sol, ch, cfg).r_tar == lt.r_tar)
    gaps = np.concatenate([com - np.log2(1 + met.r_com), off - np.log2(1 + met.r_off)])
    check("surrogate tightness", bool(np.all(np.abs(gaps) < 1e-9)))

    # half the energy budget on uplink power, so the CCI and uplink terms weigh in
    p_live = cfg.e_max_array() / (2.0 * cfg.coherence_time_s)
    live = sol.copy_with(p=p_live, f=(p_live / cfg.zeta) ** (1 / 3))
    phi = np.exp(1j * np.random.default_rng(1).uniform(0, 2 * np.pi, cfg.m_passive))
    for hd in (True, False):        # FD last: its data feed the phase-step KKT below
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

    # KKT of the ADMM phase step, radar constraint slack then binding (unit d keeps mu O(1))
    state = phaseadmm.AdmmState(phi=phi, psi=phi, lam=np.zeros_like(phi), rho=0.5)
    a, r = coeffs.t12_mat + np.eye(cfg.m_passive), coeffs.t12_vec + phi
    d = phaseadmm.mm_linearize_radar(coeffs, phi).d
    d = d / la.norm(d)
    edge = 2 * float((d.conj() @ la.solve(a, r)).real)
    kkt = []
    for e in (edge - la.norm(r), edge + la.norm(r)):
        x = phaseadmm.admm_phi_step(coeffs, state, phaseadmm.LinearRadar(d=d, e=e))
        mu, slack = float((d.conj() @ (a @ x - r)).real), e - 2 * float((d.conj() @ x).real)
        kkt += [la.norm(a @ x - r - mu * d), -mu, slack, abs(mu * slack)]
    check("phase step KKT", max(kkt) <= 1e-9)

    # KKT of the closed-form transmit step (feasibility, stationarity, signs,
    # complementary slackness, dual gap), radar floor at 1% (slack) then 90%
    # (binding) of the echo ceiling
    tx = beamforming.assemble_tx_coeffs(sol, ch, aux, cfg, lt)
    kkt = []
    for frac in (0.01, 0.9):
        b0 = frac * tx.p_bs * la.norm(tx.d) ** 2
        c = dataclasses.replace(tx, b0=b0)
        w, info = beamforming.solve_tx(c)
        mu, nu = info["mu"], info["nu"]
        a = c.s_mat + mu * np.eye(cfg.n_tx) - nu * np.outer(c.d, c.d.conj())
        value, power, echo = (beamforming.tx_objective(c, w), float(np.sum(np.abs(w) ** 2)),
                              beamforming.radar_power(c, w))
        scale = max(1.0, abs(value))
        kkt += [la.norm(w[1:] @ a.T - c.q) / la.norm(c.q), la.norm(a @ w[0]), -mu, -nu,
                power / c.p_bs - 1.0, 1.0 - echo / b0,
                abs(mu * (c.p_bs - power)) / scale, abs(nu * (echo - b0)) / scale,
                abs(info["dual"] - value) / scale]
    check("transmit step KKT", max(kkt) <= 1e-9)

    # KKT of the power/compute step, sensing budget slack (2x) then binding
    # (0.5x the unconstrained interference): energy active, interior
    # stationarity b6 / (2 sqrt p) = lin + mu b9 + nu T with nu from the
    # f-condition, mu >= 0 and complementary slackness. The uplink is idle at
    # this start, so b6 is set to put each user's unconstrained optimum inside
    # (0, E/T).
    pc = powercomp.assemble_power_coeffs(sol, ch, aux, cfg, lt)
    t, zeta, e_max = cfg.coherence_time_s, cfg.zeta, cfg.e_max_array()
    f_coef = 1.0 / (cfg.eps_array() * cfg.bandwidth_hz)
    p_free = e_max / t * np.linspace(0.3, 0.6, cfg.n_cp)
    f_free = ((e_max - t * p_free) / (t * zeta)) ** (1 / 3)
    pc = dataclasses.replace(pc, b6=2 * np.sqrt(p_free) * (pc.lin + f_coef / (3 * zeta * f_free ** 2)))
    kkt, comp_slack, mus, rescaled = [], [], [], []
    for frac in (2.0, 0.5):
        c = dataclasses.replace(pc, c8=frac * float(p_free @ pc.b9))
        p, f, info = powercomp.solve_power_compute(c, cfg)
        # b9 and c8 in other units must leave p and f bit-equal
        for scale in (2.0 ** 20, 2.0 ** -20):
            p2, f2, _ = powercomp.solve_power_compute(
                dataclasses.replace(c, b9=c.b9 * scale, c8=c.c8 * scale), cfg)
            rescaled.append(p2.tobytes() == p.tobytes() and f2.tobytes() == f.tobytes())
        mu, load = info["mu"], float(p @ c.b9)
        grad = c.b6 / (2 * np.sqrt(p))
        nu_t = f_coef / (3 * zeta * f ** 2)
        kkt += [np.max(np.abs(t * p + t * zeta * f ** 3 - e_max) / e_max),
                np.max(np.abs(grad - c.lin - mu * c.b9 - nu_t) / grad), -mu, load / c.c8 - 1.0]
        value = powercomp.power_objective(c, cfg, p, f)
        comp_slack.append(abs(mu * (c.c8 - load)) / max(1.0, abs(value)))
        mus.append(mu)
    check("power step KKT", bool(np.max(kkt) <= 1e-9 and max(comp_slack) <= 1e-9
                                 and mus[0] == 0.0 and mus[1] > 0.0))
    check("power step unit rescale", all(rescaled))

    results = {s: orchestrator.run(cfg, ch, RunOptions(scheme=s, max_iter=8))
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


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdiscc",
                                     description="IRS-assisted FD sensing/communication/computing resource allocation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one scenario")
    p_run.add_argument("--config", default="default",
                       help="path to a JSON config, or 'default'")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--scheme", default="proposed", choices=SCHEMES)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--max-iter", type=_positive_int, default=50)
    p_run.add_argument("--paper-scale", action="store_true",
                       help="use the full-scale IRS (M=50, M_a=10)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec file")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--config", default="default")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=_positive_int, default=1,
                         help="worker processes (at most one per cell)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_self = sub.add_parser("selftest", help="quick invariant suite")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
