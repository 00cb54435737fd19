"""Outer block-coordinate loop: feasible initialization, then the per-iteration
cycle auxiliaries -> reflection phases (ADMM) -> auxiliaries -> transmit beams
(closed-form dual) -> receive combiners (closed form) -> power/compute (dual
root-find), then the cache placement.

Every block carries a monotonicity safeguard, so the recorded surrogate
objective never decreases across accepted iterations; a block whose
subproblem is infeasible keeps the incumbent and flags the call in its info.

A run has two parts. The *radio solve* (``solve_radio``) is the block loop
above; it never reads the cache placement, ``cfg.cache`` or a scheme's cache
rule, because the placement enters the utility only through the backhaul cost
``D_total``, a term no block optimizes. *Pricing* (``price``), the one place
a run charges a placement, then places the cache by the scheme's rule and
charges its backhaul cost and cache residual:
``utility = sum_bits - d_total`` on the final metrics and on every trace row.
So ``proposed``, ``random-caching`` and ``no-caching`` share one radio
problem (``RADIO_MODE``, ``radio_key``), which ``harness.evaluate_baseline``
solves once for the sweep cells that share it and prices for each. Each
solution state's ``sysmodel.link_terms`` is computed once and shared by the
blocks that read that state, and each phase vector's composite channels
(``sysmodel.Composite``) once and shared by every ``link_terms`` at it: one
per start candidate in ``initialize``, whose kept one serves the loop's start,
then in the loop one per phase vector the phase block returns that is not the
incoming one (see ``solve_radio``).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields, replace
from operator import attrgetter

import numpy as np

from . import beamforming, cacheopt, phaseadmm, powercomp, sysmodel, wmmse
from .channels import ChannelSet
from .config import ConfigError, SystemConfig, check_field_kinds
from .sysmodel import (Composite, Metrics, SensingInfeasible, Solution,
                       composite_channels, link_terms, residuals, utility)

SCHEMES = ("proposed", "full-offloading", "fixed-phase", "hd",
           "random-caching", "no-caching")

# the radio problem each scheme solves: the caching baselines differ from
# ``proposed`` only in the placement, which the radio solve does not read
RADIO_MODE = {s: s for s in SCHEMES} | {"random-caching": "proposed",
                                        "no-caching": "proposed"}

CONVERGED = "converged"
MAX_ITER_STATUS = "max-iter"
INFEASIBLE_SENSING = "infeasible-sensing"

# converged after CONV_WINDOW iterations in a row of relative gain < CONV_TOL
CONV_TOL, CONV_WINDOW = 1e-4, 3


@dataclass(frozen=True)
class RunOptions:
    scheme: str = "proposed"
    max_iter: int = 50

    def __post_init__(self):
        check_field_kinds(self)
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    objective: float        # surrogate BCA objective, log2 units per channel use
    utility: float          # bits; sum_bits until ``price`` charges the placement
    res_power: float
    res_radar: float
    res_modulus: float
    res_energy: float
    res_cache: float        # NaN until ``price`` charges the placement
    wall_ms: float          # since the radio solve's first iteration began; cells
                            # that share one solve report its times


@dataclass(frozen=True)
class RadioSolve:
    """Result of the block-coordinate loop alone, which reads no placement:
    ``solution.e`` is the empty ``NO_PLACEMENT``, as is every start's, and
    ``metrics`` carry ``d_total = 0`` (utility equals sum_bits) until
    ``price`` charges a placement."""

    ch: ChannelSet          # the channel set the loop ran on
    solution: Solution
    metrics: Metrics
    rows: tuple             # TraceRow per iteration, placement not yet charged
    status: str


@dataclass(frozen=True)
class RunResult:
    solution: Solution
    metrics: Metrics
    trace: tuple
    status: str
    scheme: str
    iterations: int


NO_PLACEMENT = np.zeros(0)
NO_PLACEMENT.flags.writeable = False


def _mrt_rows(comp_h: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(comp_h, axis=1, keepdims=True)
    return np.divide(comp_h.conj(), norm, out=np.zeros_like(comp_h), where=norm > 0)


def fixed_phase_heuristic(ch: ChannelSet, cfg: SystemConfig) -> np.ndarray:
    """Phases aligning the cascaded link of the strongest CM-UE under its
    matched-filter beam; all-ones when there are no CM-UEs."""
    m = cfg.m_passive
    if ch.h_pu.shape[0] == 0:
        return np.ones(m, complex)
    k_star = int(np.argmax(np.linalg.norm(ch.h_pu, axis=1)))
    h_flat = ch.h_pu[k_star].conj() @ ch.g_t
    w_mrt = h_flat.conj() / np.linalg.norm(h_flat)
    cascade = ch.h_pu[k_star].conj() * (ch.g_t @ w_mrt)
    return np.exp(-1j * np.angle(cascade))


def echo_aligned_phases(ch: ChannelSet) -> np.ndarray:
    """Phases that cohere the strongest transmit column through the target
    path (feasibility fallback for tight sensing thresholds)."""
    cascade = ch.a_passive.conj()[:, None] * ch.g_t   # rows of a_p^H diag(.) G_t
    j_star = int(np.argmax(np.abs(cascade).sum(axis=0)))
    return np.exp(-1j * np.angle(cascade[:, j_star]))


def _start_for_phi(cfg: SystemConfig, ch: ChannelSet, comp: Composite) -> Solution | None:
    """Feasible start at the phases ``comp.phi``, given with their composite
    channels ``comp``, or None if the sensing threshold is out of reach there.
    It carries no cache placement (``NO_PLACEMENT``).

    The power split between the sensing beam (along conj(r), r the echo row)
    and the matched-filter user beams is the smallest share meeting twice the
    sensing floor (margin for uplink power), solved exactly from the linear
    echo-vs-share law; user beams always keep strictly positive power so the
    surrogate gradients never vanish."""
    k_n, l_n = cfg.n_cm, cfg.n_cp
    floor0 = cfg.gamma_tar_linear * cfg.noise_irs_watt  # radar floor with the uplink silent
    r = comp.r
    gain = float(np.linalg.norm(r))
    ceiling = cfg.p_bs_watt * gain ** 2             # all power on the echo direction
    if ceiling < floor0 * (1.0 + 1e-12):
        return None
    radar_dir = r.conj() / gain
    mrt = _mrt_rows(comp.h)

    def beams(share0: float) -> np.ndarray:
        w = np.zeros((k_n + 1, cfg.n_tx), complex)
        w[0] = radar_dir * np.sqrt(share0 * cfg.p_bs_watt)
        if k_n:
            w[1:] = mrt * np.sqrt((1.0 - share0) * cfg.p_bs_watt / k_n)
        return w

    def echo(w: np.ndarray) -> float:
        return float((np.abs(w @ r) ** 2).sum())

    if k_n == 0:
        share = 1.0
    else:
        base = echo(beams(0.0))
        target = min(2.0 * floor0, ceiling * (1.0 - 1e-9))
        target = max(target, floor0 * (1.0 + 1e-9))
        if base >= target:
            share_needed = 0.0
        else:       # ceiling - base > ceiling - target >= 1e-9 ceiling > 0
            share_needed = (target - base) / (ceiling - base)
        share = min(max(1.0 / (k_n + 1), share_needed), 1.0 - 1e-6)
    w = beams(share)
    echo_val = echo(w)
    if echo_val < floor0:
        return None

    e_max, t = cfg.e_max_array(), cfg.coherence_time_s
    # unit-vector combiners, reused cyclically when n_cp > n_rx
    u = np.eye(cfg.n_rx, dtype=complex)[np.arange(l_n) % cfg.n_rx]
    if l_n:
        budget = max(0.0, echo_val / cfg.gamma_tar_linear - cfg.noise_irs_watt)
        p_uni = budget / float(ch.g_au_norm2.sum()) * (1.0 - 1e-9)
        p = np.minimum(e_max / (2.0 * t), p_uni)
        f = ((e_max - t * p) / (t * cfg.zeta)) ** (1.0 / 3.0)
    else:
        p, f = np.zeros(0), np.zeros(0)

    return Solution(w=w, u=u, phi=comp.phi, f=f, p=p, e=NO_PLACEMENT)


def initialize(cfg: SystemConfig, ch: ChannelSet, rng: np.random.Generator,
               phi: np.ndarray | None = None) -> tuple[Solution, Composite]:
    """Feasible start, with no cache placement (``NO_PLACEMENT``), and the
    composite channels at its phases.  With ``phi`` pinned (fixed-phase
    baseline) only that phase vector is tried; otherwise the best of the max-gain
    alignment, the echo alignment and a random draw is kept, scored by initial
    sum bits. Each candidate's composite channels are built once and serve its
    start, its score and, for the kept start, the caller's first ``link_terms``.

    Candidates are scored under FD for every radio mode, ``hd`` included: the
    score only ranks starts, and scoring ``hd`` ones under HD picked another start
    on 5 of 20 desk and paper seeds (0-9, max_iter 50), each of which then ended
    25% to 51% lower in ``hd`` sum_bits (mean -5.5% on desk, -13.4% on paper).
    Raises SensingInfeasible when no candidate reaches the threshold."""
    if phi is not None:
        candidates = [np.array(phi, complex)]
    else:
        candidates = [
            fixed_phase_heuristic(ch, cfg),
            echo_aligned_phases(ch),
            np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, cfg.m_passive)),
        ]
    best, best_score = None, -np.inf
    for cand in candidates:
        comp = composite_channels(ch, cand)
        sol = _start_for_phi(cfg, ch, comp)
        if sol is None:
            continue
        score = utility(sol, ch, cfg, lt=link_terms(sol, ch, cfg, comp=comp),
                        d_total=0.0).sum_bits
        if score > best_score:
            best, best_score = (sol, comp), score
    if best is None:
        raise SensingInfeasible(
            f"sensing threshold {cfg.gamma_tar_linear * cfg.noise_irs_watt:.3e} "
            "unreachable at full power for every candidate phase start")
    return best


def _cache_for_scheme(cfg: SystemConfig, scheme: str,
                      rng: np.random.Generator) -> tuple[np.ndarray, float, float]:
    """The scheme's placement, its priced uncached mass
    (``cacheopt.uncached_mass``) and its cache residual, each from the rule
    that made it: the knapsack's from its memo, the empty placement's from
    the catalogue (residual -F), and a random draw's from passes over the
    draw."""
    cache = cfg.cache
    if scheme == "no-caching":
        cat = cacheopt.catalogue(cache)
        # 0.0 - F, as the dense 0.0 - F: -F would read -0.0 at F = 0
        return cat.empty, cat.empty_mass, 0.0 - cache.capacity
    if scheme == "random-caching":
        e = cacheopt.random_caching(cache, rng)
        return e, cacheopt.uncached_mass(e, cache), cacheopt.cache_residual(e, cache)
    sol = cacheopt.solve_caching(cache)
    return sol.e, sol.objective, sol.residual


_radio_fields = attrgetter(*(f.name for f in fields(SystemConfig) if f.name != "cache"))


def radio_key(cfg: SystemConfig, scheme: str, max_iter: int) -> tuple:
    """Cells with equal keys solve the same radio problem: the config's fields
    but its cache, the scheme's radio mode and the iteration cap."""
    return _radio_fields(cfg), RADIO_MODE[scheme], max_iter


def solve_radio(cfg: SystemConfig, ch: ChannelSet, mode: str, max_iter: int) -> RadioSolve:
    """Initialization and the block-coordinate loop of one radio mode (a scheme
    of ``RADIO_MODE``'s values), without the cache placement.

    The mode's flags each enter at one place: ``hd`` in ``link_terms``, whose
    record carries it to every block, ``fixed_phase`` here (no phase block)
    and ``force_f_zero`` in ``optimize_power``. Each solution state gets one
    ``link_terms``, which the blocks take without recomputing: the one at the
    start of an iteration serves the auxiliaries and the phase block; the one
    after the phase block serves the auxiliaries, the transmit block and (by
    its composite channels and mode, which the beams do not change) the
    receive block; the one after the receive block serves the power block;
    the one at the end serves the BCA objective and the metrics. That makes
    4 per iteration, 3 with fixed phases or when the phase block returns the
    incoming array ``sol.phi`` itself (a revert, or an infeasible entry or
    step), for then the state after it is the state before it. Each ``link_terms`` is
    handed the last one's composite channels, the first one those of the
    start from ``initialize``, which it reuses while the phases are that same
    array: so the loop builds one composite per new phase vector and none for
    its start. The final metrics are those of the last iteration, whose
    solution is the returned one.
    """
    hd = mode == "hd"
    fixed_phase = mode == "fixed-phase"
    force_f_zero = mode == "full-offloading"
    rng_init = np.random.default_rng([cfg.seed, 101])
    # the fixed-phase baseline pins its heuristic phases; other modes let
    # the initializer pick the best candidate start
    phi0 = fixed_phase_heuristic(ch, cfg) if fixed_phase else None
    try:
        sol, comp = initialize(cfg, ch, rng_init, phi=phi0)
    except SensingInfeasible:
        sol = Solution(w=np.zeros((cfg.n_cm + 1, cfg.n_tx), complex),
                       u=np.zeros((cfg.n_cp, cfg.n_rx), complex),
                       phi=np.ones(cfg.m_passive, complex),
                       f=np.zeros(cfg.n_cp), p=np.zeros(cfg.n_cp), e=NO_PLACEMENT)
        return RadioSolve(ch, sol, utility(sol, ch, cfg, hd, d_total=0.0), (),
                          INFEASIBLE_SENSING)
    if force_f_zero:
        sol = sol.copy_with(f=np.zeros(cfg.n_cp))

    rows: list[TraceRow] = []
    status = MAX_ITER_STATUS
    slow_count = 0
    t0 = time.perf_counter()

    for n in range(1, max_iter + 1):
        # combiner scale is immaterial (SINRs are u-scale invariant) but must
        # stay bounded: the closed-form u grows like 1/sqrt(p) as p shrinks
        if sol.u.size:
            norms = np.linalg.norm(sol.u, axis=1, keepdims=True)
            sol = sol.copy_with(u=np.where(norms > 0, sol.u / np.maximum(norms, 1e-300), sol.u))
        lt = link_terms(sol, ch, cfg, hd, comp)
        aux = wmmse.update_aux(lt)

        if not fixed_phase and cfg.n_cm + cfg.n_cp > 0:
            phi_new, _ = phaseadmm.optimize_phase(sol, ch, aux, cfg, lt)
            if phi_new is not sol.phi:
                sol = sol.copy_with(phi=phi_new)
                # re-tighten the surrogate at the new phases: with the exact transmit
                # step, beams fitted to a stale surrogate made phases and beams creep
                # (desk seed 9 took 77 iterations instead of 41)
                lt = link_terms(sol, ch, cfg, hd)
                aux = wmmse.update_aux(lt)

        w_new, _ = beamforming.optimize_tx(sol, ch, aux, cfg, lt)
        sol = sol.copy_with(w=w_new)

        if cfg.n_cp:
            sol = sol.copy_with(u=beamforming.optimize_rx(sol, ch, aux, cfg, lt))
            p_new, f_new, _ = powercomp.optimize_power(
                sol, ch, aux, cfg, link_terms(sol, ch, cfg, hd, lt.comp), force_f_zero)
            sol = sol.copy_with(p=p_new, f=f_new)

        lt = link_terms(sol, ch, cfg, hd, lt.comp)
        comp = lt.comp
        obj = wmmse.bca_objective(sol, cfg, aux, lt)
        met = utility(sol, ch, cfg, lt=lt, d_total=0.0)
        res = residuals(sol, cfg, lt)
        rows.append(TraceRow(n, obj, float(met.sum_bits), res["power"], res["radar"],
                             res["modulus"], res["energy"], np.nan,
                             (time.perf_counter() - t0) * 1e3))
        if n > 1:
            prev_obj = rows[-2].objective
            rel = (obj - prev_obj) / max(abs(prev_obj), 1e-12)
            slow_count = slow_count + 1 if rel < CONV_TOL else 0
            if slow_count >= CONV_WINDOW:
                status = CONVERGED
                break
        if cfg.n_cm + cfg.n_cp == 0:
            status = CONVERGED
            break

    return RadioSolve(ch, sol, met, tuple(rows), status)


def _with_own_arrays(record, **changes):
    """A copy of a frozen record with ``changes``, whose other array fields
    are copies too."""
    own = {k: v.copy() for k, v in vars(record).items() if isinstance(v, np.ndarray)}
    return replace(record, **(own | changes))


def price(cfg: SystemConfig, radio: RadioSolve, scheme: str) -> RunResult:
    """The scheme's cache placement on a radio solve: its backhaul cost and
    cache residual are computed once and charged to the final metrics and to
    every trace row, as ``utility = sum_bits - d_total``. The placement comes
    with its uncached mass and residual (``_cache_for_scheme``), so pricing a
    knapsack or empty placement makes no pass over the catalogue. The result
    owns copies of the solve's arrays, so a solve may be priced any number of
    times; results share only the read-only knapsack and empty placements."""
    e, mass, res_cache = _cache_for_scheme(cfg, scheme, np.random.default_rng([cfg.seed, 151]))
    d_total = sysmodel.backhaul_cost(e, cfg.cache, cfg.coherence_time_s, cfg.n_cp, mass)
    met = radio.metrics
    trace = tuple(replace(r, utility=r.utility - d_total, res_cache=res_cache)
                  for r in radio.rows)
    return RunResult(_with_own_arrays(radio.solution, e=e),
                     _with_own_arrays(met, d_total=d_total, utility=met.sum_bits - d_total),
                     trace, radio.status, scheme, len(trace))


def run(cfg: SystemConfig, ch: ChannelSet, opts: RunOptions = RunOptions()) -> RunResult:
    """Full solve of one scenario under the given scheme: the radio solve of
    the scheme's radio mode (``solve_radio``), then the scheme's cache
    placement priced on it (``price``). Cells that share a radio solve get it
    from ``harness.evaluate_baseline`` instead."""
    return price(cfg, solve_radio(cfg, ch, RADIO_MODE[opts.scheme], opts.max_iter), opts.scheme)


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def result_to_json(result: RunResult) -> str:
    """Structured text dump of a run (solution, metrics, trace, status)."""
    payload = {
        "status": result.status,
        "scheme": result.scheme,
        "iterations": result.iterations,
        "solution": _to_jsonable(vars(result.solution)),
        "metrics": _to_jsonable(vars(result.metrics)),
        "trace": [_to_jsonable(asdict(row)) for row in result.trace],
    }
    return json.dumps(payload, indent=2)
