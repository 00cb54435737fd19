import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fdiscc import cacheopt, orchestrator, phaseadmm, sysmodel, wmmse
from fdiscc.channels import draw_channels
from fdiscc.config import CacheConfig, desk_config, paper_config
from fdiscc.harness import evaluate_baseline
from fdiscc.orchestrator import (CONVERGED, INFEASIBLE_SENSING, NO_PLACEMENT, SCHEMES,
                                 RunOptions, bca_step, echo_aligned_phases,
                                 fixed_phase_heuristic, initialize, price, result_to_json, run,
                                 solve_radio)
from fdiscc.sysmodel import SensingInfeasible, link_terms, residuals, utility


@pytest.fixture(scope="module")
def desk():
    cfg = desk_config(seed=3)
    return cfg, draw_channels(cfg)


@pytest.fixture(scope="module")
def desk_result(desk):
    cfg, ch = desk
    return run(cfg, ch)


class TestInitialize:
    def test_deterministic(self, desk):
        cfg, ch = desk
        a, _ = initialize(cfg, ch, np.random.default_rng(1))
        b, _ = initialize(cfg, ch, np.random.default_rng(1))
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.p, b.p)

    def test_feasible_on_many_seeds(self):
        for seed in range(40):
            cfg = desk_config(seed=seed)
            ch = draw_channels(cfg)
            sol, _ = initialize(cfg, ch, np.random.default_rng([seed, 101]))
            res = residuals(sol, cfg, link_terms(sol, ch, cfg))
            assert res["power"] <= 1e-9
            assert res["radar"] <= 1e-9
            assert res["modulus"] <= 1e-9
            assert res["energy"] <= 1e-9

    def test_zero_threshold_always_feasible(self, desk):
        cfg, ch = desk
        cfg0 = replace(cfg, gamma_tar_linear=1e-30)
        sol, _ = initialize(cfg0, ch, np.random.default_rng(0))
        assert link_terms(sol, ch, cfg0).r_tar >= 1e-30

    def test_impossible_threshold_raises(self, desk):
        cfg, ch = desk
        cfg_hi = replace(cfg, gamma_tar_linear=1e12)
        with pytest.raises(SensingInfeasible):
            initialize(cfg_hi, ch, np.random.default_rng(0))

    def test_user_beam_on_the_echo_ceiling(self):
        # one CM-UE whose composite channel is the echo row itself: its
        # matched-filter beam alone reaches the ceiling (base = ceiling), so
        # the sensing beam keeps only the minimum share 1 / (K + 1)
        from fdiscc import orchestrator
        cfg = desk_config(n_cm=1, seed=3)
        ch = draw_channels(cfg)
        phi = echo_aligned_phases(ch)
        comp = sysmodel.composite_channels(ch, phi)
        aligned = replace(comp, h=comp.r[None, :].copy())
        sol = orchestrator._start_for_phi(cfg, ch, aligned)
        ceiling = cfg.p_bs_watt * np.linalg.norm(comp.r) ** 2
        base = float(np.abs(orchestrator._mrt_rows(aligned.h)[0] @ comp.r) ** 2) * cfg.p_bs_watt
        assert abs(base - ceiling) <= 4e-16 * ceiling
        assert np.sum(np.abs(sol.w[0]) ** 2) == pytest.approx(cfg.p_bs_watt / 2, rel=1e-12)
        assert np.sum(np.abs(sol.w @ comp.r) ** 2) >= cfg.gamma_tar_linear * cfg.noise_irs_watt

    def test_start_solves_no_knapsack(self, desk, monkeypatch):
        # a start carries no placement: pricing alone places the cache
        def solve_caching(cache):
            raise AssertionError("a start solved the cache knapsack")

        cfg, ch = desk
        monkeypatch.setattr(cacheopt, "solve_caching", solve_caching)
        sol, _ = initialize(cfg, ch, np.random.default_rng(0))
        assert sol.e is NO_PLACEMENT

    def test_pinned_phases_respected(self, desk):
        cfg, ch = desk
        phi = fixed_phase_heuristic(ch, cfg)
        sol, _ = initialize(cfg, ch, np.random.default_rng(0), phi=phi)
        assert np.array_equal(sol.phi, phi)

    @pytest.mark.parametrize("pinned", [False, True])
    def test_start_comes_with_its_composite(self, desk, pinned):
        # the kept candidate's composite channels, built from the start's own
        # phase array, equal a fresh build bit for bit
        cfg, ch = desk
        phi = fixed_phase_heuristic(ch, cfg) if pinned else None
        sol, comp = initialize(cfg, ch, np.random.default_rng(0), phi=phi)
        assert comp.phi is sol.phi
        with np.printoptions(floatmode="unique", threshold=10**9):
            assert repr(comp) == repr(sysmodel.composite_channels(ch, sol.phi))


class TestRun:
    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            RunOptions(max_iter=max_iter)

    def test_converges_and_monotone(self, desk, desk_result):
        res = desk_result
        assert res.status == CONVERGED
        objs = [row.objective for row in res.trace]
        for a, b in zip(objs, objs[1:]):
            assert b >= a - 1e-8 * abs(a)

    def test_final_feasibility(self, desk, desk_result):
        cfg, ch = desk
        res = desk_result
        sol = res.solution
        assert np.sum(np.abs(sol.w) ** 2) <= cfg.p_bs_watt * (1 + 1e-9)
        assert res.metrics.r_tar >= cfg.gamma_tar_linear * (1 - 1e-6)
        assert np.max(np.abs(np.abs(sol.phi) - 1)) <= 1e-4
        t = cfg.coherence_time_s
        assert np.all(t * sol.p + t * cfg.zeta * sol.f ** 3
                      <= cfg.e_max_array() + 1e-9)
        assert sol.e @ cfg.cache.lengths_array() <= cfg.cache.capacity + 1e-9

    def test_deterministic(self, desk, desk_result):
        cfg, ch = desk
        res2 = run(cfg, ch)
        assert res2.status == desk_result.status
        assert res2.iterations == desk_result.iterations
        assert np.array_equal(res2.solution.w, desk_result.solution.w)
        assert np.array_equal(res2.solution.phi, desk_result.solution.phi)
        assert res2.metrics.utility == desk_result.metrics.utility

    def test_no_users_immediate(self):
        cfg = desk_config(n_cm=0, n_cp=0, seed=1)
        ch = draw_channels(cfg)
        res = run(cfg, ch)
        assert res.status == CONVERGED
        assert res.iterations == 1
        assert res.metrics.sum_bits == 0.0

    def test_longer_budget_stable(self, desk, desk_result):
        cfg, ch = desk
        res2 = run(cfg, ch, RunOptions(max_iter=100))
        a = desk_result.trace[-1].objective
        b = res2.trace[-1].objective
        assert abs(b - a) <= 1e-3 * max(abs(a), 1.0)

    def test_infeasible_sensing_status(self, desk):
        cfg, ch = desk
        cfg_hi = replace(cfg, gamma_tar_linear=1e12)
        res = run(cfg_hi, ch)
        assert res.status == INFEASIBLE_SENSING
        assert res.trace == ()

    def test_more_cp_users_than_receive_antennas(self):
        cfg = desk_config(n_cp=5, seed=0)
        assert cfg.n_cp > cfg.n_rx
        ch = draw_channels(cfg)
        res = run(cfg, ch, RunOptions(max_iter=3))
        assert res.status != INFEASIBLE_SENSING
        lt = link_terms(res.solution, ch, cfg)
        assert max(residuals(res.solution, cfg, lt).values()) <= 1e-6

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cache_solved_at_most_once(self, desk, monkeypatch, scheme):
        calls = []
        solve = cacheopt.solve_caching

        def counted(cache_cfg):
            calls.append(cache_cfg)
            return solve(cache_cfg)

        monkeypatch.setattr(cacheopt, "solve_caching", counted)
        cfg, ch = desk
        run(cfg, ch, RunOptions(scheme=scheme, max_iter=1))
        assert len(calls) <= 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_backhaul_cost_computed_once(self, desk, monkeypatch, scheme):
        # the cache placement is fixed for the run, so is its backhaul cost
        calls = []
        cost = sysmodel.backhaul_cost

        def counted(*args):
            calls.append(args)
            return cost(*args)

        monkeypatch.setattr(sysmodel, "backhaul_cost", counted)
        cfg, ch = desk
        res = run(cfg, ch, RunOptions(scheme=scheme, max_iter=3))
        assert res.iterations >= 1
        assert len(calls) <= 1
        assert res.metrics.d_total == cost(res.solution.e, cfg.cache,
                                           cfg.coherence_time_s, cfg.n_cp)

    def test_link_terms_at_most_four_per_iteration(self, monkeypatch):
        # one LinkTerms per solution state: iteration start, after the phase
        # block (not with fixed phases, nor when it kept the incoming phases),
        # before the power block, iteration end
        from fdiscc import beamforming, orchestrator, phaseadmm, powercomp, wmmse
        calls = {"all": 0, "init": 0, "kept": 0}
        terms = sysmodel.link_terms

        def counted(*args, **kwargs):
            calls["all"] += 1
            return terms(*args, **kwargs)

        for mod in (sysmodel, wmmse, phaseadmm, beamforming, powercomp, orchestrator):
            if hasattr(mod, "link_terms"):
                monkeypatch.setattr(mod, "link_terms", counted)
        init = orchestrator.initialize

        def counted_init(*args, **kwargs):
            before = calls["all"]
            try:
                return init(*args, **kwargs)
            finally:
                calls["init"] += calls["all"] - before

        monkeypatch.setattr(orchestrator, "initialize", counted_init)
        optimize_phase = phaseadmm.optimize_phase

        def counted_phase(sol, *args):
            phi, info = optimize_phase(sol, *args)
            calls["kept"] += info.reverted or info.infeasible
            return phi, info

        monkeypatch.setattr(phaseadmm, "optimize_phase", counted_phase)
        for seed in (1, 2):
            cfg = desk_config(seed=seed)
            ch = draw_channels(cfg)
            for scheme, per_iteration in (("proposed", 4), ("full-offloading", 4),
                                          ("hd", 4), ("fixed-phase", 3)):
                calls.update(all=0, init=0, kept=0)
                res = run(cfg, ch, RunOptions(scheme=scheme))
                assert res.iterations >= 3, (seed, scheme)
                assert calls["all"] - calls["init"] \
                    == per_iteration * res.iterations - calls["kept"], (seed, scheme)


class TestBcaStep:
    @staticmethod
    def start(cfg, ch, mode):
        """The start ``solve_radio`` takes for ``mode``."""
        phi = fixed_phase_heuristic(ch, cfg) if mode == "fixed-phase" else None
        sol, comp = initialize(cfg, ch, np.random.default_rng([cfg.seed, 101]), phi=phi)
        if mode == "full-offloading":
            sol = sol.copy_with(f=np.zeros(cfg.n_cp))
        return sol, comp

    @pytest.mark.parametrize("make", [desk_config, paper_config])
    @pytest.mark.parametrize("mode", ["proposed", "fixed-phase", "full-offloading", "hd"])
    def test_resumed_steps_equal_one_solve(self, make, mode):
        # k steps, then m more from the state they left: the same bytes as
        # one solve of k + m iterations (too few for the stop rule to end it)
        k, m = 2, 1
        cfg = make(seed=1)
        ch = draw_channels(cfg)
        radio = solve_radio(cfg, ch, mode, k + m)
        assert len(radio.rows) == k + m

        def steps(sol, comp, n):
            objectives = []
            for _ in range(n):
                sol, lt, aux = bca_step(sol, comp, ch, cfg, mode)
                comp = lt.comp
                met = utility(sol, ch, cfg, lt=lt, d_total=0.0)
                objectives.append((wmmse.bca_objective(sol, cfg, aux, lt), met.sum_bits))
            return sol, comp, met, objectives

        sol, comp, _, first = steps(*self.start(cfg, ch, mode), k)
        sol, _, met, more = steps(sol, comp, m)
        assert first + more == [(row.objective, row.utility) for row in radio.rows]
        for name, a in vars(radio.solution).items():
            b = getattr(sol, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        with np.printoptions(floatmode="unique", threshold=10**9):
            assert repr(met) == repr(radio.metrics)

    def test_kept_phases_come_from_the_flags(self, desk, monkeypatch):
        # a phase call flagged as reverted keeps the incoming phases, whatever
        # array it returns, and the step re-tightens nothing: 3 link terms a step
        cfg, ch = desk
        start, _ = self.start(cfg, ch, "proposed")
        calls = {"all": 0, "init": 0}
        terms, init = orchestrator.link_terms, orchestrator.initialize

        def counted_terms(*args, **kwargs):
            calls["all"] += 1
            return terms(*args, **kwargs)

        def counted_init(*args, **kwargs):
            out = init(*args, **kwargs)
            calls["init"] = calls["all"]
            return out

        monkeypatch.setattr(orchestrator, "link_terms", counted_terms)
        monkeypatch.setattr(orchestrator, "initialize", counted_init)
        monkeypatch.setattr(phaseadmm, "optimize_phase",
                            lambda sol, *args: (sol.phi.copy(), phaseadmm.PhaseInfo(reverted=True)))
        radio = solve_radio(cfg, ch, "proposed", 4)
        assert np.array_equal(radio.solution.phi, start.phi)
        assert calls["all"] - calls["init"] == 3 * len(radio.rows)
        sol, comp = self.start(cfg, ch, "proposed")
        new, lt, _ = bca_step(sol, comp, ch, cfg, "proposed")
        assert new.phi is sol.phi and lt.comp is comp


class TestWarmRecords:
    def test_second_run_on_a_warm_channel_set_equal(self):
        # the channel set's constants, computed by the first run, serve the
        # second: both give the same bits
        cfg = desk_config(seed=4)
        ch = draw_channels(cfg)
        runs = [run(cfg, ch, RunOptions(max_iter=8)) for _ in range(2)]
        assert "target_row" in vars(ch)
        with np.printoptions(floatmode="unique", threshold=10**9):
            a, b = (repr((r.status, r.metrics, r.solution,
                          [replace(row, wall_ms=0.0) for row in r.trace])) for r in runs)
        assert a == b


class TestBaselines:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            RunOptions(scheme="nonsense")

    def test_no_caching_cost(self, desk):
        cfg, ch = desk
        res = evaluate_baseline(cfg, ch, "no-caching", max_iter=4)
        r0 = cfg.cache.rate_array(cfg.n_cp)
        expected = cfg.coherence_time_s * float(r0.sum())   # sum_v c_v = 1
        assert res.metrics.d_total == expected
        assert np.allclose(res.solution.e, 0.0)

    def test_fixed_phase_never_moves(self, desk):
        cfg, ch = desk
        res = evaluate_baseline(cfg, ch, "fixed-phase", max_iter=6)
        assert np.array_equal(res.solution.phi, fixed_phase_heuristic(ch, cfg))

    def test_full_offloading_zero_compute(self, desk):
        cfg, ch = desk
        res = evaluate_baseline(cfg, ch, "full-offloading", max_iter=6)
        assert np.allclose(res.solution.f, 0.0)
        assert np.allclose(res.metrics.rate_loc, 0.0)

    def test_random_caching_within_capacity(self, desk):
        cfg, ch = desk
        res = evaluate_baseline(cfg, ch, "random-caching", max_iter=4)
        assert res.solution.e @ cfg.cache.lengths_array() <= cfg.cache.capacity

    def test_hd_mode_runs(self, desk):
        cfg, ch = desk
        res = evaluate_baseline(cfg, ch, "hd", max_iter=6)
        objs = [row.objective for row in res.trace]
        for a, b in zip(objs, objs[1:]):
            assert b >= a - 1e-8 * abs(a)

    def test_caching_scheme_ordering(self, desk):
        cfg, ch = desk
        util = {}
        for scheme in ("proposed", "random-caching", "no-caching"):
            util[scheme] = evaluate_baseline(cfg, ch, scheme).metrics.utility
        assert util["proposed"] >= util["random-caching"] >= util["no-caching"]


class TestPricing:
    CACHING = ("proposed", "random-caching", "no-caching")

    @pytest.mark.parametrize("scheme", CACHING)
    def test_per_file_prices_match_dense_cost(self, scheme):
        # per-file prices take the dense sum T sum_v rho_v (1 - e_v) c_v sum_l R_0l
        rng = np.random.default_rng(21)
        v = 400
        prices = tuple(rng.uniform(0.0, 3.0, v).tolist())
        cache = CacheConfig(n_files=v, capacity=30 * 1e5, skew=0.9, backhaul_price=prices,
                            lengths=tuple(rng.uniform(5e4, 2e5, v).tolist()),
                            backhaul_rate=(1e8, 3e7))
        cfg = desk_config(cache=cache, seed=2)
        res = run(cfg, draw_channels(cfg), RunOptions(scheme=scheme, max_iter=1))
        c = cacheopt.zipf_popularity(v, cache.skew)
        dense = (cfg.coherence_time_s * np.sum(np.array(prices) * (1.0 - res.solution.e) * c)
                 * (1e8 + 3e7))
        assert res.metrics.d_total == pytest.approx(dense, rel=1e-12, abs=0.0)
        assert res.metrics.utility == res.metrics.sum_bits - res.metrics.d_total
        # every trace row carries the placement's residual and the final row
        # the final utility
        res_cache = cacheopt.cache_residual(res.solution.e, cache)
        assert all(row.res_cache == res_cache for row in res.trace)
        assert res.trace[-1].utility == res.metrics.utility

    def test_equal_by_repr_with_and_without_clearing(self, desk):
        cfg, ch = desk
        cfgs = [cfg, replace(cfg, cache=replace(cfg.cache, skew=0.7)), cfg]

        def outcome(c, scheme):
            res = run(c, ch, RunOptions(scheme=scheme, max_iter=2))
            trace = [replace(row, wall_ms=0.0) for row in res.trace]
            return repr((res.metrics, trace, res.solution.e))

        kept = [outcome(c, s) for c in cfgs for s in self.CACHING]
        cleared = []
        for c in cfgs:
            for s in self.CACHING:
                cacheopt.solve_caching.cache_clear()
                cacheopt.catalogue.cache_clear()
                cleared.append(outcome(c, s))
        assert kept == cleared

    def test_costs_ordered_under_per_file_prices(self, desk):
        # the knapsack minimizes the priced mass it is charged, so no random
        # draw costs less, and no placement costs more than caching nothing
        cfg, ch = desk
        radio = solve_radio(cfg, ch, "proposed", 1)
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = 50
            prices = rng.uniform(0.0, 3.0, v)
            prices[rng.random(v) < 0.2] = 0.0
            lengths = rng.uniform(5e4, 2e5, v)
            cache = CacheConfig(n_files=v, capacity=float(rng.uniform(0.05, 0.5) * lengths.sum()),
                                lengths=tuple(lengths.tolist()),
                                backhaul_price=tuple(prices.tolist()),
                                skew=float(rng.uniform(0.0, 1.5)), backhaul_rate=(1e8, 3e7))
            priced = replace(cfg, cache=cache)
            d = [price(priced, radio, s).metrics.d_total for s in self.CACHING]
            assert d[0] <= d[1] <= d[2], d

    @pytest.mark.parametrize("prices", ["uniform", "per-file"])
    def test_knapsack_and_empty_placements_priced_without_catalogue_arrays(self, prices):
        # after one warm-up, the knapsack's price comes from its memo and the
        # empty placement's from the catalogue: no array of the catalogue's size is built
        rho = 1.0 if prices == "uniform" else tuple(np.linspace(0.0, 2.0, 100_000).tolist())
        cache = CacheConfig(n_files=100_000, capacity=2000 * 1e5, lengths=1e5, skew=1.1,
                            backhaul_price=rho)
        cfg = desk_config(cache=cache, seed=1)
        radio = solve_radio(cfg, draw_channels(cfg), "proposed", 1)
        for scheme in ("proposed", "no-caching"):
            price(cfg, radio, scheme)
        tracemalloc.start()
        try:
            for scheme in ("proposed", "no-caching"):
                price(cfg, radio, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cache.n_files


class TestSerialization:
    def test_result_json_roundtrips(self, desk_result):
        payload = json.loads(result_to_json(desk_result))
        assert payload["status"] == desk_result.status
        assert payload["iterations"] == desk_result.iterations
        w = payload["solution"]["w"]
        back = np.array(w["re"]) + 1j * np.array(w["im"])
        assert np.allclose(back, desk_result.solution.w)
        assert len(payload["trace"]) == len(desk_result.trace)
