from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdiscc.cacheopt import (CacheSolution, catalogue, first_k_stable, random_caching,
                             solve_caching, uncached_mass, zipf_popularity)
from fdiscc.config import CacheConfig


class TestZipf:
    def test_uniform_at_zero_skew(self):
        assert np.allclose(zipf_popularity(2, 0.0), [0.5, 0.5])

    def test_single_file(self):
        assert np.allclose(zipf_popularity(1, 2.3), [1.0])

    def test_hand_values(self):
        # 1 + 1/2 + 1/3 = 11/6
        assert np.allclose(zipf_popularity(3, 1.0), [6 / 11, 3 / 11, 2 / 11])

    @given(st.integers(1, 200), st.floats(0.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_normalized_and_nonincreasing(self, v, eps):
        c = zipf_popularity(v, eps)
        assert c.sum() == pytest.approx(1.0)
        assert np.all(np.diff(c) <= 1e-15)

    def test_weights_cached_read_only(self):
        # under a uniform or all-zero price the priced weights are the Zipf
        # weights themselves, kept once per cache config
        for price in (1.0, 2.5, (0.0,) * 50):
            cfg = CacheConfig(n_files=50, skew=1.1, backhaul_price=price)
            w = catalogue(cfg).sw
            assert catalogue(replace(cfg)).sw is w
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 2.0
            assert np.array_equal(w, np.arange(1, 51, dtype=float) ** -1.1)


def lp_vertex_oracle(c, q, cap, chunk=1 << 14):
    """Exhaustive vertex enumeration of max c@e s.t. q@e <= cap, 0<=e<=1.

    Vertices have at most one fractional coordinate: enumerate every subset
    loaded fully plus an optional fractional item.  Bit i of a mask loads item
    i; the subset sums are built by doubling (the masks with bit i set add
    item i to those without it, so each sum adds its items in index order),
    then the masks are scored in chunks."""
    c, q = np.asarray(c, float), np.asarray(q, float)
    v = len(c)
    used, gained = np.zeros(1), np.zeros(1)
    for i in range(v):
        used = np.concatenate([used, used + q[i]])
        gained = np.concatenate([gained, gained + c[i]])
    bits = 1 << np.arange(v)
    best = 0.0
    for start in range(0, 1 << v, chunk):
        masks = np.arange(start, min(start + chunk, 1 << v))
        fits = used[masks] <= cap + 1e-12
        if not fits.any():
            continue
        masks, rest, base = masks[fits], cap - used[masks[fits]], gained[masks[fits]]
        best = max(best, float(base.max()))
        free = ((masks[:, None] & bits) == 0) & (q > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.minimum(1.0, rest[:, None] / q)
        cand = np.where(free, base[:, None] + frac * c, -np.inf)
        best = max(best, float(cand.max()))
    return best


class TestSolveCaching:
    def test_full_capacity_caches_everything(self):
        cfg = CacheConfig(n_files=5, capacity=100.0, lengths=1.0, skew=1.0)
        sol = solve_caching(cfg)
        assert np.allclose(sol.e, 1.0)
        assert sol.objective == pytest.approx(0.0)

    def test_fractional_hand_instance(self):
        cfg = CacheConfig(n_files=3, capacity=3.0, lengths=2.0, skew=1.0)
        sol = solve_caching(cfg)
        assert np.allclose(sol.e, [1.0, 0.5, 0.0])
        assert sol.objective == pytest.approx(0.5 * 3 / 11 + 2 / 11)

    def test_reference_instance_caches_top_ten(self):
        cfg = CacheConfig(n_files=1000, capacity=1e6, lengths=1e5, skew=1.4)
        sol = solve_caching(cfg)
        assert np.allclose(sol.e[:10], 1.0)
        assert np.allclose(sol.e[10:], 0.0)

    def test_zero_capacity(self):
        cfg = CacheConfig(n_files=4, capacity=0.0, lengths=1.0, skew=1.0)
        sol = solve_caching(cfg)
        assert np.allclose(sol.e, 0.0)
        assert sol.objective == pytest.approx(1.0)

    def test_at_most_one_fractional(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = int(rng.integers(1, 15))
            cfg = CacheConfig(n_files=v, capacity=float(rng.uniform(0, v)),
                              lengths=tuple(rng.uniform(0.2, 2.0, v).tolist()),
                              skew=float(rng.uniform(0, 2)))
            e = solve_caching(cfg).e
            fractional = np.sum((e > 1e-12) & (e < 1 - 1e-12))
            assert fractional <= 1

    def test_matches_lp_oracle_random(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            v = int(rng.integers(2, 13))
            q = rng.uniform(0.2, 2.0, v)
            cap = float(rng.uniform(0.0, q.sum()))
            skew = float(rng.uniform(0.0, 2.5))
            cfg = CacheConfig(n_files=v, capacity=cap, lengths=tuple(q.tolist()), skew=skew)
            sol = solve_caching(cfg)
            c = zipf_popularity(v, skew)
            oracle = lp_vertex_oracle(c, q, cap)
            assert 1.0 - sol.objective == pytest.approx(oracle, abs=1e-12)

    def test_matches_lp_oracle_large(self):
        rng = np.random.default_rng(2)
        for trial in range(3):
            v = 20
            q = rng.uniform(0.2, 2.0, v)
            cap = float(rng.uniform(0.0, q.sum()))
            cfg = CacheConfig(n_files=v, capacity=cap, lengths=tuple(q.tolist()), skew=1.1)
            sol = solve_caching(cfg)
            oracle = lp_vertex_oracle(zipf_popularity(v, 1.1), q, cap)
            assert 1.0 - sol.objective == pytest.approx(oracle, abs=1e-12)

    def test_duality_certificate(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            v = int(rng.integers(1, 30))
            cfg = CacheConfig(n_files=v, capacity=float(rng.uniform(0, v)),
                              lengths=tuple(rng.uniform(0.1, 3.0, v).tolist()),
                              skew=float(rng.uniform(0, 2)))
            sol = solve_caching(cfg)
            assert abs(sol.duality_gap) <= 1e-10
            assert sol.dual_price >= 0.0

    def test_objective_nonincreasing_in_capacity(self):
        objectives = []
        for cap in np.linspace(0.0, 12.0, 25):
            cfg = CacheConfig(n_files=10, capacity=float(cap), lengths=1.2, skew=0.9)
            objectives.append(solve_caching(cfg).objective)
        assert np.all(np.diff(objectives) <= 1e-14)

    def test_matches_priced_lp_oracle(self):
        # per-file prices: the knapsack maximizes sum_v rho_v c_v e_v, with
        # zero prices and tied prices and lengths among the instances
        rng = np.random.default_rng(7)
        for trial in range(200):
            v = int(rng.integers(1, 11))
            if trial % 2:
                rho, q = rng.uniform(0.0, 3.0, v), rng.uniform(0.2, 2.0, v)
                rho[rng.random(v) < 0.2] = 0.0
            else:
                rho, q = rng.choice([0.0, 0.5, 1.0, 2.0], v), rng.choice([1.0, 2.0], v)
            cap = float(rng.uniform(0.0, q.sum()))
            cfg = CacheConfig(n_files=v, capacity=cap, lengths=tuple(q.tolist()),
                              backhaul_price=tuple(rho.tolist()), skew=float(rng.uniform(0, 2)))
            sol = solve_caching(cfg)
            c = zipf_popularity(v, cfg.skew)
            assert float(rho * c @ sol.e) == pytest.approx(lp_vertex_oracle(rho * c, q, cap),
                                                           abs=1e-12)
            s = rho / rho.max() if rho.max() > 0.0 else np.ones(v)    # all zero: unpriced
            assert sol.objective == pytest.approx(float(s * c @ (1.0 - sol.e)), abs=1e-12)
            assert abs(sol.duality_gap) <= 1e-10

    @given(st.integers(1, 8), st.floats(0.0, 8.0), st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_greedy_optimal_hypothesis(self, v, cap, skew):
        cfg = CacheConfig(n_files=v, capacity=cap, lengths=1.0, skew=skew)
        sol = solve_caching(cfg)
        oracle = lp_vertex_oracle(zipf_popularity(v, skew), np.ones(v), cap)
        assert 1.0 - sol.objective == pytest.approx(oracle, abs=1e-12)


class TestRandomCaching:
    def test_respects_capacity(self):
        cfg = CacheConfig(n_files=30, capacity=7.0, lengths=2.0, skew=1.2)
        e = random_caching(cfg, np.random.default_rng(0))
        assert e @ cfg.lengths_array() <= cfg.capacity
        assert set(np.unique(e)) <= {0.0, 1.0}

    def test_deterministic_under_seed(self):
        cfg = CacheConfig(n_files=30, capacity=9.0, lengths=2.0, skew=1.2)
        a = random_caching(cfg, np.random.default_rng(5))
        b = random_caching(cfg, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_inclusion_frequencies_match_sequential_law(self):
        # exact law: each placed file is drawn proportionally to c among the
        # unplaced files that still fit; enumerate every draw sequence
        cfg = CacheConfig(n_files=5, capacity=6.0, lengths=(3.0, 1.0, 2.0, 4.0, 2.0),
                          skew=0.9)
        c = zipf_popularity(cfg.n_files, cfg.skew)
        q = cfg.lengths_array()
        exact = np.zeros(cfg.n_files)

        def walk(placed, remaining, prob):
            fits = [v for v in range(cfg.n_files) if v not in placed and q[v] <= remaining]
            if not fits:
                for v in placed:
                    exact[v] += prob
                return
            total = sum(c[v] for v in fits)
            for v in fits:
                walk(placed | {v}, remaining - q[v], prob * c[v] / total)

        walk(frozenset(), cfg.capacity, 1.0)
        n = 40_000
        rng = np.random.default_rng(11)
        freq = sum(random_caching(cfg, rng) for _ in range(n)) / n
        sigma = np.sqrt(exact * (1.0 - exact) / n)
        assert np.all(np.abs(freq - exact) <= 4.0 * sigma + 1e-12)


def _solve_caching_full_sort(cache_cfg):
    """The knapsack as it was with a full stable sort and a Python loop: the
    reference that the selection-based solver must equal."""
    c = zipf_popularity(cache_cfg.n_files, cache_cfg.skew)
    q = cache_cfg.lengths_array()
    cap = float(cache_cfg.capacity)
    order = np.argsort(-c / q, kind="stable")
    e = np.zeros_like(c)
    remaining = cap
    marginal = 0.0
    for v in order:
        if remaining <= 0.0:
            break
        if q[v] <= remaining:
            e[v] = 1.0
            remaining -= q[v]
        else:
            e[v] = remaining / q[v]
            marginal = c[v] / q[v]
            remaining = 0.0
            break
    if remaining > 0.0:
        marginal = 0.0
    elif marginal == 0.0:
        leftover = ~(e >= 1.0)
        marginal = float(np.max(c[leftover] / q[leftover])) if leftover.any() else 0.0
    gained = float(e @ c)
    dual_value = marginal * cap + float(np.maximum(0.0, c - marginal * q).sum())
    return CacheSolution(e=e, objective=uncached_mass(e, cache_cfg),
                         dual_price=marginal, duality_gap=dual_value - gained,
                         residual=float(e @ q - cap))


def _random_caching_full_sort(cache_cfg, rng):
    """Random placement along the fully sorted exponential keys (reference)."""
    c = zipf_popularity(cache_cfg.n_files, cache_cfg.skew)
    q = cache_cfg.lengths_array()
    e = np.zeros_like(c)
    remaining = float(cache_cfg.capacity)
    q_min = float(q.min())
    for v in np.argsort(rng.exponential(size=c.size) / c, kind="stable"):
        if remaining < q_min:
            break
        if q[v] <= remaining:
            e[v] = 1.0
            remaining -= q[v]
    return e


def _selection_instances(n, seed):
    """Catalogues of 1 to 400 files: a shared length, lengths in {1, 2, 3}
    (ties in popularity per byte), and mixed lengths; capacities of zero,
    of a few files, of a random share, and of everything."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        v = int(rng.integers(1, 401))
        kind = i % 3
        if kind == 0:
            lengths = float(rng.choice([1.0, 0.7, 1e5]))
        elif kind == 1:
            lengths = tuple(rng.choice([1.0, 2.0, 3.0], v).tolist())
        else:
            lengths = tuple(rng.uniform(0.1, 5.0, v).tolist())
        q = np.broadcast_to(np.asarray(lengths, float), (v,))
        head = q[:int(rng.integers(1, min(v, 12) + 1))].sum()
        cap = float((0.0, head, rng.uniform(0.0, q.sum()), q.sum(), 2.0 * q.sum())[i % 5])
        skew = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 2.5)]))
        yield CacheConfig(n_files=v, capacity=cap, lengths=lengths, skew=skew), rng


class TestSelection:
    def test_first_k_stable_matches_argsort(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            key = rng.integers(0, 6, n).astype(float)       # many ties
            if rng.random() < 0.5:
                key = key + rng.normal(size=n)
            k = int(rng.integers(0, n + 3))
            assert np.array_equal(first_k_stable(key, k),
                                  np.argsort(key, kind="stable")[:k])

    def test_solve_caching_equals_full_sort(self):
        for cfg, _ in _selection_instances(300, 5):
            got, ref = solve_caching(cfg), _solve_caching_full_sort(cfg)
            assert np.array_equal(got.e, ref.e)
            assert got.objective == ref.objective
            assert got.dual_price == ref.dual_price
            assert got.duality_gap == ref.duality_gap

    def test_random_caching_equals_full_sort(self):
        for cfg, rng in _selection_instances(300, 6):
            seed = int(rng.integers(1 << 31))
            got = random_caching(cfg, np.random.default_rng(seed))
            ref = _random_caching_full_sort(cfg, np.random.default_rng(seed))
            assert np.array_equal(got, ref)

    def test_large_catalogue_equals_full_sort(self):
        cfg = CacheConfig(n_files=100_000, capacity=2000 * 1e5, lengths=1e5, skew=1.1)
        got, ref = solve_caching(cfg), _solve_caching_full_sort(cfg)
        assert np.array_equal(got.e, ref.e) and got.dual_price == ref.dual_price
        assert np.array_equal(random_caching(cfg, np.random.default_rng(9)),
                              _random_caching_full_sort(cfg, np.random.default_rng(9)))

    def test_solve_caching_widens_past_rounding(self):
        # 0.5 // 0.1 == 4.0, yet five sequential loads of 0.1 leave 2.8e-17
        # of capacity, so the greedy loading reaches a sixth file
        cfg = CacheConfig(n_files=10, capacity=0.5, lengths=0.1, skew=1.0)
        got, ref = solve_caching(cfg), _solve_caching_full_sort(cfg)
        assert np.count_nonzero(ref.e) == 6
        assert np.array_equal(got.e, ref.e) and got.dual_price == ref.dual_price
        assert got.objective == ref.objective and got.duality_gap == ref.duality_gap

    def test_random_caching_widens_past_skipped_files(self, monkeypatch):
        # one half-slot file among files that never fit: the first
        # floor(F / q_min) + 1 = 3 candidates are mostly skipped, so the
        # selection must widen to reach the small file
        from fdiscc import cacheopt
        seen = []
        select = cacheopt.first_k_stable

        def recorded(key, k):
            seen.append(k)
            return select(key, k)

        monkeypatch.setattr(cacheopt, "first_k_stable", recorded)
        cfg = CacheConfig(n_files=40, capacity=1.0, lengths=(0.5,) + (2.0,) * 39, skew=0.0)
        widened = 0
        for seed in range(20):
            seen.clear()
            got = random_caching(cfg, np.random.default_rng(seed))
            assert np.array_equal(got, _random_caching_full_sort(cfg, np.random.default_rng(seed)))
            assert got[0] == 1.0
            widened += len(seen) > 1
        assert widened >= 10


class TestMemo:
    """``solve_caching`` keeps the last cache config's solution."""

    BASE = CacheConfig(n_files=300, capacity=2.05e6,
                       lengths=tuple(np.linspace(3e5, 2e4, 300).tolist()), skew=1.1)

    @pytest.mark.parametrize("change", [
        {"capacity": 3.35e6},
        {"skew": 0.4},
        {"lengths": 1e5},
        {"backhaul_price": 2.5},
    ], ids=["capacity", "skew", "lengths", "backhaul_price"])
    def test_changed_config_gets_a_fresh_solve(self, change):
        cfg = replace(self.BASE, **change)
        base = solve_caching(self.BASE)
        got = solve_caching(cfg)
        assert got is not base
        assert solve_caching(cfg) is got          # a repeated config is served
        ref = _solve_caching_full_sort(cfg)
        assert np.array_equal(got.e, ref.e)
        assert (got.objective, got.dual_price, got.duality_gap) == \
            (ref.objective, ref.dual_price, ref.duality_gap)
        if "backhaul_price" not in change:        # the price does not move the knapsack
            assert not np.array_equal(got.e, base.e)

    def test_equal_config_records_share_one_solve(self):
        a = solve_caching(self.BASE)
        assert solve_caching(replace(self.BASE)) is a

    def test_placement_read_only(self):
        sol = solve_caching(self.BASE)
        assert not sol.e.flags.writeable
        with pytest.raises(ValueError):
            sol.e[0] = 0.5
        cat = catalogue(self.BASE)
        for arr in (cat.c, cat.q, cat.sw, cat.empty):
            assert not arr.flags.writeable
        assert np.array_equal(cat.empty, np.zeros(self.BASE.n_files))

    def test_equal_by_repr_with_and_without_clearing(self):
        cfgs = [self.BASE, replace(self.BASE, skew=0.4), self.BASE,
                replace(self.BASE, capacity=0.0), self.BASE]
        kept = [repr(solve_caching(cfg)) for cfg in cfgs]
        cleared = []
        for cfg in cfgs:
            solve_caching.cache_clear()
            catalogue.cache_clear()
            cleared.append(repr(solve_caching(cfg)))
        assert kept == cleared

    def test_per_file_tuple_hashed_once_per_config(self):
        # every memo lookup hashes the config, which hashes a per-file tuple
        # by walking every file: that is done once per config record
        class Counted(tuple):
            calls = 0

            def __hash__(self):
                Counted.calls += 1
                return tuple.__hash__(self)

        cfg = CacheConfig(n_files=300, capacity=2.05e6, skew=1.1,
                          lengths=Counted(np.linspace(3e5, 2e4, 300).tolist()))
        for seed in range(3):
            solve_caching(cfg)
            random_caching(cfg, np.random.default_rng(seed))
        assert Counted.calls == 1

    def test_residual_is_the_cache_residual(self):
        for cfg, _ in _selection_instances(40, 8):
            sol = solve_caching(cfg)
            assert sol.residual == float(sol.e @ cfg.lengths_array() - cfg.capacity)
