"""Optimal caching probabilities: an exact fractional-knapsack solve.

The cache placement LP (minimize uncached popularity mass subject to the
capacity budget and box bounds) is solved by greedy loading in decreasing
popularity-per-byte order, which is optimal for this structure; optimality is
certified through the knapsack dual price.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import CacheConfig


@dataclass(frozen=True)
class CacheSolution:
    e: np.ndarray          # placement in [0, 1] per file
    objective: float       # sum_v (1 - e_v) * c_v, see uncached_mass
    dual_price: float      # marginal popularity per unit of capacity
    duality_gap: float     # certified optimality gap (should be ~0)


@functools.lru_cache(maxsize=1)
def zipf_weights(n_files: int, skew: float) -> np.ndarray:
    """Unnormalised Zipf weights w_v = v^-skew, v = 1..V, as a read-only array.

    The last (n_files, skew) is cached: the backhaul cost needs the weights on
    every utility evaluation, while a run keeps one catalogue. One entry, since
    four raised the peak memory of a 1e5-file sweep by 0.5 MB."""
    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    weights = np.arange(1, n_files + 1, dtype=float) ** (-skew)
    weights.flags.writeable = False
    return weights


def zipf_popularity(n_files: int, skew: float) -> np.ndarray:
    """Request probabilities c_v = v^-skew / sum_i i^-skew, v = 1..V."""
    weights = zipf_weights(n_files, skew)
    return weights / weights.sum()


def uncached_mass(e: np.ndarray, skew: float, scale: np.ndarray | float = 1.0) -> float:
    """sum_v s_v (1 - e_v) c_v with per-file weights s = ``scale``.

    Evaluated as sum_v s_v (1 - e_v) w_v / sum_v w_v on the unnormalised
    weights: the normalised c need not sum to exactly 1 in floating point
    (it is 1 + 2e-16 at some skews), so with s = 1 this gives exactly 1.0 at
    e = 0 and exactly 0.0 at e = 1 for every skew.
    """
    e = np.asarray(e, float)
    w = zipf_weights(e.size, skew)
    return float(np.sum(scale * (1.0 - e) * w) / w.sum())


def solve_caching(cache_cfg: CacheConfig) -> CacheSolution:
    """Exact LP optimum with at most one fractional placement.

    Ties in popularity-per-byte are broken toward the smaller file index so
    the result is deterministic.
    """
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
        marginal = 0.0          # capacity not binding
    elif marginal == 0.0:
        # exactly full with integral placements: price of the next-best file
        loaded = e >= 1.0
        leftover = ~loaded
        marginal = float(np.max(c[leftover] / q[leftover])) if leftover.any() else 0.0

    objective = uncached_mass(e, cache_cfg.skew)
    # LP duality on the equivalent max-form: value(mu) = mu*F + sum max(0, c - mu q)
    gained = float(e @ c)
    dual_value = marginal * cap + float(np.maximum(0.0, c - marginal * q).sum())
    gap = dual_value - gained
    return CacheSolution(e=e, objective=objective, dual_price=marginal, duality_gap=gap)


def random_caching(cache_cfg: CacheConfig, rng: np.random.Generator) -> np.ndarray:
    """Popularity-proportional random 0/1 placement under the capacity budget:
    each placed file is drawn proportionally to c among the unplaced files that
    still fit.  Placing greedily along one c-weighted random permutation
    (exponential keys E_v / c_v) has that law, since a file that does not fit
    now never fits later."""
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
