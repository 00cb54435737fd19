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


def first_k_stable(key: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` indices of ``np.argsort(key, kind="stable")``, for a
    ``key`` without NaNs.

    ``np.partition`` finds the k-th smallest key; every index whose key is at
    most that value (all ties of the k-th key included) is a candidate, and
    only the candidates are stable-sorted, so ties keep their index order."""
    if k >= key.size:
        return np.argsort(key, kind="stable")
    kth = np.partition(key, k - 1)[k - 1]
    cand = np.flatnonzero(key <= kth)
    return cand[np.argsort(key[cand], kind="stable")[:k]]


def _reach(cap: float, q_min: float, n: int) -> int:
    """floor(cap / q_min) + 1, the most files a greedy loading can visit,
    capped at the catalogue size n."""
    full = cap // q_min
    return int(full) + 1 if full < n else n


def solve_caching(cache_cfg: CacheConfig) -> CacheSolution:
    """Exact LP optimum with at most one fractional placement.

    Ties in popularity-per-byte are broken toward the smaller file index so
    the result is deterministic. Only the files the greedy loading can reach
    are ordered: at most floor(F / q_min) load fully, and one more may load in
    part. The loading is the sequential left fold ``np.subtract.accumulate``
    of the capacity by the file lengths in that order.
    """
    c = zipf_popularity(cache_cfg.n_files, cache_cfg.skew)
    q = cache_cfg.lengths_array()
    cap = float(cache_cfg.capacity)
    key = -c / q

    e = np.zeros_like(c)
    marginal = 0.0
    k = _reach(cap, float(q.min()), c.size)
    while True:
        order = first_k_stable(key, k)
        q_order = q[order]
        # remaining[i]: capacity left after loading the first i files fully
        remaining = np.subtract.accumulate(np.concatenate(([cap], q_order)))
        fits = (remaining[:-1] > 0.0) & (q_order <= remaining[:-1])
        n_full = int(np.argmin(fits)) if not fits.all() else fits.size
        if n_full < fits.size or k >= c.size or remaining[-1] <= 0.0:
            break
        k *= 2                  # rounding left room for more files
    e[order[:n_full]] = 1.0
    left = remaining[n_full]
    if n_full < fits.size and left > 0.0:
        v = order[n_full]       # the first file that does not fit loads in part
        e[v] = left / q[v]
        marginal = c[v] / q[v]
        left = 0.0
    if left > 0.0:
        marginal = 0.0          # capacity not binding
    elif marginal == 0.0 and n_full < c.size:
        # exactly full with integral placements: price of the next-best file,
        # the first one left out in the loading order
        if n_full == order.size:
            order = first_k_stable(key, n_full + 1)
        v = order[n_full]
        marginal = float(c[v] / q[v])

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
    now never fits later.  Only the head of the permutation that the loading
    reaches is ordered: floor(F / q_min) + 1 files, widened while files too
    large to fit leave room behind them."""
    c = zipf_popularity(cache_cfg.n_files, cache_cfg.skew)
    q = cache_cfg.lengths_array()
    key = rng.exponential(size=c.size) / c
    cap = float(cache_cfg.capacity)
    q_min = float(q.min())
    k = _reach(cap, q_min, c.size)
    while True:
        placed, remaining = [], cap
        order = first_k_stable(key, k)
        for v, q_v in zip(order.tolist(), q[order].tolist()):
            if remaining < q_min:
                break
            if q_v <= remaining:
                placed.append(v)
                remaining -= q_v
        if remaining < q_min or k >= c.size:
            break
        k *= 2
    e = np.zeros_like(c)
    e[placed] = 1.0
    return e
