"""Cache placement: the exact fractional-knapsack optimum, the random
baseline, and the sums that price a placement.

A placement e is charged the backhaul cost T rho_max M(e) sum_l R_0l
(``sysmodel.backhaul_cost``), with the priced uncached mass M(e) =
sum_v s_v (1 - e_v) c_v, s = rho / rho_max, of the Zipf popularity c and the
backhaul prices rho (s = 1 under a uniform price). The cache placement LP
minimizes M(e) subject to sum_v q_v e_v <= F and 0 <= e <= 1. Greedy loading
in decreasing order of priced popularity per byte s_v c_v / q_v is optimal
for this structure (Dantzig 1957), and the knapsack dual price certifies it.

Catalogue-sized work is done once per cache config, not once per priced
cell: ``catalogue`` keeps the last config's read-only per-file arrays, the
empty placement and its mass, and ``solve_caching`` its solution, with the
priced mass and cache residual that pricing reads. So only a random draw
costs catalogue-sized passes per cell.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import CacheConfig


@dataclass(frozen=True)
class CacheSolution:
    e: np.ndarray          # read-only placement in [0, 1] per file
    objective: float       # priced uncached mass of e, see uncached_mass
    dual_price: float      # marginal priced popularity per unit of capacity
    duality_gap: float     # certified optimality gap (should be ~0)
    residual: float        # cache_residual of e


@dataclass(frozen=True)
class Catalogue:
    """Read-only per-file arrays of one cache config, and the empty placement.

    Under a uniform price, or an all-zero price tuple, s = 1 and ``sw`` is
    the Zipf weight array itself, not a copy."""

    c: np.ndarray          # Zipf popularity, see zipf_popularity
    q: np.ndarray          # file lengths (bits)
    sw: np.ndarray         # price-weighted Zipf weights s_v w_v
    w_sum: float           # sum_v w_v
    rho_max: float         # the largest backhaul price
    empty: np.ndarray      # the all-zero placement (``no-caching``)
    empty_mass: float      # its priced uncached mass, exactly 1 under a uniform price


def zipf_weights(n_files: int, skew: float) -> np.ndarray:
    """Unnormalised Zipf weights w_v = v^-skew, v = 1..V."""
    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    return np.arange(1, n_files + 1, dtype=float) ** (-skew)


def zipf_popularity(n_files: int, skew: float) -> np.ndarray:
    """Request probabilities c_v = v^-skew / sum_i i^-skew, v = 1..V."""
    weights = zipf_weights(n_files, skew)
    return weights / weights.sum()


@functools.lru_cache(maxsize=1)
def catalogue(cache_cfg: CacheConfig) -> Catalogue:
    """The per-file arrays of the last cache config asked for. One entry,
    since a sweep runs the cells of one cache config together, and each
    array is catalogue-sized (0.8 MB at 1e5 files)."""
    w = zipf_weights(cache_cfg.n_files, cache_cfg.skew)
    w_sum = float(w.sum())
    rho = np.atleast_1d(np.asarray(cache_cfg.backhaul_price, float))
    rho_max = float(rho.max())
    sw = w if rho.min() == rho_max else (rho / rho_max) * w
    c, q, empty = w / w_sum, cache_cfg.lengths_array(), np.zeros(w.size)
    for arr in (w, sw, c, q, empty):
        arr.flags.writeable = False
    return Catalogue(c=c, q=q, sw=sw, w_sum=w_sum, rho_max=rho_max, empty=empty,
                     empty_mass=float(sw.sum() / w_sum))


def uncached_mass(e: np.ndarray, cache_cfg: CacheConfig) -> float:
    """The priced uncached mass M(e) = sum_v s_v (1 - e_v) c_v.

    Evaluated as sum_v (1 - e_v) s_v w_v / sum_v w_v on the unnormalised
    weights: the normalised c need not sum to exactly 1 in floating point
    (it is 1 + 2e-16 at some skews), so under a uniform price this gives
    exactly 1.0 at e = 0 and exactly 0.0 at e = 1 for every skew.
    """
    cat = catalogue(cache_cfg)
    uncached = 1.0 - np.asarray(e, float)
    uncached *= cat.sw
    return float(uncached.sum() / cat.w_sum)


def cache_residual(e: np.ndarray, cache_cfg: CacheConfig) -> float:
    """Cache load of placement ``e`` minus the cache capacity."""
    return float(e @ catalogue(cache_cfg).q - cache_cfg.capacity)


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


@functools.lru_cache(maxsize=1)
def solve_caching(cache_cfg: CacheConfig) -> CacheSolution:
    """Exact optimum of the priced placement LP, with at most one fractional
    placement.

    Ties in priced popularity per byte are broken toward the smaller file
    index so the result is deterministic. Only the files the greedy loading
    can reach are ordered: at most floor(F / q_min) load fully, and one more
    may load in part. The loading is the sequential left fold
    ``np.subtract.accumulate`` of the capacity by the file lengths in that
    order.

    The last cache config's solution is kept (one entry, in the idiom of
    ``catalogue``), so the cells of one config share one solve; its ``e``
    is read-only, since every caller gets the same array.
    """
    cat = catalogue(cache_cfg)
    c, q = cat.sw / cat.w_sum, cat.q        # priced popularity s_v c_v: c bit for bit if s = 1
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
    e.flags.writeable = False

    # LP duality on the equivalent max-form: value(mu) = mu*F + sum max(0, c - mu q)
    gained = float(e @ c)
    dual_value = marginal * cap + float(np.maximum(0.0, c - marginal * q).sum())
    return CacheSolution(e=e, objective=uncached_mass(e, cache_cfg),
                         dual_price=marginal, duality_gap=dual_value - gained,
                         residual=cache_residual(e, cache_cfg))


def _load(q_order: np.ndarray, cap: float, q_min: float) -> tuple[np.ndarray, float]:
    """Sequential 0/1 loading of files of lengths ``q_order`` into capacity
    ``cap``, each placed if it fits and skipped if not, until less than
    ``q_min`` is left: the mask of placed files and the capacity left. The
    files between two skipped ones load in one left fold, of at most
    floor(r / q_min) + 1 files from capacity r."""
    placed = np.zeros(q_order.size, bool)
    left, start = cap, 0
    while start < q_order.size and left >= q_min:
        head = q_order[start:start + _reach(left, q_min, q_order.size - start)]
        remaining = np.subtract.accumulate(np.concatenate(([left], head)))
        fits = head <= remaining[:-1]
        n_fit = int(np.argmin(fits)) if not fits.all() else fits.size
        placed[start:start + n_fit] = True
        left = remaining[n_fit]
        start += n_fit + (n_fit < head.size)   # past a file that does not fit
    return placed, left


def random_caching(cache_cfg: CacheConfig, rng: np.random.Generator) -> np.ndarray:
    """Popularity-proportional random 0/1 placement under the capacity budget:
    each placed file is drawn proportionally to c among the unplaced files that
    still fit.  Placing greedily along one c-weighted random permutation
    (exponential keys E_v / c_v) has that law, since a file that does not fit
    now never fits later.  Only the head of the permutation that the loading
    reaches is ordered: floor(F / q_min) + 1 files, widened while files too
    large to fit leave room behind them."""
    cat = catalogue(cache_cfg)
    key = rng.standard_exponential(cat.c.size)
    key /= cat.c
    cap = float(cache_cfg.capacity)
    q_min = float(cat.q.min())
    k = _reach(cap, q_min, key.size)
    while True:
        order = first_k_stable(key, k)
        placed, left = _load(cat.q[order], cap, q_min)
        if left < q_min or k >= key.size:
            break
        k *= 2
    e = np.zeros(key.size)
    e[order[placed]] = 1.0
    return e
