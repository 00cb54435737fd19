"""The package's one scalar root-find. The transmit power multiplier, the
power block's sensing multiplier and each user's power stationarity are roots
of continuous increasing functions, found by regula falsi with the Illinois
modification (Dowell & Jarratt, BIT 11, 1971), which keeps superlinear
convergence where plain regula falsi stalls on a fixed end.
"""

from __future__ import annotations

import sys
from typing import Callable

EPS = sys.float_info.epsilon
MAX_DOUBLINGS = 200     # bracket growth before the root counts as unreachable


class NoBracketError(ArithmeticError):
    """The function stayed negative through MAX_DOUBLINGS doublings."""


def increasing_root(fn: Callable[[float], float], lo: float, f_lo: float,
                    hi: float) -> tuple[float, int]:
    """Root of a continuous increasing ``fn`` above ``lo``, given f_lo = fn(lo) < 0
    and a trial upper end ``hi`` > max(lo, 0).

    ``hi`` doubles until fn(hi) >= 0; Illinois steps then shrink [lo, hi]
    until fn(hi) == 0 or hi - lo <= 4 eps hi, a stop rule free of the units
    of fn and of its argument. Returns ``hi``, where fn is never negative, and
    the number of evaluations of ``fn``.
    """
    f_hi, evaluations = fn(hi), 1
    while f_hi < 0.0:
        if evaluations > MAX_DOUBLINGS:
            raise NoBracketError(f"no sign change up to {hi:.3e}")
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        f_hi, evaluations = fn(hi), evaluations + 1
    side = 0            # +1 / -1: the last step moved hi / lo
    while f_hi > 0.0 and hi - lo > 4.0 * EPS * hi:
        mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        f_mid, evaluations = fn(mid), evaluations + 1
        if f_mid >= 0.0:
            hi, f_hi = mid, f_mid
            f_lo = f_lo / 2.0 if side > 0 else f_lo
            side = 1
        else:
            lo, f_lo = mid, f_mid
            f_hi = f_hi / 2.0 if side < 0 else f_hi
            side = -1
    return hi, evaluations
