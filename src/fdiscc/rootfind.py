"""The package's one scalar root-find, safeguarded Newton (Moré & Sorensen, SIAM J.
Sci. Stat. Comput. 4, 1983), for the transmit power multiplier, the power block's
sensing multiplier and each user's power stationarity: roots of continuous
increasing functions with closed-form slopes. The Newton step is taken if it lands
in the bracket that holds the root (and, once the bracket has an upper end, is at
most half the step before last); else the bracket is bisected, or doubled while it
has no upper end. A step under 2 eps x is lengthened to that, so a search closing
in from one side still crosses the root. The search stops when fn is 0 or the
bracket [lo, hi] is no wider than 4 eps hi, a rule free of the units of fn and of
its argument, and returns a point where fn is not negative.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

EPS = sys.float_info.epsilon
MAX_DOUBLINGS = 200     # steps without an upper end before the root counts as unreachable


class NoBracketError(ArithmeticError):
    """The function stayed negative through MAX_DOUBLINGS steps."""


def increasing_root(fn: Callable[[float], tuple[float, float]], x: float, lo: float,
                    hi: float = math.inf) -> tuple[float, int]:
    """Root of a continuous increasing ``fn`` in (lo, hi], searched from x in (lo, hi).

    ``fn(t)`` returns (value, slope). fn(lo) < 0 and, for a finite ``hi``,
    fn(hi) >= 0 are taken as given and never evaluated; hi = inf says no
    upper end is known, and then x > 0. Returns the root, where fn is not
    negative, and the number of evaluations of ``fn``.
    """
    evaluations, last, before_last = 0, math.inf, math.inf     # step lengths into x
    while True:
        value, slope = fn(x)
        evaluations += 1
        if value == 0.0:
            return x, evaluations
        if value < 0.0:
            lo = x
        else:
            hi = x
        if hi < math.inf and hi - lo <= 4.0 * EPS * hi:
            return hi, evaluations
        if hi == math.inf and evaluations > MAX_DOUBLINGS:
            raise NoBracketError(f"no sign change up to {x:.3e}")
        newton = x - value / slope if 0.0 < slope < math.inf else math.nan
        if abs(newton - x) < 2.0 * EPS * x:
            newton = x + math.copysign(2.0 * EPS * x, -value)
        if hi == math.inf:
            newton = newton if newton > lo else 2.0 * x
        elif not (lo < newton < hi and abs(newton - x) <= 0.5 * before_last):
            newton = 0.5 * (lo + hi)
        before_last, last = last, abs(newton - x)
        x = newton
