import math

import pytest

from fdiscc.rootfind import EPS, MAX_DOUBLINGS, NoBracketError, increasing_root


def _recorded(fn):
    """fn, and the list of (x, value) it fills as the search calls it."""
    seen = []

    def wrapped(x):
        value, slope = fn(x)
        seen.append((x, value))
        return value, slope

    return wrapped, seen


def _check_collapsed(fn, x, lo, hi=math.inf):
    """The final bracket: fn(hi) >= 0 > fn of every point below it that the
    search tried, and the largest of those within 4 eps hi unless fn(hi) == 0."""
    wrapped, seen = _recorded(fn)
    root, evaluations = increasing_root(wrapped, x, lo, hi)
    assert evaluations == len(seen)
    assert fn(root)[0] >= 0.0
    below = [x for x, fx in seen if fx < 0.0] + [lo]
    assert all(x < root for x in below)
    assert fn(root)[0] == 0.0 or root - max(below) <= 4.0 * EPS * root
    return root, evaluations


@pytest.mark.parametrize("fn, lo, hi, root", [
    (lambda x: (3.0 * x - 1.0, 3.0), 0.0, 1.0, 1.0 / 3.0),
    (lambda x: (x ** 3 - 2.0, 3.0 * x ** 2), 0.0, 1.5, 2.0 ** (1.0 / 3.0)),
    # a kink at the root: slope 1 below it, 1e6 above it
    (lambda x: (x - 0.7, 1.0) if x < 0.7 else (1e6 * (x - 0.7), 1e6), 0.0, 1.0, 0.7),
    # a kink away from it, inside the first bracket
    (lambda x: (1e-3 * (x - 1.0), 1e-3) if x < 2.0 else (1e-3 + 1e3 * (x - 2.0), 1e3),
     0.0, 4.0, 1.0),
], ids=["linear", "cubic", "kink-at-root", "kink-inside"])
def test_root_on_the_nonnegative_side(fn, lo, hi, root):
    # searched from hi, once with no upper end and once with hi as the upper end
    for upper in (math.inf, hi):
        found, _ = _check_collapsed(fn, hi if upper == math.inf else 0.5 * (lo + hi), lo, upper)
        assert root <= found <= root * (1.0 + 8.0 * EPS)


def test_bracket_doubles_and_stops_on_exact_zero():
    # with no slope to step on, x = 1, 2 and 4 bracket the root 3, and the
    # first bisection point hits it
    wrapped, seen = _recorded(lambda x: (x - 3.0, 0.0))
    assert increasing_root(wrapped, 1.0, 0.0) == (3.0, 4)
    assert [x for x, _ in seen] == [1.0, 2.0, 4.0, 3.0]


@pytest.mark.parametrize("k", [-40, 40])
def test_unit_rescale_bit_equal(k):
    # rescaling fn and its argument by powers of two rescales the root exactly
    def fn(x):
        return math.exp(x) - 5.0, math.exp(x)

    def scaled(y):
        value, slope = fn(y * 2.0 ** -k)
        return value * 2.0 ** k, slope

    root, n = increasing_root(fn, 1.0, 0.0)
    root2, n2 = increasing_root(scaled, 2.0 ** k, 0.0)
    assert (root2 * 2.0 ** -k, n2) == (root, n)


@pytest.mark.parametrize("fn, x, root", [
    # concave: Newton approaches from below and never crosses by itself
    (lambda x: (math.log(x), 1.0 / x), 0.1, 1.0),
    # convex: Newton approaches from above
    (lambda x: (math.exp(x) - 5.0, math.exp(x)), 3.0, math.log(5.0)),
    # a secular equation 1/||w|| - 1 with ||w||^2 = sum_i X_i / (s_i + mu)^2
    (lambda x: (1.0 / math.sqrt(2.0 / x ** 2 + 1.0 / (1.0 + x) ** 2) - 1.0,
                (2.0 / x ** 3 + 1.0 / (1.0 + x) ** 3)
                / (2.0 / x ** 2 + 1.0 / (1.0 + x) ** 2) ** 1.5), 0.5, None),
], ids=["concave", "convex", "secular"])
def test_newton_closes_the_bracket_in_few_steps(fn, x, root):
    found, evaluations = _check_collapsed(fn, x, 0.0)
    if root is not None:
        assert abs(found - root) <= 8.0 * EPS * root
    assert evaluations <= 9


def test_newton_leaving_the_bracket_bisects():
    # the slope at 0.2 sends Newton past hi: the search bisects instead
    wrapped, seen = _recorded(lambda x: (x ** 3 - 0.1, 3.0 * x ** 2) if x > 0.3
                              else (-1.0, 1e-9))
    root, _ = increasing_root(wrapped, 0.2, 0.0, 1.0)
    assert seen[1][0] == 0.6 and abs(root - 0.1 ** (1.0 / 3.0)) <= 8.0 * EPS


def test_step_guard():
    wrapped, seen = _recorded(lambda x: (-1.0 / (1.0 + x), 0.0))
    with pytest.raises(NoBracketError):
        increasing_root(wrapped, 1.0, 0.0)
    # the first trial end, then MAX_DOUBLINGS doublings of it
    assert len(seen) == MAX_DOUBLINGS + 1
    assert seen[-1][0] == 2.0 ** MAX_DOUBLINGS
