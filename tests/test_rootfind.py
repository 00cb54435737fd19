import math

import pytest

from fdiscc.rootfind import EPS, MAX_DOUBLINGS, NoBracketError, increasing_root


def _recorded(fn):
    """fn, and the list of (x, fn(x)) it fills as the search calls it."""
    seen = []

    def wrapped(x):
        seen.append((x, fn(x)))
        return seen[-1][1]

    return wrapped, seen


def _check_collapsed(fn, lo, hi):
    """The final bracket: fn(hi) >= 0 > fn of every point below it that the
    search tried, and the largest of those within 4 eps hi unless fn(hi) == 0."""
    wrapped, seen = _recorded(fn)
    root, evaluations = increasing_root(wrapped, lo, fn(lo), hi)
    assert evaluations == len(seen)
    assert fn(root) >= 0.0
    below = [x for x, fx in seen if fx < 0.0] + [lo]
    assert all(x < root for x in below)
    assert fn(root) == 0.0 or root - max(below) <= 4.0 * EPS * root
    return root, evaluations


@pytest.mark.parametrize("fn, lo, hi, root", [
    (lambda x: 3.0 * x - 1.0, 0.0, 1.0, 1.0 / 3.0),
    (lambda x: x ** 3 - 2.0, 0.0, 1.5, 2.0 ** (1.0 / 3.0)),
    # a kink at the root: slope 1 below it, 1e6 above it
    (lambda x: x - 0.7 if x < 0.7 else 1e6 * (x - 0.7), 0.0, 1.0, 0.7),
    # a kink away from it, inside the first bracket
    (lambda x: 1e-3 * (x - 1.0) if x < 2.0 else 1e-3 + 1e3 * (x - 2.0), 0.0, 4.0, 1.0),
], ids=["linear", "cubic", "kink-at-root", "kink-inside"])
def test_root_on_the_nonnegative_side(fn, lo, hi, root):
    found, _ = _check_collapsed(fn, lo, hi)
    assert root <= found <= root * (1.0 + 8.0 * EPS)


def test_bracket_doubles_and_stops_on_exact_zero():
    # hi = 1, 2 and 4 bracket the root 3, and the first regula-falsi point hits it
    wrapped, seen = _recorded(lambda x: x - 3.0)
    assert increasing_root(wrapped, 0.0, -3.0, 1.0) == (3.0, 4)
    assert [x for x, _ in seen] == [1.0, 2.0, 4.0, 3.0]


@pytest.mark.parametrize("k", [-40, 40])
def test_unit_rescale_bit_equal(k):
    # rescaling fn and its argument by powers of two rescales the root exactly
    def fn(x):
        return math.exp(x) - 5.0

    scaled = (lambda y: fn(y * 2.0 ** -k) * 2.0 ** k)
    root, n = increasing_root(fn, 0.0, fn(0.0), 1.0)
    root2, n2 = increasing_root(scaled, 0.0, scaled(0.0), 2.0 ** k)
    assert (root2 * 2.0 ** -k, n2) == (root, n)


def test_step_guard():
    wrapped, seen = _recorded(lambda x: -1.0 / (1.0 + x))
    with pytest.raises(NoBracketError):
        increasing_root(wrapped, 0.0, -1.0, 1.0)
    # the first trial end, then MAX_DOUBLINGS doublings of it
    assert len(seen) == MAX_DOUBLINGS + 1
    assert seen[-1][0] == 2.0 ** MAX_DOUBLINGS
