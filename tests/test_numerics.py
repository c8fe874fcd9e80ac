"""`numerics.monotone_bisect` against the plain bisection loop it
replaces, on synthetic monotone functions."""

from __future__ import annotations

import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datarewards.numerics import _SPARE_STEPS, monotone_bisect


def plain_bisect(f, a, b, level, band=None, xtol=None, max_iter=200):
    """The plain bisection loop `monotone_bisect` reproduces: it
    evaluates f at every midpoint."""
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if xtol is not None and abs(b - a) <= xtol:
            break
        v = f(mid)
        if band is not None and abs(v - level) <= band:
            return mid, mid, True
        if v <= level:
            a = mid
        else:
            b = mid
    return a, b, False


def _piecewise(knots, values, jumps: bool):
    """A nondecreasing function through (knots[i], values[i]): linear
    between knots, or constant up to each next knot when jumps. Integer
    values keep it monotone in floating point too."""

    def g(x: float) -> float:
        i = bisect_right(knots, x)
        if i == 0:
            return float(values[0])
        if i == len(knots) or jumps:
            return float(values[i - 1])
        x0, x1, v0, v1 = knots[i - 1], knots[i], values[i - 1], values[i]
        return v0 + (v1 - v0) * ((x - x0) / (x1 - x0))

    return g


@st.composite
def _problems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    knots = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n,
                                 unique=True)))
    # small integers: levels are hit exactly, and repeated values are
    # flat stretches, also at the level
    values = sorted(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    g = _piecewise(knots, [float(v) for v in values], draw(st.booleans()))
    a, b = sorted(draw(st.lists(st.floats(-0.2, 1.2), min_size=2, max_size=2,
                                unique=True)))
    if draw(st.booleans()):
        # falling: f(x) = g(-x) falls from -a to -b, negated exactly
        f, a, b = (lambda x: g(-x)), -a, -b
    else:
        f = g
    level = draw(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0])) + draw(
        st.sampled_from([0.0, 0.25]))
    band = draw(st.sampled_from([None, 0.0, 0.25, 1.0, 2.5]))
    xtol = draw(st.sampled_from([None, 0.0, 1e-12, 1e-6, 0.05]))
    max_iter = draw(st.sampled_from([0, 1, 5, 60, 200]))
    # the end values only aim the first secant step, and need not be
    # exact, nor on their assumed side
    f_a = f(a) + draw(st.sampled_from([0.0, 1e-9, -3.0]))
    f_b = f(b) + draw(st.sampled_from([0.0, -1e-9, 3.0]))
    return f, a, b, f_a, f_b, level, band, xtol, max_iter


def _counted(f):
    seen: list[float] = []

    def counted(x):
        seen.append(x)
        return f(x)

    return counted, seen


@given(_problems())
@settings(max_examples=600, deadline=None)
def test_monotone_bisect_equals_plain_bisection(problem):
    f, a, b, f_a, f_b, level, band, xtol, max_iter = problem
    plain_f, plain_seen = _counted(f)
    counted, seen = _counted(f)
    want = plain_bisect(plain_f, a, b, level, band, xtol, max_iter)
    assert monotone_bisect(counted, a, b, f_a, f_b, level, band, xtol,
                           max_iter=max_iter) == want
    # every evaluation lies within the ends, and there are at most
    # _SPARE_STEPS + 2 more than the plain loop's
    assert all(min(a, b) <= x <= max(a, b) for x in seen)
    assert len(seen) <= len(plain_seen) + _SPARE_STEPS + 2


@given(_problems(), st.sampled_from([0.5, 3.0, 1e6]))
@settings(max_examples=300, deadline=None)
def test_monotone_bisect_on_a_function_that_is_not_monotone(problem, noise):
    # the answer may then differ from the plain loop's, and so may the
    # midpoints taken, but at most _SPARE_STEPS + 2 evaluations go
    # beyond one per midpoint, and a returned a without a hit is the
    # given a or a point where f was evaluated at or below the level
    g, a0, b, f_a, f_b, level, band, xtol, max_iter = problem

    def f(x):
        return g(x) + noise * (hash(x) % 5 - 2)

    counted, seen = _counted(f)
    a, _, hit = monotone_bisect(counted, a0, b, f_a, f_b, level, band, xtol,
                                max_iter=max_iter)
    assert len(seen) <= max_iter + _SPARE_STEPS + 2
    if not hit:
        assert a == a0 or (a in seen and f(a) <= level)
        if band is not None and a != a0:
            assert abs(f(a) - level) > band


@pytest.mark.parametrize("jump", [0.3, 0.999, 1e-6])
@pytest.mark.parametrize("height", [1e3, 1e300])
def test_monotone_bisect_on_a_jump_stays_near_plain_cost(jump, height):
    # Illinois steps creep toward a jump far higher than the level; the
    # spare-step budget bounds the evaluations all the same
    def f(x):
        return 0.0 if x < jump else height

    counted, seen = _counted(f)
    plain_f, plain_seen = _counted(f)
    want = plain_bisect(plain_f, 0.0, 1.0, 0.5, xtol=1e-10, max_iter=80)
    assert monotone_bisect(counted, 0.0, 1.0, 0.0, height, 0.5, xtol=1e-10, max_iter=80) == want
    assert len(plain_seen) == 34
    assert len(seen) <= 34 + _SPARE_STEPS + 2


def test_monotone_bisect_skips_most_midpoints():
    # a smooth rising function: the plain loop evaluates all 40
    # midpoints; 9 Illinois steps, 3 midpoints where f is within
    # rounding of the level, and the check of the last a take 13
    calls = []

    def f(x):
        calls.append(x)
        return x**3 + x

    want = plain_bisect(f, 0.0, 2.0, 1.3, xtol=2e-12, max_iter=80)
    plain_calls = len(calls)
    calls.clear()
    assert monotone_bisect(f, 0.0, 2.0, 0.0, 10.0, 1.3, xtol=2e-12, max_iter=80) == want
    assert plain_calls == 40
    assert len(calls) <= 13


def test_monotone_bisect_takes_the_midpoint_on_equal_secant_values():
    # equal end values give no secant: the first point is the bracket's
    # midpoint, and nothing divides by zero, also with numpy scalars
    calls = []

    def f(x):
        calls.append(x)
        return np.float64(0.0 if x < 0.3 else 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = monotone_bisect(f, np.float64(0.0), np.float64(1.0), np.float64(5.0),
                              np.float64(5.0), 0.5, xtol=1e-3, max_iter=80)
    assert calls[0] == 0.5
    assert got == plain_bisect(f, 0.0, 1.0, 0.5, xtol=1e-3, max_iter=80)


def test_monotone_bisect_decides_the_band_without_its_midpoint():
    # the first midpoint, 0.5, ends up between two evaluated points in
    # the band |f - 0.5| <= 0.25 and is returned without evaluating f
    calls = []

    def f(x):
        calls.append(x)
        return 2.0 * x * x

    assert plain_bisect(f, 0.0, 1.0, 0.5, band=0.25, max_iter=200) == (0.5, 0.5, True)
    calls.clear()
    got = monotone_bisect(f, 0.0, 1.0, 0.0, 2.0, 0.5, band=0.25, max_iter=200)
    assert got == (0.5, 0.5, True)
    assert 0.5 not in calls
