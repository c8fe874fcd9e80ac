"""Small numerical building blocks: bracketed Newton root finding,
bisection of a monotone function, and golden-section maximization.

The routines are deliberately plain. The roots are those of cheap
convex functions whose slope comes with their value, so Newton steps
from the side where f > 0 approach the root monotonically; the
bisection takes the midpoints of a plain bisection, deciding most of
them from points already evaluated; golden section maximizes a
function unimodal on a bracketed cell. Each keeps a bracket, so
robustness does not rest on the step. The Newton and golden-section
loops stop on their tolerance, or after _MAX_ITER steps at the latest.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable

import numpy as np

from .errors import DomainError, NumericalError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_MAX_ITER = 200  # Newton and golden-section steps; tolerances stop them first
# evaluations `monotone_bisect` may make beyond the midpoints it has
# taken; fewer cost evaluations on smooth demand, more gain nothing
_SPARE_STEPS = 6


def check_count(name: str, value, least: int) -> None:
    """Raise DomainError naming the field unless value is an int (not
    a bool) of at least `least`: a grid size or point count."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def newton_root(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    xtol: float,
    f_lo: float,
    f_hi: float,
    slope: float,
) -> float:
    """Find the root of a convex f in [lo, hi] by bracketed Newton.

    f(x) returns (f(x), f'(x)); f(lo) and f(hi) must have opposite
    signs (either may be zero), and `slope` is f' at the end where
    f > 0, where the iteration starts. A tangent of a convex function
    lies below it, so a Newton step from a point with f > 0 does not
    pass the root: the iterate approaches it from that side while the
    other end of the bracket stays put.

    Each step is rounded toward the iterate to whole multiples of
    xtol/2. When that leaves no whole multiple, the next point is a
    probe xtol/2 past the iterate; once it lands past the root, the
    bracket is at most xtol wide and its midpoint, the returned root,
    lies within xtol/2 of the exact root, as after bisection. A step
    that would leave the bracket, point away from q or is undefined (a
    zero slope) is replaced by the bracket's midpoint. Rounding the
    steps also makes the iterates insensitive to last-bit differences
    in f, except at the rare value that rounds across a multiple.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NumericalError(
            f"newton_root: no sign change on [{lo!r}, {hi!r}]: "
            f"f(lo)={f_lo!r}, f(hi)={f_hi!r}"
        )
    # p: the iterate, where f > 0; q: the other end of the bracket;
    # g: the step unit, signed toward q
    if f_lo > 0.0:
        p, q, f_p, g = lo, hi, f_lo, 0.5 * xtol
    else:
        p, q, f_p, g = hi, lo, f_hi, -0.5 * xtol
    for _ in range(_MAX_ITER):
        if abs(q - p) <= xtol:
            break
        # the Newton step in units of g, inf at a zero slope
        units = -f_p / (slope * g) if slope != 0.0 else math.inf
        if 0.0 <= units < (q - p) / g:
            x = p + max(float(math.floor(units)), 1.0) * g
        else:
            x = 0.5 * (p + q)
        f_x, d_x = f(x)
        if f_x == 0.0:
            return x
        if f_x > 0.0:
            p, f_p, slope = x, f_x, d_x
        else:
            q = x
    return 0.5 * (p + q)


def newton_roots(
    f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    xtol: float,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
    slope: np.ndarray,
) -> np.ndarray:
    """`newton_root` for many brackets [lo[i], hi[i]] at once.

    f(x) returns the values and slopes of the functions at x, one point
    per bracket. Each element takes the steps `newton_root` takes on
    its bracket, so it returns the same root. Every step evaluates f on
    the whole array, a closed bracket at its last iterate.
    """
    root = np.where(f_lo == 0.0, lo, hi)
    open_ = (f_lo != 0.0) & (f_hi != 0.0)
    bad = open_ & ((f_lo > 0.0) == (f_hi > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"newton_roots: no sign change on [{float(lo[i])!r}, "
            f"{float(hi[i])!r}]: f(lo)={float(f_lo[i])!r}, f(hi)={float(f_hi[i])!r}"
        )
    start_lo = f_lo > 0.0
    p, q = np.where(start_lo, lo, hi), np.where(start_lo, hi, lo)
    f_p, d_p = np.where(start_lo, f_lo, f_hi), slope
    g = np.where(start_lo, 0.5 * xtol, -0.5 * xtol)
    for _ in range(_MAX_ITER):
        done = open_ & (np.abs(q - p) <= xtol)
        root = np.where(done, 0.5 * (p + q), root)
        open_ &= ~done
        if not open_.any():
            return root
        with np.errstate(divide="ignore", invalid="ignore"):
            units = -f_p / (d_p * g)
            step = np.maximum(np.floor(units), 1.0) * g
        newton = (units >= 0.0) & (units < (q - p) / g)
        x = np.where(open_, np.where(newton, p + step, 0.5 * (p + q)), p)
        f_x, d_x = f(x)
        root = np.where(open_ & (f_x == 0.0), x, root)
        open_ &= f_x != 0.0
        up = open_ & (f_x > 0.0)
        p, f_p, d_p = np.where(up, x, p), np.where(up, f_x, f_p), np.where(up, d_x, d_p)
        q = np.where(open_ & ~up, x, q)
    return np.where(open_, 0.5 * (p + q), root)


def monotone_bisect(
    f: Callable[[float], float],
    a: float,
    b: float,
    f_a: float,
    f_b: float,
    level: float,
    band: float | None = None,
    xtol: float | None = None,
    *,
    max_iter: int,
) -> tuple[float, float, bool]:
    """Bisect from a, taken to lie where f <= level, toward b, taken to
    lie where f > level (a > b for a falling f), as the plain loop

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

    does, with the same midpoints and the same result, but without
    evaluating f at most of them. f_a and f_b are values of f at a and
    b, or close to them: they only place the first secant step.

    A value v falls on the side -1 (v <= level), 0 (|v - level| <=
    band, only with a band) or +1 (otherwise), and f is taken to be
    monotone: its side never decreases from a to b. So a midpoint
    between two evaluated points of one side lies on that side and is
    decided without evaluating f there; a and b count as evaluated, of
    sides -1 and +1. A midpoint between evaluated points of two sides
    is decided by Illinois (modified regula falsi) steps toward the
    level that separates those sides, each evaluating f strictly
    between its two nearest evaluated points, until the midpoint lies
    between two of one side. f is evaluated at the midpoint itself
    once those two points are closer than a quarter of the bisection's
    width, or once the evaluations reach the midpoints taken so far
    plus _SPARE_STEPS: at a jump of f far larger than its distance
    from the level, Illinois steps creep toward the jump, and this
    keeps the evaluations within _SPARE_STEPS + 2 of one per midpoint
    taken, the plain loop's count. The
    answer is the plain loop's wherever f is monotone between the
    points evaluated; where it is not, a decided midpoint can lie on
    another side than f says there.

    On a stop without a hit, a is, as in the plain loop, the given a or
    a point where f was evaluated on side -1: a decided last a is
    evaluated, and where f turns out to lie on another side there (f is
    not monotone), the evaluated point that decided it is returned.

    f should be memoized when evaluations are costly: a midpoint equal
    to an evaluated point is looked up, not evaluated again, and
    callers that bisect near each other can share evaluations.
    """
    a, b, f_a, f_b = float(a), float(b), float(f_a), float(f_b)
    rising = a < b

    def side(v: float) -> int:
        if band is not None and abs(v - level) <= band:
            return 0
        return -1 if v <= level else 1

    # the points of known side in ascending order, with their values,
    # sides and whether f gave the side (a and b are taken as given)
    xs, vs, sides, evaluated = [a, b], [f_a, f_b], [-1, 1], [False, False]
    if b < a:
        xs, vs, sides, evaluated = xs[::-1], vs[::-1], sides[::-1], evaluated[::-1]
    evaluations = 0

    def evaluate(x: float, i: int) -> int:
        # f at x, inserted at position i of the known points
        nonlocal evaluations
        evaluations += 1
        v = f(x)
        k = side(v)
        if i < len(xs) and xs[i] == x:
            vs[i], sides[i], evaluated[i] = v, k, True
        else:
            xs.insert(i, x)
            vs.insert(i, v)
            sides.insert(i, k)
            evaluated.insert(i, True)
        return k

    def decide(mid: float, width: float, budget: int) -> tuple[int, float | None]:
        # the side of mid, and the evaluated point toward b that decided
        # it (None where f was evaluated at mid); Illinois steps only
        # while fewer than `budget` evaluations have been made
        kept, kept_scale = None, 1.0  # the end the last step kept, weighted
        while True:
            i = bisect_left(xs, mid)
            if xs[i] == mid:
                return (sides[i] if evaluated[i] else evaluate(mid, i)), None
            k_lo, k_hi = sides[i - 1], sides[i]
            if k_lo == k_hi:
                return k_lo, xs[i] if rising else xs[i - 1]
            x_lo, x_hi = xs[i - 1], xs[i]
            if x_hi - x_lo < 0.25 * width or evaluations >= budget:
                return evaluate(mid, i), None
            # the level between the two sides: level -+ band between 0
            # and -1 or +1, level between -1 and +1
            target = level if band is None else level + (k_lo + k_hi) * band
            s_lo = kept_scale if x_lo == kept else 1.0
            s_hi = kept_scale if x_hi == kept else 1.0
            g_lo, g_hi = (vs[i - 1] - target) * s_lo, (vs[i] - target) * s_hi
            x = 0.5 * (x_lo + x_hi)
            if g_lo != g_hi:
                step = x_lo + (x_hi - x_lo) * (g_lo / (g_lo - g_hi))
                if x_lo < step < x_hi:
                    x = step
            k = evaluate(x, i)
            if x == mid:
                return k, None
            # Illinois: an end kept twice in a row weighs half
            if k == k_lo:
                end, scale = x_hi, s_hi
            elif k == k_hi:
                end, scale = x_lo, s_lo
            else:
                end, scale = None, 1.0
            kept, kept_scale = end, (0.5 * scale if end == kept else scale)

    witness = None  # the point that decided a, where f was not evaluated at a
    for n in range(1, max_iter + 1):
        mid = 0.5 * (a + b)
        if xtol is not None and abs(b - a) <= xtol:
            break
        k, by = decide(mid, abs(b - a), n + _SPARE_STEPS)
        if k == 0:
            return mid, mid, True
        if k < 0:
            a, witness = mid, by
        else:
            b = mid
    if witness is not None and evaluate(a, bisect_left(xs, a)) != -1:
        a = witness
    return a, b, False


def golden_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float,
) -> tuple[float, float]:
    """Maximize f on [a, b] by golden-section search.

    Returns (x_best, f(x_best)). The search stops when the bracket is
    narrower than rel_tol * max(|a|, |b|, 1): relative to the endpoints
    above 1, an absolute tolerance of rel_tol for brackets within
    [-1, 1].
    """
    if b < a:
        a, b = b, a
    scale = max(abs(a), abs(b), 1.0)
    tol = rel_tol * scale
    c = a + _INVPHI2 * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = a + _INVPHI2 * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd
