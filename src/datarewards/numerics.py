"""Small numerical building blocks: bracketed Newton root finding
and golden-section maximization.

Both routines are deliberately plain. The roots are those of cheap
convex functions whose slope comes with their value, so Newton steps
from the side where f > 0 approach the root monotonically; golden
section maximizes a function unimodal on a bracketed cell. Each keeps
a bracket, so robustness does not rest on the step.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import NumericalError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def newton_root(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    xtol: float,
    f_lo: float,
    f_hi: float,
    slope: float,
    max_iter: int = 200,
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
    for _ in range(max_iter):
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
    f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    xtol: float,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
    slope: np.ndarray,
    max_iter: int = 200,
) -> np.ndarray:
    """`newton_root` for many brackets [lo[i], hi[i]] at once.

    f(x, idx) returns the values and slopes of the functions idx at x.
    Each element takes the steps `newton_root` takes on its bracket,
    so it returns the same root; f is evaluated only on the brackets
    still open.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    root = np.where(f_lo == 0.0, lo, hi)
    open_ = (f_lo != 0.0) & (f_hi != 0.0)
    if (open_ & ((f_lo > 0.0) == (f_hi > 0.0))).any():
        i = int(np.argmax(open_ & ((f_lo > 0.0) == (f_hi > 0.0))))
        raise NumericalError(
            f"newton_roots: no sign change on [{float(lo[i])!r}, "
            f"{float(hi[i])!r}]: f(lo)={float(f_lo[i])!r}, f(hi)={float(f_hi[i])!r}"
        )
    start_lo = f_lo > 0.0
    p, q = np.where(start_lo, lo, hi), np.where(start_lo, hi, lo)
    f_p, d_p = np.where(start_lo, f_lo, f_hi), np.array(slope, dtype=float)
    g = np.where(start_lo, 0.5 * xtol, -0.5 * xtol)
    idx = np.flatnonzero(open_)
    for _ in range(max_iter):
        pi, qi = p[idx], q[idx]
        done = np.abs(qi - pi) <= xtol
        root[idx[done]] = 0.5 * (pi[done] + qi[done])
        idx, pi, qi = idx[~done], pi[~done], qi[~done]
        if idx.size == 0:
            return root
        gi = g[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            units = -f_p[idx] / (d_p[idx] * gi)
            step = np.maximum(np.floor(units), 1.0) * gi
        newton = (units >= 0.0) & (units < (qi - pi) / gi)
        x = np.where(newton, pi + step, 0.5 * (pi + qi))
        f_x, d_x = f(x, idx)
        root[idx] = x  # kept where f(x) = 0; otherwise overwritten
        up = f_x > 0.0
        p[idx[up]], f_p[idx[up]], d_p[idx[up]] = x[up], f_x[up], d_x[up]
        q[idx[~up]] = x[~up]
        idx = idx[f_x != 0.0]
    root[idx] = 0.5 * (p[idx] + q[idx])
    return root


def golden_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-6,
    max_iter: int = 200,
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
    for _ in range(max_iter):
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
