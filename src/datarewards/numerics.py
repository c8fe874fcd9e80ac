"""Small numerical building blocks: bisection root finding and
golden-section maximization.

Both routines are deliberately plain. The functions they are applied to
are cheap, monotone (bisection) or unimodal on a bracketed cell
(golden section), so robustness beats sophistication here.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import NumericalError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float,
    f_lo: float | None = None,
    f_hi: float | None = None,
    max_iter: int = 200,
) -> float:
    """Find a root of f in [lo, hi] by bisection.

    Requires f(lo) and f(hi) to have opposite signs (either may be
    zero). Converges to absolute x-tolerance `xtol` or `max_iter`
    halvings, whichever comes first.
    """
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NumericalError(
            f"bisect_root: no sign change on [{lo!r}, {hi!r}]: "
            f"f(lo)={f_lo!r}, f(hi)={f_hi!r}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def bisect_roots(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    xtol: float,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
    max_iter: int = 200,
) -> np.ndarray:
    """`bisect_root` for many brackets [lo[i], hi[i]] at once.

    f(x, idx) returns the values of the functions idx at x. Each
    element takes the steps `bisect_root` takes on its bracket, so it
    returns the same root; f is evaluated only on the brackets still
    open.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    root = np.where(f_lo == 0.0, lo, hi)
    open_ = (f_lo != 0.0) & (f_hi != 0.0)
    if (open_ & ((f_lo > 0.0) == (f_hi > 0.0))).any():
        i = int(np.argmax(open_ & ((f_lo > 0.0) == (f_hi > 0.0))))
        raise NumericalError(
            f"bisect_roots: no sign change on [{float(lo[i])!r}, "
            f"{float(hi[i])!r}]: f(lo)={float(f_lo[i])!r}, f(hi)={float(f_hi[i])!r}"
        )
    lo_positive = f_lo > 0.0
    idx = np.flatnonzero(open_)
    if idx.size == 0:
        return root
    for _ in range(max_iter):
        mid = 0.5 * (lo[idx] + hi[idx])
        done = hi[idx] - lo[idx] <= xtol
        root[idx[done]] = mid[done]
        idx, mid = idx[~done], mid[~done]
        if idx.size == 0:
            return root
        f_mid = f(mid, idx)
        root[idx] = mid  # kept where f(mid) = 0; otherwise overwritten
        same = (f_mid > 0.0) == lo_positive[idx]
        lo[idx[same]] = mid[same]
        hi[idx[~same]] = mid[~same]
        idx = idx[f_mid != 0.0]
    root[idx] = 0.5 * (lo[idx] + hi[idx])
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
