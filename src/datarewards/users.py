"""Stage-II user side: valuation thresholds and exact best responses.

Given a unit data reward w, the user population splits at up to five
valuation thresholds:

  theta0  subscribe-without-reward cutoff, F/u(Q)
  theta1  subscribers start watching ads, phi/(w u'(Q))
  theta2  subscribe-iff-watching cutoff (aware scheme, high w)
  theta3  anyone starts watching ads, phi/(w u'(0))
  theta4  subscription cutoff when non-subscribers may watch (unaware)

theta2 and theta4 are roots of indifference equations h = 0 and v = 0.
h and v are maxima over data levels of functions affine in theta (v
less an affine term), hence convex in theta, and by the envelope
theorem their slopes are u(level) and u(level) - u(Q), which their
values compute anyway. One routine, `_case_c_root`, solves both by
bracketed Newton (`numerics.newton_root`; `newton_roots` for reward
arrays) to within half of `root_resolution` of the exact root. The
bracketing sign conditions are structural guarantees and their
violation raises InternalConsistencyError with diagnostics.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .model import MarketParams
from .numerics import newton_root, newton_roots


class SarCase(Enum):
    """Reward regimes under subscription-aware rewarding."""

    A = "A"  # reward too small: nobody watches ads
    B = "B"  # high types watch ads on top of subscribing
    C = "C"  # some users subscribe only because of the reward


class SurCase(Enum):
    """Reward regimes under subscription-unaware rewarding."""

    A = "A^"  # nobody watches ads
    B = "B^"  # identical to aware case B
    C = "C^"  # a band of non-subscribers watches ads
    D = "D^"  # rewards beat the data plan: nobody subscribes


class Thresholds(NamedTuple):
    """The population partition at a reward w: who subscribes and who
    watches ads, on which valuation interval. (A NamedTuple: every
    stage-II call builds one, and a frozen dataclass of ten fields takes
    about 2 us longer to build.)

    Users with theta >= cutoff subscribe (cutoff = inf: nobody does).
    Subscribers watch on sub_watch = (lo, hi) and non-subscribers on
    alone_watch; a segment with hi <= lo is empty. theta2 and theta4
    are None outside the case that needs them.

    For an array of rewards every field but theta0 is an array: case
    holds the index of each reward's case in list(SarCase) or
    list(SurCase), and an absent theta2 or theta4 is NaN.
    """

    w: float | np.ndarray
    case: SarCase | SurCase | np.ndarray
    theta0: float
    theta1: float | np.ndarray
    theta3: float | np.ndarray
    theta2: float | np.ndarray | None
    theta4: float | np.ndarray | None
    cutoff: float | np.ndarray
    sub_watch: tuple
    alone_watch: tuple


@dataclass(frozen=True)
class UserDecision:
    r: int  # subscribe (1) or not (0)
    x: float  # ads watched per month


# The smallest positive reward stage II takes. Below it phi / (w u')
# and phi / (w theta) overflow doubles (w u' can even round to 0), and
# the thresholds come out as inf or NaN: at subnormal rewards the
# partition of an alpha-fair market raised DomainError,
# NumericalError or ZeroDivisionError, depending on the market.
MIN_REWARD = 1e-300


def _check_reward(w) -> None:
    """Raise DomainError unless the reward w is 0 or lies in
    [MIN_REWARD, inf), naming the first bad entry of an array: a
    negative, NaN or infinite reward has no partition. A reward is a
    real number or a 1-D array of them (stage II's array path handles
    one axis of rewards); anything else is named by its type, dtype or
    shape."""
    if isinstance(w, np.ndarray):
        if w.ndim != 1:
            raise DomainError(f"a reward array must be 1-D, got shape {w.shape}")
        if w.dtype.kind not in "fiu":
            raise DomainError(f"a reward array must hold real numbers, got dtype {w.dtype}")
        bad = ~((w == 0.0) | ((w >= MIN_REWARD) & (w < math.inf)))
    else:
        if type(w) is not float and not isinstance(w, numbers.Real):
            raise DomainError(
                f"a reward must be a real number or a 1-D array, got {type(w).__name__}"
            )
        bad = not (w == 0.0 or MIN_REWARD <= w < math.inf)
    if _any(bad):
        (w_,) = _first(bad, w)
        raise DomainError(
            f"reward {w_!r} must be 0 or lie in [MIN_REWARD, inf) = "
            f"[{MIN_REWARD!r}, inf)"
        )


def theta0(params: MarketParams) -> float:
    return params.F / params.utility.u(params.Q)


def _ratio_over(params: MarketParams, w, marginal: float):
    """phi / (w u'), +inf at w <= 0; w may be a float or an array."""
    if isinstance(w, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.where(w > 0.0, params.phi / (w * marginal), math.inf)
    if w <= 0.0:
        return math.inf
    return params.phi / (w * marginal)


def theta1(params: MarketParams, w):
    """phi / (w u'(Q)); w may be a float or an array."""
    return _ratio_over(params, w, params.utility.u_prime(params.Q))


def theta3(params: MarketParams, w):
    """phi / (w u'(0)), 0 when u'(0) is infinite; w may be a float or
    an array."""
    up0 = params.utility.u_prime_zero
    if math.isinf(up0):
        return np.zeros_like(w) if isinstance(w, np.ndarray) else 0.0
    return _ratio_over(params, w, up0)


def case_bound_a(params: MarketParams) -> float:
    """Largest w at which no user watches ads (either scheme)."""
    u = params.utility
    return params.phi / (u.u_prime(params.Q) * params.dist.theta_max)


def case_bound_b_sar(params: MarketParams) -> float:
    """Aware-scheme B/C boundary."""
    u = params.utility
    return params.phi * u.u(params.Q) / (params.F * u.u_prime(params.Q))


def case_bound_b_sur(params: MarketParams) -> float:
    """Unaware-scheme B/C boundary; 0 when u'(0) is infinite."""
    up0 = params.utility.u_prime_zero
    if math.isinf(up0):
        return 0.0
    return params.phi * params.utility.u(params.Q) / (params.F * up0)


def case_bound_d(params: MarketParams) -> float:
    """Unaware-scheme C/D boundary: rewards beat the data plan."""
    return params.phi * params.Q / params.F


def case_bounds(params: MarketParams, scheme_aware: bool) -> tuple[float, ...]:
    """Upper ends of the cases but the last, in ascending order: a
    reward w lies in case i (A, B, C, D^ in turn) when exactly i bounds
    lie below it.

    MarketParams keeps them ordered: theta_max above u'(0)F/(u'(Q)u(Q))
    puts case_bound_a below case_bound_b_sur, and theta0 below theta_max
    puts it below case_bound_b_sar. Case D^ starts at phi Q/F itself, so
    its bound is the float below. With u'(0) infinite every
    non-subscriber with theta > 0 gains from watching at any positive
    reward, so cases A^ and B^ hold no positive reward.
    """
    if scheme_aware:
        return case_bound_a(params), case_bound_b_sar(params)
    below_d = math.nextafter(case_bound_d(params), -math.inf)
    if math.isinf(params.utility.u_prime_zero):
        return 0.0, 0.0, below_d
    return case_bound_a(params), case_bound_b_sur(params), below_d


def case_index(params: MarketParams, w, scheme_aware: bool):
    """The index of the case of w in list(SarCase) or list(SurCase),
    the number of case bounds below w; elementwise when w is an array."""
    bounds = case_bounds(params, scheme_aware)
    if isinstance(w, np.ndarray):
        return np.searchsorted(bounds, w)
    return bisect_left(bounds, w)


_SAR_CASES, _SUR_CASES = list(SarCase), list(SurCase)


def classify_sar(params: MarketParams, w: float) -> SarCase:
    return _SAR_CASES[case_index(params, w, True)]


def classify_sur(params: MarketParams, w: float) -> SurCase:
    return _SUR_CASES[case_index(params, w, False)]


def _x_level(params: MarketParams, theta, w: float):
    """Utility level (u')^{-1}(phi / (w theta)) the watcher tops up to.

    Returns 0 for theta = 0 (infinite marginal cost ratio). theta may
    also be an array of types, such as quadrature nodes.
    """
    if isinstance(theta, np.ndarray):
        # stage II passes theta = 0 in an array only as theta3 where
        # u'(0) = inf, whose level at phi / (w 0) = inf is 0; np.errstate
        # costs about 1.5 us a call, so other markets skip muting the warning
        if math.isinf(params.utility.u_prime_zero):
            with np.errstate(divide="ignore"):
                ratio = params.phi / (w * theta)
        else:
            ratio = params.phi / (w * theta)
        return np.maximum(params.utility.inverse_marginal(ratio), 0.0)
    if theta <= 0.0:
        return 0.0
    # clamp the rounding dust at segment endpoints (level = 0 or Q there)
    return max(params.utility.inverse_marginal(params.phi / (w * theta)), 0.0)


def _h(params: MarketParams, w):
    """h(theta) = theta u(level) - F - (phi/w)(level - Q) at reward w:
    the net payoff of "subscribe and watch" at the watcher's interior
    optimum, with its slope h'(theta) = u(level). w may be a float, or
    an array of rewards for an array of positive types theta.

    h is max over levels L >= 0 of theta u(L) - F - (phi/w)(L - Q), a
    maximum of functions affine in theta, so it is convex, and by the
    envelope theorem its slope is u at the maximizing level."""
    u, ratio = params.utility.u, params.phi / w

    def h(theta):
        level = _x_level(params, theta, w)
        u_level = u(level)
        return theta * u_level - params.F - ratio * (level - params.Q), u_level

    return h


def _v(params: MarketParams, w):
    """v(theta) = theta u(level) - (phi/w) level - theta u(Q) + F at
    reward w: the gain of watching without subscribing over
    subscribing, at the watcher's optimum, with its slope
    v'(theta) = u(level) - u(Q). w may be a float, or an array of
    rewards for an array of positive types theta.

    Convex for the reason h is: a maximum over levels of functions
    affine in theta, less the affine theta u(Q) - F."""
    u, ratio, u_q = params.utility.u, params.phi / w, params.utility.u(params.Q)

    def v(theta):
        level = _x_level(params, theta, w)
        u_level = u(level)
        return theta * u_level - ratio * level - theta * u_q + params.F, u_level - u_q

    return v


def _any(flags) -> bool:
    return bool(flags.any()) if isinstance(flags, np.ndarray) else flags


def _first(bad, *values) -> list[float]:
    """The values at the first True entry of the array bad, or the
    scalar values themselves."""
    if isinstance(bad, np.ndarray):
        i = int(np.argmax(bad))
        return [float(v[i]) for v in values]
    return list(values)


def root_resolution(params: MarketParams) -> float:
    """Absolute resolution of the thresholds theta2 and theta4: their
    root search stops at a bracket this wide and returns its midpoint,
    so a root lies within half of it of the exact root, and two roots
    can be ordered wrongly by up to all of it. Checks on these roots
    allow that much."""
    return 1e-10 * params.dist.theta_max


def _case_c_root(params: MarketParams, g, lo, hi, rising: bool, w, what: str):
    """Root of the convex g(params, w)(theta) on [lo, hi] (lo < hi),
    across which g rises (rising) or falls through 0, by bracketed
    Newton from the end where g > 0 to `root_resolution`/2. Where the
    root sits on an end (exactly at a case boundary), g there is taken
    as 0, so the root is lo, or else hi. An end whose sign is off by
    more than 1e-9 F raises InternalConsistencyError. Elementwise, by
    `newton_roots`, when w is an array; each reward then takes the
    steps its scalar solve takes."""
    f = g(params, w)
    (f_lo, slope_lo), (f_hi, slope_hi) = f(lo), f(hi)
    sign = 1.0 if rising else -1.0  # sign * g rises through 0
    tol = 1e-9 * params.F
    bad = (sign * f_lo >= tol) | (sign * f_hi <= -tol)
    if _any(bad):
        lo_, f_lo_, hi_, f_hi_, w_ = _first(bad, lo, f_lo, hi, f_hi, w)
        name, trend = g.__name__.lstrip("_"), "rise" if rising else "fall"
        raise InternalConsistencyError(
            f"{what} root bracket failed: expected {name} to {trend} through 0 "
            f"but {name}({lo_:.6g})={f_lo_:.6g}, {name}({hi_:.6g})={f_hi_:.6g} "
            f"at w={w_:.6g}"
        )
    at_lo, at_hi = sign * f_lo >= 0.0, sign * f_hi <= 0.0
    slope = slope_hi if rising else slope_lo
    xtol = root_resolution(params)
    if isinstance(w, np.ndarray):
        f_lo, f_hi = np.where(at_lo, 0.0, f_lo), np.where(at_hi, 0.0, f_hi)
        return newton_roots(f, lo, hi, xtol, f_lo, f_hi, slope)
    f_lo, f_hi = (0.0 if at_lo else f_lo), (0.0 if at_hi else f_hi)
    return newton_root(f, lo, hi, xtol, f_lo, f_hi, slope)


def solve_theta2(params: MarketParams, w):
    """Subscribe-iff-watching cutoff for the aware scheme, high reward.

    Root of h(theta) = theta u(level) - F - (phi/w)(level - Q) on
    (theta1, theta0), where level = (u')^{-1}(phi/(w theta)). h is the
    net payoff of "subscribe and watch" at the watcher's interior
    optimum. It is convex with slope u(level) > 0 on the bracket, so
    Newton steps from theta0, where h > 0, descend to the root without
    passing it; the result lies within `root_resolution`/2 of it.

    w may be one reward or an array of case-C rewards, whose roots are
    then found together, each by the steps of its scalar solve.
    """
    t0, t1 = theta0(params), theta1(params, w)
    if isinstance(w, np.ndarray):
        t0 = np.full(len(w), t0)
    return _case_c_root(params, _h, t1, t0, True, w, "subscribe-iff-watching")


def solve_theta4(params: MarketParams, w):
    """Subscription cutoff for the unaware scheme, mid-range reward.

    Root of v(theta) = theta u(level) - (phi/w) level - theta u(Q) + F
    on (theta3, theta1): below it users watch ads without subscribing,
    above it they subscribe. v is convex with slope u(level) - u(Q) < 0
    on the bracket, so Newton steps from theta3, where v > 0, climb to
    the root without passing it; the result lies within
    `root_resolution`/2 of it. Near the collapse reward phi Q/F the
    root nears theta1, where the slope vanishes, and the steps slow to
    halving. The exact root exceeds theta0; the returned one does up
    to `root_resolution`.

    w may be one reward or an array of case-C^ rewards, whose roots are
    then found together, each by the steps of its scalar solve.
    """
    t1, t3 = theta1(params, w), theta3(params, w)
    root = _case_c_root(params, _v, t3, t1, False, w, "non-subscriber band")
    t0 = theta0(params)
    low = root <= t0 * (1.0 - 1e-9) - root_resolution(params)
    if _any(low):
        root_, w_ = _first(low, root, w)
        raise InternalConsistencyError(
            f"subscription cutoff {root_:.6g} fell below the zero-reward "
            f"cutoff {t0:.6g} at w={w_:.6g}"
        )
    return root


def _watch_subscriber(params: MarketParams, theta, w):
    """Ads watched by a subscriber with binding quota Q, at a float
    type, or at an array of positive types (such as the stage-II
    quadrature nodes) and a float reward or one reward per type."""
    x = (_x_level(params, theta, w) - params.Q) / w
    if isinstance(x, np.ndarray):
        return np.maximum(x, 0.0)
    return max(x, 0.0)


def _watch_alone(params: MarketParams, theta, w):
    """Ads watched by a non-subscriber, whose data all comes from
    rewards, where `_watch_subscriber` applies."""
    return _x_level(params, theta, w) / w


def _case_rules(t0, t1, t3, root, top, scheme_aware: bool) -> tuple:
    """(cutoff, subscriber watch start, non-subscriber watch start and
    end) in each case, in the order of list(SarCase) or list(SurCase).
    root is the case-C threshold, theta2 (aware) or theta4 (unaware),
    NaN where absent; each entry is a float or an array of one value
    per reward."""
    # A: [theta0, top] subscribe, nobody watches; B: subscribers above
    # theta1 watch; an empty non-subscriber segment is (0, 0)
    a, b = (t0, top, 0.0, 0.0), (t0, t1, 0.0, 0.0)
    if scheme_aware:
        # C: exactly those above theta2 subscribe, and all of them watch
        return a, b, (root, root, 0.0, 0.0)
    band_top = np.fmin(root, top) if isinstance(root, np.ndarray) else min(root, top)
    # C^: [theta4, top] subscribe and non-subscribers watch on
    # [theta3, theta4]; D^: nobody subscribes, all above theta3 watch
    return a, b, (root, t1, t3, band_top), (math.inf, top, t3, top)


def thresholds(params: MarketParams, w, scheme_aware: bool) -> Thresholds:
    """The population partition at reward w (aware or unaware scheme):
    the case of w, the thresholds it needs, and the subscription cutoff
    and the two watch segments they give (`_case_rules`). Every
    stage-II quantity at w reads this one record.

    w may be a float or an array of rewards, whose case-C roots are
    then found together (`solve_theta2` / `solve_theta4`). A reward
    that is neither 0 nor in [MIN_REWARD, inf) raises DomainError.
    """
    _check_reward(w)
    t0, t1, t3 = theta0(params), theta1(params, w), theta3(params, w)
    top = params.dist.theta_max
    solve_root = solve_theta2 if scheme_aware else solve_theta4
    case = case_index(params, w, scheme_aware)
    if isinstance(w, np.ndarray):
        top = np.full(len(w), top)
        root = np.full(len(w), math.nan)
        in_c = case == 2
        if in_c.any():
            root[in_c] = solve_root(params, w[in_c])
        cutoff, sub_lo, alone_lo, alone_hi = (
            np.choose(case, rule)
            for rule in zip(*_case_rules(t0, t1, t3, root, top, scheme_aware))
        )
        absent = np.full(len(w), math.nan)
        t2, t4 = (root, absent) if scheme_aware else (absent, root)
    else:
        root = solve_root(params, w) if case == 2 else math.nan
        cutoff, sub_lo, alone_lo, alone_hi = _case_rules(
            t0, t1, t3, root, top, scheme_aware
        )[case]
        root = root if case == 2 else None
        t2, t4 = (root, None) if scheme_aware else (None, root)
        case = (_SAR_CASES if scheme_aware else _SUR_CASES)[case]
    return Thresholds(
        w, case, t0, t1, t3, t2, t4, cutoff, (sub_lo, top), (alone_lo, alone_hi)
    )


def _best_response(
    params: MarketParams, theta: float, w: float, scheme_aware: bool
) -> UserDecision:
    if not 0.0 <= theta < math.inf:
        raise DomainError(f"user type must be finite and >= 0, got {theta!r}")
    if isinstance(w, np.ndarray):
        raise DomainError(
            f"a best response takes one reward, got an array of shape {w.shape}"
        )
    part = thresholds(params, w, scheme_aware)
    if theta >= part.cutoff:
        lo, hi = part.sub_watch
        x = _watch_subscriber(params, theta, w) if lo < hi and theta >= lo else 0.0
        return UserDecision(r=1, x=x)
    lo, hi = part.alone_watch
    x = _watch_alone(params, theta, w) if lo < hi and theta >= lo else 0.0
    return UserDecision(r=0, x=x)


def best_response_sar(params: MarketParams, theta: float, w: float) -> UserDecision:
    """Optimal (r, x) under the aware scheme (watching requires r = 1)."""
    return _best_response(params, theta, w, True)


def best_response_sur(params: MarketParams, theta: float, w: float) -> UserDecision:
    """Optimal (r, x) under the unaware scheme (anyone may watch)."""
    return _best_response(params, theta, w, False)
