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
values compute anyway. They are solved by bracketed Newton
(`numerics.newton_root`) to within half of `root_resolution` of the
exact root. The bracketing sign conditions are structural guarantees
and their violation raises InternalConsistencyError with diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InternalConsistencyError
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


@dataclass(frozen=True)
class Thresholds:
    """The thresholds at one reward, and the case they were solved for."""

    case: SarCase | SurCase
    theta0: float
    theta1: float
    theta3: float
    theta2: float | None = None
    theta4: float | None = None


@dataclass(frozen=True)
class UserDecision:
    r: int  # subscribe (1) or not (0)
    x: float  # ads watched per month


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


def classify_sar(params: MarketParams, w: float) -> SarCase:
    if w <= case_bound_a(params):
        return SarCase.A
    if w <= case_bound_b_sar(params):
        return SarCase.B
    return SarCase.C


def classify_sur(params: MarketParams, w: float) -> SurCase:
    if w <= 0.0:
        return SurCase.A
    # With u'(0) infinite every non-subscriber with theta > 0 gains from
    # watching at any positive reward, so case A^ (and B^) is empty.
    if math.isinf(params.utility.u_prime_zero):
        return SurCase.C if w < case_bound_d(params) else SurCase.D
    if w <= case_bound_a(params):
        return SurCase.A
    if w <= case_bound_b_sur(params):
        return SurCase.B
    if w < case_bound_d(params):
        return SurCase.C
    return SurCase.D


def case_index(params: MarketParams, w: np.ndarray, scheme_aware: bool) -> np.ndarray:
    """The case of every reward in the array w, classified as
    `classify_sar` / `classify_sur` do, as indices into list(SarCase)
    or list(SurCase)."""
    a = case_bound_a(params)
    if scheme_aware:
        return np.select([w <= a, w <= case_bound_b_sar(params)], [0, 1], 2)
    d = case_bound_d(params)
    if math.isinf(params.utility.u_prime_zero):
        return np.select([w <= 0.0, w < d], [0, 2], 3)
    return np.select([w <= a, w <= case_bound_b_sur(params), w < d], [0, 1, 2], 3)


def _x_level(params: MarketParams, theta, w: float):
    """Utility level (u')^{-1}(phi / (w theta)) the watcher tops up to.

    Returns 0 for theta = 0 (infinite marginal cost ratio). theta may
    also be an array of positive types, such as quadrature nodes.
    """
    if isinstance(theta, np.ndarray):
        return np.maximum(
            params.utility.inverse_marginal(params.phi / (w * theta)), 0.0
        )
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


def _bracketed_root(
    params: MarketParams, f, lo, hi, f_lo, f_hi, slope, w, at_lo, at_hi
):
    """Root of the convex f(params, w)(theta) on [lo, hi]: lo where
    at_lo, else hi where at_hi (a root degenerated to an endpoint
    exactly at a case boundary), else found by bracketed Newton to
    `root_resolution`, starting from the end where f > 0 with its slope
    `slope`. Elementwise, by `newton_roots`, when w is an array; each
    reward then takes the steps its scalar solve takes."""
    xtol = root_resolution(params)
    if isinstance(w, np.ndarray):
        root = np.where(at_lo, lo, hi)
        inner = ~at_lo & ~at_hi
        if inner.any():
            w_in = w[inner]
            root[inner] = newton_roots(
                lambda t, i: f(params, w_in[i])(t), lo[inner], hi[inner], xtol,
                f_lo[inner], f_hi[inner], slope[inner],
            )
        return root
    if at_lo:
        return lo
    if at_hi:
        return hi
    return newton_root(f(params, w), lo, hi, xtol, f_lo, f_hi, slope)


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
    h = _h(params, w)
    h1, _ = h(t1)
    h0, slope0 = h(t0)
    tol = 1e-9 * params.F
    bad = (h1 >= tol) | (h0 <= -tol)
    if _any(bad):
        t1_, h1_, t0_, h0_, w_ = _first(bad, t1, h1, t0, h0, w)
        raise InternalConsistencyError(
            "subscribe-iff-watching root bracket failed: expected "
            f"h(theta1) < 0 < h(theta0) but h({t1_:.6g})={h1_:.6g}, "
            f"h({t0_:.6g})={h0_:.6g} at w={w_:.6g}"
        )
    return _bracketed_root(
        params, _h, t1, t0, h1, h0, slope0, w, h1 >= 0.0, h0 <= 0.0
    )


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
    # v = F at theta = 0, where nobody gains from watching (u'(0) = inf),
    # with slope u(0) - u(Q) = -u(Q); the array v takes positive types
    v = _v(params, w)
    if isinstance(w, np.ndarray):
        v3 = np.full(len(w), params.F)
        slope3 = np.full(len(w), -params.utility.u(params.Q))
        pos = t3 > 0.0
        v3[pos], slope3[pos] = _v(params, w[pos])(t3[pos])
    else:
        v3, slope3 = v(t3)
    v1, _ = v(t1)
    tol = 1e-9 * params.F
    bad = (v3 <= -tol) | (v1 >= tol)
    if _any(bad):
        t3_, v3_, t1_, v1_, w_ = _first(bad, t3, v3, t1, v1, w)
        raise InternalConsistencyError(
            "non-subscriber band root bracket failed: expected "
            f"v(theta3) > 0 > v(theta1) but v({t3_:.6g})={v3_:.6g}, "
            f"v({t1_:.6g})={v1_:.6g} at w={w_:.6g}"
        )
    root = _bracketed_root(
        params, _v, t3, t1, v3, v1, slope3, w, v3 <= 0.0, v1 >= 0.0
    )
    t0 = theta0(params)
    low = root <= t0 * (1.0 - 1e-9) - root_resolution(params)
    if _any(low):
        root_, w_ = _first(low, root, w)
        raise InternalConsistencyError(
            f"subscription cutoff {root_:.6g} fell below the zero-reward "
            f"cutoff {t0:.6g} at w={w_:.6g}"
        )
    return root


def thresholds(params: MarketParams, w: float, scheme_aware: bool) -> Thresholds:
    """All thresholds relevant at reward w (aware or unaware scheme),
    with the case of w: the one classification every stage-II quantity
    at w reads."""
    t0, t1, t3 = theta0(params), theta1(params, w), theta3(params, w)
    t2 = t4 = None
    if scheme_aware:
        case = classify_sar(params, w)
        if case is SarCase.C:
            t2 = solve_theta2(params, w)
    else:
        case = classify_sur(params, w)
        if case is SurCase.C:
            t4 = solve_theta4(params, w)
    return Thresholds(case=case, theta0=t0, theta1=t1, theta3=t3, theta2=t2, theta4=t4)


def x_watch_subscriber(params: MarketParams, theta, w: float):
    """Ads watched by a subscriber with binding quota Q; theta may be
    a float or an array."""
    x = (_x_level(params, theta, w) - params.Q) / w
    if isinstance(x, np.ndarray):
        return np.maximum(x, 0.0)
    return max(x, 0.0)


def x_watch_alone(params: MarketParams, theta, w: float):
    """Ads watched by a non-subscriber (all data comes from rewards)."""
    return _x_level(params, theta, w) / w


def best_response_sar(params: MarketParams, theta: float, w: float) -> UserDecision:
    """Optimal (r, x) under the aware scheme (watching requires r = 1)."""
    case = classify_sar(params, w) if w > 0.0 else SarCase.A
    if case is SarCase.A:
        return UserDecision(r=int(theta >= theta0(params)), x=0.0)
    if case is SarCase.B:
        r = int(theta >= theta0(params))
        x = 0.0
        if r and theta >= theta1(params, w):
            x = x_watch_subscriber(params, theta, w)
        return UserDecision(r=r, x=x)
    t2 = solve_theta2(params, w)
    if theta >= t2:
        return UserDecision(r=1, x=x_watch_subscriber(params, theta, w))
    return UserDecision(r=0, x=0.0)


def best_response_sur(params: MarketParams, theta: float, w: float) -> UserDecision:
    """Optimal (r, x) under the unaware scheme (anyone may watch)."""
    case = classify_sur(params, w) if w > 0.0 else SurCase.A
    if case is SurCase.A:
        return UserDecision(r=int(theta >= theta0(params)), x=0.0)
    if case is SurCase.B:
        r = int(theta >= theta0(params))
        x = 0.0
        if r and theta >= theta1(params, w):
            x = x_watch_subscriber(params, theta, w)
        return UserDecision(r=r, x=x)
    if case is SurCase.C:
        t4 = solve_theta4(params, w)
        if theta >= t4:
            x = 0.0
            if theta >= theta1(params, w):
                x = x_watch_subscriber(params, theta, w)
            return UserDecision(r=1, x=x)
        if theta >= theta3(params, w) and theta > 0.0:
            return UserDecision(r=0, x=x_watch_alone(params, theta, w))
        return UserDecision(r=0, x=0.0)
    # Case D: rewards dominate the plan outright.
    if theta >= theta3(params, w) and theta > 0.0:
        return UserDecision(r=0, x=x_watch_alone(params, theta, w))
    return UserDecision(r=0, x=0.0)
