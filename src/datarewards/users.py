"""Stage-II user side: valuation thresholds and exact best responses.

Given a unit data reward w, the user population splits at up to five
valuation thresholds:

  theta0  subscribe-without-reward cutoff, F/u(Q)
  theta1  subscribers start watching ads, phi/(w u'(Q))
  theta2  subscribe-iff-watching cutoff (aware scheme, high w)
  theta3  anyone starts watching ads, phi/(w u'(0))
  theta4  subscription cutoff when non-subscribers may watch (unaware)

theta2 and theta4 are roots of scalar equations solved by bisection;
the bracketing sign conditions are structural guarantees and their
violation raises InternalConsistencyError with diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InternalConsistencyError
from .model import MarketParams
from .numerics import bisect_root


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


def theta1(params: MarketParams, w: float) -> float:
    if w <= 0.0:
        return math.inf
    return params.phi / (w * params.utility.u_prime(params.Q))


def theta3(params: MarketParams, w: float) -> float:
    up0 = params.utility.u_prime_zero
    if math.isinf(up0):
        return 0.0
    if w <= 0.0:
        return math.inf
    return params.phi / (w * up0)


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


def solve_theta2(params: MarketParams, w: float) -> float:
    """Subscribe-iff-watching cutoff for the aware scheme, high reward.

    Root of h(theta) = theta u(level) - F - (phi/w)(level - Q) on
    (theta1, theta0), where level = (u')^{-1}(phi/(w theta)). h is the
    net payoff of "subscribe and watch" at the watcher's interior
    optimum; it is strictly increasing between the brackets.
    """
    u = params.utility
    t0, t1 = theta0(params), theta1(params, w)

    def h(theta: float) -> float:
        level = _x_level(params, theta, w)
        return (theta * u.u(level) - params.F
                - (params.phi / w) * (level - params.Q))

    h1, h0 = h(t1), h(t0)
    tol = 1e-9 * params.F
    if h1 >= tol or h0 <= -tol:
        raise InternalConsistencyError(
            "subscribe-iff-watching root bracket failed: expected "
            f"h(theta1) < 0 < h(theta0) but h({t1:.6g})={h1:.6g}, "
            f"h({t0:.6g})={h0:.6g} at w={w:.6g}"
        )
    # Exactly at a case boundary the root degenerates to an endpoint.
    if h1 >= 0.0:
        return t1
    if h0 <= 0.0:
        return t0
    return bisect_root(h, t1, t0, xtol=1e-10 * params.dist.theta_max,
                       f_lo=h1, f_hi=h0)


def solve_theta4(params: MarketParams, w: float) -> float:
    """Subscription cutoff for the unaware scheme, mid-range reward.

    Root of v(theta) = theta u(level) - (phi/w) level - theta u(Q) + F
    on (theta3, theta1): below it users watch ads without subscribing,
    above it they subscribe. The returned root always exceeds theta0.
    """
    u = params.utility
    t1, t3 = theta1(params, w), theta3(params, w)

    def v(theta: float) -> float:
        if theta <= 0.0:
            return params.F
        level = _x_level(params, theta, w)
        return (theta * u.u(level) - (params.phi / w) * level
                - theta * u.u(params.Q) + params.F)

    v3, v1 = v(t3), v(t1)
    tol = 1e-9 * params.F
    if v3 <= -tol or v1 >= tol:
        raise InternalConsistencyError(
            "non-subscriber band root bracket failed: expected "
            f"v(theta3) > 0 > v(theta1) but v({t3:.6g})={v3:.6g}, "
            f"v({t1:.6g})={v1:.6g} at w={w:.6g}"
        )
    if v3 <= 0.0:
        root = t3
    elif v1 >= 0.0:
        root = t1
    else:
        root = bisect_root(v, t3, t1, xtol=1e-10 * params.dist.theta_max,
                           f_lo=v3, f_hi=v1)
    t0 = theta0(params)
    if root <= t0 * (1.0 - 1e-9):
        raise InternalConsistencyError(
            f"subscription cutoff {root:.6g} fell below the zero-reward "
            f"cutoff {t0:.6g} at w={w:.6g}"
        )
    return root


def thresholds(params: MarketParams, w: float, scheme_aware: bool) -> Thresholds:
    """All thresholds relevant at reward w (aware or unaware scheme)."""
    t0, t1, t3 = theta0(params), theta1(params, w), theta3(params, w)
    t2 = t4 = None
    if scheme_aware:
        if classify_sar(params, w) is SarCase.C:
            t2 = solve_theta2(params, w)
    else:
        if classify_sur(params, w) is SurCase.C:
            t4 = solve_theta4(params, w)
    return Thresholds(theta0=t0, theta1=t1, theta3=t3, theta2=t2, theta4=t4)


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
