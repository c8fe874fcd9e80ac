"""Ad side of the market: watcher aggregates, the advertisers' slot
purchases under the wear-out effect, and the operator's slot price.

An advertiser buying m slots reaches a random watcher sample; showing
the same ad repeatedly to one user loses effectiveness quadratically,
which makes the advertiser payoff quadratic in m with a closed-form
maximizer driven by the first two moments of the per-watcher ad count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .model import MarketParams, Scheme, integrate, mass
from .users import (
    SarCase,
    SurCase,
    Thresholds,
    thresholds,
    x_watch_alone,
    x_watch_subscriber,
)


class UserClass(Enum):
    ALL = "all"
    SUBSCRIBERS = "subscribers"
    NON_SUBSCRIBERS = "non_subscribers"


@dataclass(frozen=True)
class AdMarketStats:
    """Watcher mass and per-watcher ad-count moments.

    n_ad = 0 forces ey = ey2 = 0 by convention.
    """

    n_ad: float
    ey: float
    ey2: float
    user_class: UserClass = UserClass.ALL


ZERO_STATS = AdMarketStats(n_ad=0.0, ey=0.0, ey2=0.0)


def _aware(scheme: Scheme) -> bool:
    return scheme is Scheme.SAR


def watch_segments(
    params: MarketParams,
    w: float,
    scheme: Scheme,
    thr: Thresholds | None = None,
) -> list[tuple[float, float, bool]]:
    """Analytic watching segments as (lo, hi, watcher_subscribes).

    The segment endpoints are the thresholds themselves; integrals over
    them never scan indicator functions.
    """
    if thr is None:
        thr = thresholds(params, w, _aware(scheme))
    theta_max = params.dist.theta_max
    case = thr.case
    segments: list[tuple[float, float, bool]] = []
    if case is SarCase.B or case is SurCase.B:
        segments.append((thr.theta1, theta_max, True))
    elif case is SarCase.C:
        assert thr.theta2 is not None
        segments.append((thr.theta2, theta_max, True))
    elif case is SurCase.C:
        assert thr.theta4 is not None
        segments.append((thr.theta3, min(thr.theta4, theta_max), False))
        segments.append((thr.theta1, theta_max, True))
    elif case is SurCase.D:
        segments.append((thr.theta3, theta_max, False))
    return [(lo, hi, sub) for lo, hi, sub in segments if hi > lo]


@dataclass(frozen=True)
class WatchMoments:
    """Type mass of one watch segment and the weighted integrals of the
    ads watched there, int x g and int x^2 g."""

    subscribes: bool
    mass: float
    ex: float
    ex2: float


def watch_moments(
    params: MarketParams,
    w: float,
    scheme: Scheme,
    thr: Thresholds | None = None,
) -> list[WatchMoments]:
    """Mass and first two ad-count integrals of every watch segment,
    each from one quadrature pass. Demand and the pooled and per-class
    ad stats at reward w all derive from these."""
    out: list[WatchMoments] = []
    for lo, hi, subscribes in watch_segments(params, w, scheme, thr):
        seg_mass = mass(params.dist, lo, hi)
        if seg_mass <= 0.0:
            continue  # outside the density's support: nobody watches there
        xfun = x_watch_subscriber if subscribes else x_watch_alone

        def x_and_x2(theta):
            x = xfun(params, theta, w)
            return np.array((x, x * x))

        ex, ex2 = integrate(params.dist, x_and_x2, lo, hi).tolist()
        out.append(WatchMoments(subscribes, seg_mass, ex, ex2))
    return out


def ad_stats(
    params: MarketParams,
    w: float,
    scheme: Scheme,
    user_class: UserClass = UserClass.ALL,
    thr: Thresholds | None = None,
    moments: list[WatchMoments] | None = None,
) -> AdMarketStats:
    """Watcher mass and moments of ads-per-watcher at reward w.

    `moments` (from `watch_moments` at the same w) skips recomputing
    the segment integrals.
    """
    if user_class is not UserClass.ALL and scheme is not Scheme.SURD:
        raise DomainError("per-class stats only apply to the differentiated scheme")
    if moments is None:
        moments = watch_moments(params, w, scheme, thr)
    if user_class is not UserClass.ALL:
        subscribers = user_class is UserClass.SUBSCRIBERS
        moments = [m for m in moments if m.subscribes is subscribers]
    total_mass = sum(m.mass for m in moments)
    if total_mass <= 0.0:
        return AdMarketStats(0.0, 0.0, 0.0, user_class)
    return AdMarketStats(
        n_ad=params.N * total_mass,
        ey=sum(m.ex for m in moments) / total_mass,
        ey2=sum(m.ex2 for m in moments) / total_mass,
        user_class=user_class,
    )


def grid_stats(
    params: MarketParams, seg_mass: np.ndarray, ex: np.ndarray, ex2: np.ndarray
) -> AdMarketStats:
    """`ad_stats` at many rewards at once, from the summed mass, int x g
    and int x^2 g of the watch segments of each pool: an AdMarketStats
    whose fields are arrays."""
    watched = seg_mass > 0.0
    denom = np.where(watched, seg_mass, 1.0)
    return AdMarketStats(
        n_ad=np.where(watched, params.N * seg_mass, 0.0),
        ey=np.where(watched, ex / denom, 0.0),
        ey2=np.where(watched, ex2 / denom, 0.0),
    )


def advertiser_best_response(stats: AdMarketStats, params: MarketParams, p):
    """Slots one advertiser buys at price p (vertex of its quadratic
    payoff); elementwise for the array fields of `grid_stats`."""
    if isinstance(stats.n_ad, np.ndarray):
        buys = (stats.n_ad > 0.0) & (p < params.B) & (stats.ey2 > 0.0)
        ey2 = np.where(buys, stats.ey2, 1.0)
        m = (params.B - p) / (2.0 * params.A) * (stats.ey**2 / ey2) * stats.n_ad
        return np.where(buys, m, 0.0)
    if stats.n_ad <= 0.0 or p >= params.B or stats.ey2 <= 0.0:
        return 0.0
    return (params.B - p) / (2.0 * params.A) * (stats.ey**2 / stats.ey2) * stats.n_ad


def optimal_price(stats: AdMarketStats, params: MarketParams):
    """Revenue-maximizing slot price for the given watcher pool;
    elementwise for the array fields of `grid_stats`.

    With no watchers any positive price yields zero revenue; B/2 is
    returned so outputs stay deterministic.
    """
    if isinstance(stats.n_ad, np.ndarray):
        priced = (stats.n_ad > 0.0) & (stats.ey > 0.0)
        ey = np.where(priced, stats.ey, 1.0)
        p = np.maximum(
            params.B / 2.0, params.B - 2.0 * params.A * stats.ey2 / (params.K * ey)
        )
        return np.where(priced, p, params.B / 2.0)
    if stats.n_ad <= 0.0 or stats.ey <= 0.0:
        return params.B / 2.0
    return max(
        params.B / 2.0,
        params.B - 2.0 * params.A * stats.ey2 / (params.K * stats.ey),
    )


@dataclass(frozen=True)
class AdSideOutcome:
    """Ad revenue at the operator's optimal price(s) for one reward level."""

    revenue: float
    p_star: float | None  # pooled price (aware/unaware schemes)
    p_star_i: float | None  # subscriber-slot price (differentiated)
    p_star_ii: float | None  # non-subscriber-slot price (differentiated)


def pool_revenue(stats: AdMarketStats, params: MarketParams):
    """Ad revenue of one watcher pool at its optimal price, and that
    price; elementwise for the array fields of `grid_stats`."""
    p = optimal_price(stats, params)
    m = advertiser_best_response(stats, params, p)
    return params.K * m * p, p


def ad_side(
    params: MarketParams,
    w: float,
    scheme: Scheme,
    thr: Thresholds | None = None,
    moments: list[WatchMoments] | None = None,
) -> AdSideOutcome:
    """Optimal slot pricing and resulting ad revenue at reward w.

    The differentiated scheme prices subscriber and non-subscriber
    slots separately whenever both watcher classes exist (the two
    pricing problems have the same structure as the pooled one); with a
    single watcher class it coincides with the unaware scheme.
    """
    if thr is None:
        thr = thresholds(params, w, _aware(scheme))
    if moments is None:
        moments = watch_moments(params, w, scheme, thr)
    if scheme is Scheme.SURD and thr.case is SurCase.C:
        rev_i, p_i = pool_revenue(
            ad_stats(params, w, scheme, UserClass.SUBSCRIBERS, moments=moments),
            params,
        )
        rev_ii, p_ii = pool_revenue(
            ad_stats(params, w, scheme, UserClass.NON_SUBSCRIBERS, moments=moments),
            params,
        )
        return AdSideOutcome(rev_i + rev_ii, None, p_i, p_ii)
    stats = ad_stats(params, w, scheme, UserClass.ALL, moments=moments)
    rev, p = pool_revenue(stats, params)
    return AdSideOutcome(rev, p, None, None)
