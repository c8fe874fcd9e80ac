"""Ad side of the market: watcher aggregates, the advertisers' slot
purchases under the wear-out effect, and the operator's slot price.

An advertiser buying m slots reaches a random watcher sample; showing
the same ad repeatedly to one user loses effectiveness quadratically,
which makes the advertiser payoff quadratic in m with a closed-form
maximizer driven by the first two moments of the per-watcher ad count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .model import MarketParams, Scheme, integrate, integrate_segments, mass
# the ads a watcher takes, the stage-II integrands: their quadrature
# nodes are positive types
from .users import SurCase, Thresholds, _watch_alone, _watch_subscriber, thresholds


class UserClass(Enum):
    ALL = "all"
    SUBSCRIBERS = "subscribers"
    NON_SUBSCRIBERS = "non_subscribers"


@dataclass(frozen=True)
class AdMarketStats:
    """Watcher mass and per-watcher ad-count moments; elementwise
    arrays at an array of rewards.

    n_ad = 0 forces ey = ey2 = 0 by convention.
    """

    n_ad: float
    ey: float
    ey2: float


ZERO_STATS = AdMarketStats(n_ad=0.0, ey=0.0, ey2=0.0)


@dataclass(frozen=True)
class WatchMoments:
    """Type mass of a pool of watchers and the weighted integrals of the
    ads they watch, int x g and int x^2 g: floats at one reward, arrays
    at an array of rewards. Two pools add up to the pooled one."""

    mass: float | np.ndarray
    ex: float | np.ndarray
    ex2: float | np.ndarray

    def __add__(self, other: WatchMoments) -> WatchMoments:
        return WatchMoments(
            self.mass + other.mass, self.ex + other.ex, self.ex2 + other.ex2
        )


def _segment_moments(params: MarketParams, w, lo, hi, xfun) -> WatchMoments:
    """Moments of the watch segment [lo, hi] with ads x = xfun, from one
    `integrate` pass at one reward or one `integrate_segments` pass at
    an array of rewards; zero where the segment holds no mass."""

    def x_and_x2(theta, seg=None):
        x = xfun(params, theta, w if seg is None else w[seg])
        return np.array((x, x * x))

    seg_mass = mass(params.dist, lo, hi)
    if isinstance(w, np.ndarray):
        hi = np.where(seg_mass > 0.0, hi, lo)
        ex, ex2 = integrate_segments(params.dist, x_and_x2, lo, hi, 2)
        return WatchMoments(seg_mass, ex, ex2)
    if seg_mass <= 0.0:
        return WatchMoments(0.0, 0.0, 0.0)  # empty, or outside the support
    ex, ex2 = integrate(params.dist, x_and_x2, lo, hi).tolist()
    return WatchMoments(seg_mass, ex, ex2)


def watch_moments(
    params: MarketParams, part: Thresholds
) -> tuple[WatchMoments, WatchMoments]:
    """Moments of the subscribers' and of the non-subscribers' watch
    segments of the partition. Demand and the pooled and per-class ad
    stats derive from these."""
    return (
        _segment_moments(params, part.w, *part.sub_watch, _watch_subscriber),
        _segment_moments(params, part.w, *part.alone_watch, _watch_alone),
    )


def _stats(params: MarketParams, pool: WatchMoments) -> AdMarketStats:
    """Watcher mass and ad-count moments of one pool of watchers."""
    if isinstance(pool.mass, np.ndarray):
        watched = pool.mass > 0.0
        denom = np.where(watched, pool.mass, 1.0)
        return AdMarketStats(
            n_ad=np.where(watched, params.N * pool.mass, 0.0),
            ey=np.where(watched, pool.ex / denom, 0.0),
            ey2=np.where(watched, pool.ex2 / denom, 0.0),
        )
    if pool.mass <= 0.0:
        return ZERO_STATS
    return AdMarketStats(
        n_ad=params.N * pool.mass,
        ey=pool.ex / pool.mass,
        ey2=pool.ex2 / pool.mass,
    )


def ad_stats(
    params: MarketParams,
    w: float,
    scheme: Scheme,
    user_class: UserClass = UserClass.ALL,
) -> AdMarketStats:
    """Watcher mass and moments of ads-per-watcher at reward w."""
    if user_class is not UserClass.ALL and scheme is not Scheme.SURD:
        raise DomainError("per-class stats only apply to the differentiated scheme")
    sub, alone = watch_moments(params, thresholds(params, w, scheme is Scheme.SAR))
    pool = {UserClass.SUBSCRIBERS: sub, UserClass.NON_SUBSCRIBERS: alone}
    return _stats(params, pool.get(user_class, sub + alone))


def advertiser_best_response(stats: AdMarketStats, params: MarketParams, p):
    """Slots one advertiser buys at price p (vertex of its quadratic
    payoff); elementwise for array fields."""
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
    elementwise for array fields.

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
    """Ad revenue at the operator's optimal price(s) for one reward level;
    elementwise arrays at an array of rewards, NaN for an absent price."""

    revenue: float
    p_star: float | None  # pooled price (aware/unaware schemes)
    p_star_i: float | None  # subscriber-slot price (differentiated)
    p_star_ii: float | None  # non-subscriber-slot price (differentiated)


def pool_revenue(stats: AdMarketStats, params: MarketParams):
    """Ad revenue of one watcher pool at its optimal price, and that
    price; elementwise for array fields."""
    p = optimal_price(stats, params)
    m = advertiser_best_response(stats, params, p)
    return params.K * m * p, p


def ad_sides(
    params: MarketParams,
    part: Thresholds,
    moments: tuple[WatchMoments, WatchMoments],
    scheme: Scheme,
) -> tuple[AdSideOutcome, AdSideOutcome | None]:
    """Optimal slot pricing at the reward(s) of the partition, from its
    `watch_moments`: the pooled ad side and, under the unaware schemes,
    the differentiated one (None under SAR).

    The differentiated scheme prices subscriber and non-subscriber
    slots separately whenever both watcher classes exist, in case C^
    (the two pricing problems have the same structure as the pooled
    one); elsewhere it coincides with the pooled scheme.
    """
    sub, alone = moments
    rev, p = pool_revenue(_stats(params, sub + alone), params)
    pooled = AdSideOutcome(rev, p, None, None)
    if scheme is Scheme.SAR:
        return pooled, None
    array = isinstance(part.w, np.ndarray)
    in_c = part.case == 2 if array else part.case is SurCase.C
    if not (array or in_c):
        return pooled, pooled
    rev_i, p_i = pool_revenue(_stats(params, sub), params)
    rev_ii, p_ii = pool_revenue(_stats(params, alone), params)
    if not array:
        return pooled, AdSideOutcome(rev_i + rev_ii, None, p_i, p_ii)
    return pooled, AdSideOutcome(
        np.where(in_c, rev_i + rev_ii, rev),
        np.where(in_c, math.nan, p),
        np.where(in_c, p_i, math.nan),
        np.where(in_c, p_ii, math.nan),
    )
