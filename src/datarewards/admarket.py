"""Ad side of the market: watcher aggregates, the advertisers' slot
purchases under the wear-out effect, and the operator's slot price.

An advertiser buying m slots reaches a random watcher sample; showing
the same ad repeatedly to one user loses effectiveness quadratically,
which makes the advertiser payoff quadratic in m with a closed-form
maximizer driven by the first two moments of the per-watcher ad count.

Those moments come from each watch segment's mass and its int x g and
int x^2 g (`watch_moments`). The ads are affine in the utility's basis
function of the type, so they are taken in closed form under uniform
types and, for log utility, under truncated-normal types
(`model.UniformTypes.basis_moments`,
`model.TruncatedNormalTypes.basis_moments`), and in the other
families by quadrature of the same rises of the basis.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import (
    MarketParams,
    Scheme,
    TypeDistribution,
    basis_rise,
    integrate,
    integrate_segments,
    mass,
)
from .users import SurCase, Thresholds, thresholds


class UserClass(Enum):
    ALL = "all"
    SUBSCRIBERS = "subscribers"
    NON_SUBSCRIBERS = "non_subscribers"


class AdMarketStats(NamedTuple):
    """Watcher mass and per-watcher ad-count moments; elementwise
    arrays at an array of rewards.

    n_ad = 0 forces ey = ey2 = 0 by convention.
    """

    n_ad: float
    ey: float
    ey2: float


ZERO_STATS = AdMarketStats(n_ad=0.0, ey=0.0, ey2=0.0)


class WatchMoments(NamedTuple):
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


_NO_WATCHERS = WatchMoments(0.0, 0.0, 0.0)


def _segment_moments(
    params: MarketParams, w, lo, hi, z, array: bool | None = None
) -> WatchMoments:
    """Moments of the watch segment [lo, hi], whose ads vanish at z
    (theta1 for subscribers, theta3 for non-subscribers); zero where the
    segment holds no mass; array: whether w is an array (else found).

    On the segment x = B(w) (g(theta) - g(z)) (see `model`), so the
    moments are B and B^2 times the integrals of the basis rise
    (g - g(z))^j against the density. Where the density integrates
    them in closed form (`basis_moments`: every utility under uniform
    types, log utility under truncated-normal types), those are taken.
    Every other family integrates the rise (`basis_rise`, which does not
    cancel for theta near z) by one `integrate` pass at one reward or
    one `integrate_segments` pass at an array of rewards."""
    array = isinstance(w, np.ndarray) if array is None else array
    if not array and hi <= lo:
        return _NO_WATCHERS
    k = params.utility.basis_power
    moments = params.dist.basis_moments(k, z, lo, hi)
    if moments is None:
        moments = _rise_quadrature(params.dist, k, z, lo, hi, array)
    seg_mass, rise, rise2 = moments
    if array:
        w = np.where(seg_mass > 0.0, w, 1.0)  # B at w = 0 is not needed
    elif seg_mass <= 0.0:
        return _NO_WATCHERS
    scale = params.utility.watch_scale(params.phi, w)
    return WatchMoments(seg_mass, scale * rise, scale * scale * rise2)


def _rise_quadrature(dist: TypeDistribution, k: float, z, lo, hi, array: bool) -> tuple:
    """Mass of the segment [lo, hi] and the integrals of the basis rise
    (g - g(z))^j against the density, j = 1, 2, by quadrature: floats,
    or arrays for arrays of segments, 0 for an empty one. The rise is
    taken from each node's distance from z, which the integrators give
    exactly where the nodes, rounded to ulp(theta), would not."""
    def rises(start, d):
        rise = basis_rise(k, start, d)
        return np.array((rise, rise * rise))

    if array:
        seg_mass = mass(dist, lo, hi)
        hi = np.where(seg_mass > 0.0, hi, lo)
        ex = integrate_segments(dist, lambda _, seg, d: rises(z[seg], d), lo, hi, 2, origin=z)
        return (seg_mass, *ex)
    if hi <= lo or (seg_mass := dist.mass(lo, hi)) <= 0.0:  # `mass`, without its dispatch
        return 0.0, 0.0, 0.0  # empty, or outside the support
    return (seg_mass, *integrate(dist, lambda _, d: rises(z, d), lo, hi, origin=z).tolist())


def watch_moments(
    params: MarketParams, part: Thresholds
) -> tuple[WatchMoments, WatchMoments]:
    """Moments of the subscribers' and of the non-subscribers' watch
    segments of the partition. Demand and the pooled and per-class ad
    stats derive from these."""
    array = isinstance(part.w, np.ndarray)
    return (
        _segment_moments(params, part.w, *part.sub_watch, part.theta1, array),
        _segment_moments(params, part.w, *part.alone_watch, part.theta3, array),
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
    return _slots(params, *stats, p)


def _slots(params: MarketParams, n_ad: float, ey: float, ey2: float, p: float) -> float:
    if n_ad <= 0.0 or p >= params.B or ey2 <= 0.0:
        return 0.0
    return (params.B - p) / (2.0 * params.A) * (ey**2 / ey2) * n_ad


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
    return _price(params, *stats)


def _price(params: MarketParams, n_ad: float, ey: float, ey2: float) -> float:
    if n_ad <= 0.0 or ey <= 0.0:
        return params.B / 2.0
    p = params.B - 2.0 * params.A * ey2 / (params.K * ey)
    return p if p > params.B / 2.0 else params.B / 2.0  # max(B / 2, p)


class AdSideOutcome(NamedTuple):
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


def _pool_at(params: MarketParams, mass: float, ex: float, ex2: float) -> tuple[float, float]:
    """`pool_revenue` of a pool's `_stats` at one reward, without the records."""
    if mass <= 0.0:
        return 0.0, params.B / 2.0
    stats = params.N * mass, ex / mass, ex2 / mass
    p = _price(params, *stats)
    return params.K * _slots(params, *stats, p) * p, p


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
    array = isinstance(part.w, np.ndarray)
    # a pool's revenue and price from its moments' fields
    pool = (lambda p_, *f: pool_revenue(_stats(p_, WatchMoments(*f)), p_)) if array else _pool_at
    rev, p = pool(params, sub.mass + alone.mass, sub.ex + alone.ex, sub.ex2 + alone.ex2)
    pooled = AdSideOutcome(rev, p, None, None)
    if scheme is Scheme.SAR:
        return pooled, None
    in_c = part.case == 2 if array else part.case is SurCase.C
    if not (array or in_c):
        return pooled, pooled
    (rev_i, p_i), (rev_ii, p_ii) = pool(params, *sub), pool(params, *alone)
    if not array:
        return pooled, AdSideOutcome(rev_i + rev_ii, None, p_i, p_ii)
    return pooled, AdSideOutcome(
        np.where(in_c, rev_i + rev_ii, rev),
        np.where(in_c, math.nan, p),
        np.where(in_c, p_i, math.nan),
        np.where(in_c, p_ii, math.nan),
    )
