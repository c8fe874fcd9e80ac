import numpy as np
import pytest

from datarewards import (
    AdMarketStats,
    DomainError,
    LogUtility,
    MarketParams,
    Scheme,
    UniformTypes,
    UserClass,
    ad_stats,
    advertiser_best_response,
    evaluate_point,
    optimal_price,
    solve_theta2,
)
from datarewards.admarket import ZERO_STATS
from datarewards.oracle import advertiser_payoff, oracle_adv_br
from datarewards.users import (
    case_bound_b_sar,
    case_bound_b_sur,
    case_bound_d,
    theta1,
    thresholds,
)


def _log_uniform(**over) -> MarketParams:
    kw = dict(
        N=1e7, F=30.0, Q=0.8, phi=0.3, K=23.0, A=0.6, B=5.0, C=1.6e7,
        utility=LogUtility(), dist=UniformTypes(155.0),
    )
    kw.update(over)
    return MarketParams(**kw)


# ---------------------------------------------------------------------------
# closed-form watcher moments (logarithmic utility, uniform types)
# ---------------------------------------------------------------------------


def test_case_b_moments_closed_form():
    p = _log_uniform()
    w = 0.9 * case_bound_b_sar(p)
    t1 = theta1(p, w)
    tm = 155.0
    stats = ad_stats(p, w, Scheme.SAR)
    assert stats.n_ad == pytest.approx(p.N * (tm - t1) / tm, rel=1e-6)
    assert stats.ey == pytest.approx((tm - t1) / (2.0 * p.phi), rel=1e-6)
    assert stats.ey2 == pytest.approx((tm - t1) ** 2 / (3.0 * p.phi**2), rel=1e-6)


def test_case_b_slots_closed_form():
    p = _log_uniform()
    w = 0.9 * case_bound_b_sar(p)
    t1 = theta1(p, w)
    stats = ad_stats(p, w, Scheme.SAR)
    for price in (1.0, 2.5, 4.0):
        expected = (3.0 / 8.0) * (p.B - price) / p.A * (155.0 - t1) / 155.0 * p.N
        assert advertiser_best_response(stats, p, price) == pytest.approx(
            expected, rel=1e-6
        )
    assert advertiser_best_response(stats, p, p.B) == 0.0
    assert advertiser_best_response(stats, p, p.B + 1.0) == 0.0


def test_case_c_moments_closed_form():
    p = _log_uniform()
    w = 1.3 * case_bound_b_sar(p)
    t1 = theta1(p, w)
    t2 = solve_theta2(p, w)
    tm = 155.0
    stats = ad_stats(p, w, Scheme.SAR)
    ey = (t2 - t1 + tm - t1) / (2.0 * p.phi)
    ey2 = ey**2 + ((tm - t2) / p.phi) ** 2 / 12.0
    assert stats.n_ad == pytest.approx(p.N * (tm - t2) / tm, rel=1e-6)
    assert stats.ey == pytest.approx(ey, rel=1e-6)
    assert stats.ey2 == pytest.approx(ey2, rel=1e-6)


def test_case_c_slots_closed_form():
    p = _log_uniform()
    w = 1.3 * case_bound_b_sar(p)
    t1 = theta1(p, w)
    t2 = solve_theta2(p, w)
    tm = 155.0
    stats = ad_stats(p, w, Scheme.SAR)
    price = 2.0
    expected = (
        (3.0 / 8.0) * (p.B - price) / p.A * (p.N / tm)
        * ((tm - t1) ** 2 - (t2 - t1) ** 2) ** 2
        / ((tm - t1) ** 3 - (t2 - t1) ** 3)
    )
    assert advertiser_best_response(stats, p, price) == pytest.approx(
        expected, rel=1e-6
    )


# ---------------------------------------------------------------------------
# price setting
# ---------------------------------------------------------------------------


def test_price_branches():
    p = _log_uniform()
    # interior branch: supply-limited price above B/2
    stats = AdMarketStats(n_ad=1e6, ey=10.0, ey2=105.0)
    interior = p.B - 2.0 * p.A * stats.ey2 / (p.K * stats.ey)
    assert interior > p.B / 2.0
    assert optimal_price(stats, p) == pytest.approx(interior, rel=1e-12)
    # vertex branch: highly dispersed views, price pinned at B/2
    loose = AdMarketStats(n_ad=1e6, ey=100.0, ey2=10_500.0)
    assert p.B - 2.0 * p.A * loose.ey2 / (p.K * loose.ey) < p.B / 2.0
    assert optimal_price(loose, p) == p.B / 2.0


def test_no_watchers_price_is_half_b():
    p = _log_uniform()
    assert optimal_price(ZERO_STATS, p) == p.B / 2.0
    assert advertiser_best_response(ZERO_STATS, p, 1.0) == 0.0


def test_sell_out_identity_on_interior_branch():
    """At a supply-limited price the K advertisers buy every view."""
    p = _log_uniform()
    stats = AdMarketStats(n_ad=1e6, ey=10.0, ey2=105.0)
    price = optimal_price(stats, p)
    assert price > p.B / 2.0
    m_star = advertiser_best_response(stats, p, price)
    assert p.K * m_star == pytest.approx(stats.ey * stats.n_ad, rel=1e-10)


def test_higher_dispersion_lowers_slot_demand():
    p = _log_uniform()
    tight = AdMarketStats(n_ad=1e6, ey=50.0, ey2=2600.0)
    wide = AdMarketStats(n_ad=1e6, ey=50.0, ey2=5200.0)
    assert advertiser_best_response(wide, p, 2.0) < advertiser_best_response(
        tight, p, 2.0
    )


def test_advertiser_br_matches_grid_oracle():
    p = _log_uniform()
    w = 0.9 * case_bound_b_sar(p)
    stats = ad_stats(p, w, Scheme.SAR)
    for price in (0.5, 2.0, 3.5, 4.9):
        closed = advertiser_best_response(stats, p, price)
        grid = oracle_adv_br(stats, p, price)
        assert grid == pytest.approx(closed, rel=1e-4)


def test_advertiser_payoff_concave_and_peaked_at_br():
    p = _log_uniform()
    stats = AdMarketStats(n_ad=1e6, ey=50.0, ey2=3000.0)
    price = 2.0
    m_star = advertiser_best_response(stats, p, price)
    ms = np.linspace(0.0, 2.0 * m_star, 101)
    vals = np.array([advertiser_payoff(stats, p, price, m) for m in ms])
    assert np.all(np.diff(vals, 2) <= 1e-6 * abs(vals[0] + 1.0))
    at_br = advertiser_payoff(stats, p, price, m_star)
    assert at_br >= np.max(vals) - 1e-9 * abs(at_br)


# ---------------------------------------------------------------------------
# scheme-level revenue and class handling
# ---------------------------------------------------------------------------


def test_class_split_requires_differentiated_scheme():
    p = _log_uniform()
    w = 0.9 * case_bound_b_sar(p)
    with pytest.raises(DomainError):
        ad_stats(p, w, Scheme.SAR, UserClass.SUBSCRIBERS)
    with pytest.raises(DomainError):
        ad_stats(p, w, Scheme.SUR, UserClass.NON_SUBSCRIBERS)


def test_class_stats_mix_back_to_pooled():
    p = _log_uniform()
    w = 0.5 * (case_bound_b_sur(p) + case_bound_d(p))  # two watcher classes
    pooled = ad_stats(p, w, Scheme.SUR)
    sub = ad_stats(p, w, Scheme.SURD, UserClass.SUBSCRIBERS)
    non = ad_stats(p, w, Scheme.SURD, UserClass.NON_SUBSCRIBERS)
    assert sub.n_ad > 0.0 and non.n_ad > 0.0
    assert sub.n_ad + non.n_ad == pytest.approx(pooled.n_ad, rel=1e-8)
    assert sub.n_ad * sub.ey + non.n_ad * non.ey == pytest.approx(
        pooled.n_ad * pooled.ey, rel=1e-8
    )
    assert sub.n_ad * sub.ey2 + non.n_ad * non.ey2 == pytest.approx(
        pooled.n_ad * pooled.ey2, rel=1e-8
    )


def test_differentiated_prices_only_with_two_classes():
    p = _log_uniform()
    w_two = 0.5 * (case_bound_b_sur(p) + case_bound_d(p))
    out = evaluate_point(p, w_two, Scheme.SURD).ad
    assert out.p_star is None
    assert out.p_star_i is not None and out.p_star_ii is not None

    w_one = 0.9 * case_bound_b_sur(p)
    out = evaluate_point(p, w_one, Scheme.SURD).ad
    assert out.p_star is not None
    assert out.p_star_i is None and out.p_star_ii is None


def test_differentiation_never_loses_revenue():
    p = _log_uniform()
    for w in np.linspace(1e-4, 1.5 * case_bound_d(p), 25):
        rev_pool = evaluate_point(p, float(w), Scheme.SUR).ad.revenue
        rev_diff = evaluate_point(p, float(w), Scheme.SURD).ad.revenue
        assert rev_diff >= rev_pool * (1.0 - 1e-9)


def _nonempty_segments(part) -> list[tuple[float, float]]:
    """The partition's watch segments that hold types, non-subscribers'
    first."""
    return [(lo, hi) for lo, hi in (part.alone_watch, part.sub_watch) if hi > lo]


def test_watch_segments_disjoint_and_ordered():
    p = _log_uniform()
    for w in np.linspace(1e-4, 1.5 * case_bound_d(p), 25):
        for scheme in (Scheme.SAR, Scheme.SUR):
            part = thresholds(p, float(w), scheme_aware=scheme is Scheme.SAR)
            segs = _nonempty_segments(part)
            for (lo, hi), (lo2, _) in zip(segs, segs[1:]):
                assert hi <= lo2
            for lo, hi in segs:
                assert 0.0 <= lo < hi <= 155.0
            # non-subscribers watch below the subscription cutoff,
            # subscribers at or above it
            alone_lo, alone_hi = part.alone_watch
            assert alone_hi <= alone_lo or alone_hi <= part.cutoff
            sub_lo, sub_hi = part.sub_watch
            assert sub_hi <= sub_lo or sub_lo >= part.cutoff


def test_zero_reward_has_no_watchers():
    p = _log_uniform()
    for scheme in (Scheme.SAR, Scheme.SUR, Scheme.SURD):
        part = thresholds(p, 0.0, scheme_aware=scheme is Scheme.SAR)
        assert _nonempty_segments(part) == []
        assert evaluate_point(p, 0.0, scheme).ad.revenue == 0.0


def test_ad_revenue_equals_price_times_slots():
    p = _log_uniform()
    w = 0.9 * case_bound_b_sar(p)
    stats = ad_stats(p, w, Scheme.SAR)
    out = evaluate_point(p, w, Scheme.SAR).ad
    m = advertiser_best_response(stats, p, out.p_star)
    assert out.revenue == pytest.approx(p.K * m * out.p_star, rel=1e-12)
