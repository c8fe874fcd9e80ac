import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datarewards import (
    AdMarketStats,
    AlphaFairUtility,
    ExpUtility,
    LogUtility,
    MarketParams,
    Scheme,
    TruncatedNormalTypes,
    UniformTypes,
    advertiser_best_response,
    best_response_sar,
    best_response_sur,
)
from datarewards.oracle import (
    DiscretizedMarket,
    _br_grid,
    _u_vec,
    _windowed_argmax,
    _x_cap,
    oracle_adv_br,
    oracle_user_br,
    user_payoff,
)
from datarewards.users import case_bound_b_sur, case_bound_d, thresholds


def _log_uniform(**over) -> MarketParams:
    kw = dict(
        N=1e7, F=30.0, Q=0.8, phi=0.3, K=23.0, A=0.6, B=5.0, C=1.6e7,
        utility=LogUtility(), dist=UniformTypes(155.0),
    )
    kw.update(over)
    return MarketParams(**kw)


def test_discretized_weights_normalized():
    p = _log_uniform()
    market = DiscretizedMarket.build(p, m=500)
    assert market.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(market.weights >= 0.0)
    assert len(market.theta_grid) == 500


def test_oracle_adv_br_matches_vertex():
    p = _log_uniform()
    stats = AdMarketStats(n_ad=1e6, ey=10.0, ey2=120.0)
    for price in (0.5, 2.0, 4.0):
        closed = advertiser_best_response(stats, p, price)
        assert oracle_adv_br(stats, p, price) == pytest.approx(closed, rel=1e-4)
    assert oracle_adv_br(stats, p, p.B) == 0.0
    assert oracle_adv_br(stats, p, p.B + 1.0) == 0.0


def test_oracle_user_br_respects_aware_constraint():
    p = _log_uniform()
    w = 1.5 * case_bound_d(p)  # strong rewards
    theta = 40.0
    aware, _ = oracle_user_br(p, theta, w, Scheme.SAR)
    unaware, _ = oracle_user_br(p, theta, w, Scheme.SUR)
    if aware.r == 0:
        assert aware.x == 0.0
    # without the constraint this type watches without subscribing
    assert unaware.r == 0 and unaware.x > 0.0


def test_finer_x_grid_shrinks_payoff_gap():
    p = _log_uniform()
    w = 0.7 * case_bound_d(p)
    theta = 120.0
    exact = best_response_sur(p, theta, w)
    exact_payoff = user_payoff(p, theta, exact.r, exact.x, w)
    gaps = []
    for n_x in (51, 501, 5001):
        _, payoff = oracle_user_br(p, theta, w, Scheme.SUR, n_x=n_x)
        gaps.append(exact_payoff - payoff)
    assert all(g >= -1e-9 * abs(exact_payoff) for g in gaps)
    assert gaps[2] <= gaps[0]


def test_oracle_band_edges_match_threshold_roots():
    """The discretized subscribe/not-subscribe flip sits at the analytic cutoff."""
    p = _log_uniform()
    w = 0.5 * (case_bound_b_sur(p) + case_bound_d(p))
    thr = thresholds(p, w, scheme_aware=False)
    grid = np.linspace(0.0, 155.0, 20001)
    rs = np.array([oracle_user_br(p, float(t), w, Scheme.SUR, n_x=801)[0].r
                   for t in grid[::200]])
    coarse = grid[::200]
    # last non-subscriber below theta4, first subscriber above
    below = coarse[(coarse < thr.theta4 * 0.999)]
    above = coarse[(coarse > thr.theta4 * 1.001)]
    rs_below = rs[: len(below)]
    rs_above = rs[len(coarse) - len(above):]
    assert np.all(rs_below == 0)
    assert np.all(rs_above == 1)


def test_oracle_matches_closed_form_on_random_draws():
    p = _log_uniform()
    rng = np.random.default_rng(11)
    for _ in range(40):
        theta = rng.uniform(1.0, 155.0)
        w = rng.uniform(1e-4, 1.5 * case_bound_d(p))
        for scheme, br in (
            (Scheme.SAR, best_response_sar),
            (Scheme.SUR, best_response_sur),
        ):
            mine = br(p, theta, w)
            dec, payoff = oracle_user_br(p, theta, w, scheme, n_x=4001)
            my_payoff = user_payoff(p, theta, mine.r, mine.x, w)
            scale = max(abs(payoff), abs(my_payoff), 1.0)
            assert abs(my_payoff - payoff) <= 1e-6 * scale
            assert dec.r == mine.r or abs(my_payoff - payoff) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# the windowed best-response search against the exhaustive scan
# ---------------------------------------------------------------------------


def _br_grid_dense(params, market, w, scheme):
    """The exhaustive scan `_br_grid` must reproduce: the full m x n_x
    payoff table for each r, and each row's leftmost maximum."""
    thetas = market.theta_grid
    m = len(thetas)
    x_hi = _x_cap(params, float(thetas[-1]), w)
    if w <= 0.0 or x_hi <= 0.0:
        x_grid = np.array([0.0])
    else:
        x_grid = np.linspace(0.0, x_hi, market.n_x)

    best_r = np.zeros(m, dtype=np.int64)
    best_x = np.zeros(m)
    best_payoff = np.full(m, -np.inf)
    for r in (0, 1):
        if scheme is Scheme.SAR and r == 0:
            xs = np.array([0.0])
        else:
            xs = x_grid
        base = _u_vec(params, params.Q * r + w * xs)
        payoff = thetas[:, None] * base[None, :] - params.F * r - params.phi * xs[None, :]
        idx = np.argmax(payoff, axis=1)
        val = payoff[np.arange(m), idx]
        improved = val > best_payoff
        best_payoff = np.where(improved, val, best_payoff)
        best_r = np.where(improved, r, best_r)
        best_x = np.where(improved, xs[idx], best_x)
    return best_r, best_x


_BR_UTILITIES = [
    LogUtility(),
    AlphaFairUtility(alpha=0.5, mu=0.0),
    AlphaFairUtility(alpha=0.9, mu=0.0),
    AlphaFairUtility(alpha=0.8, mu=0.8),
    AlphaFairUtility(alpha=0.3, mu=1e-3),
    ExpUtility(gamma=0.7),
    ExpUtility(gamma=0.05),
]
_BR_DISTS = [
    UniformTypes(155.0),
    TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0),
    TruncatedNormalTypes(mean=125.0, sd=5.0, lo=20.0, hi=250.0),
]


def _br_params(u, dist) -> MarketParams:
    """A market of the given families; the fee is lowered where needed
    to keep theta_max above u'(0) F / (u'(Q) u(Q))."""
    q, fee = 0.8, 30.0
    if math.isfinite(u.u_prime_zero):
        fee = min(fee, 0.5 * dist.theta_max * u.u_prime(q) * u.u(q) / u.u_prime_zero)
    return MarketParams(N=1e7, F=fee, Q=q, phi=0.3, K=23.0, A=0.6, B=5.0,
                        C=1e9, utility=u, dist=dist)


@given(
    u=st.sampled_from(_BR_UTILITIES),
    dist=st.sampled_from(_BR_DISTS),
    scheme=st.sampled_from([Scheme.SAR, Scheme.SUR]),
    w_rel=st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-15, max_value=1e-6),
        st.floats(min_value=0.0, max_value=3.0),
    ),
    m=st.integers(min_value=1, max_value=400),
    n_x=st.one_of(st.sampled_from([2, 3, 200, 201, 2000, 2001]),
                  st.integers(min_value=2, max_value=700)),
)
@settings(max_examples=300, deadline=None)
def test_br_grid_matches_dense_scan(u, dist, scheme, w_rel, m, n_x):
    params = _br_params(u, dist)
    market = DiscretizedMarket.build(params, m=m, n_x=n_x)
    w = w_rel * params.phi * params.Q / params.F
    r, x = _br_grid(params, market, w, scheme)
    want_r, want_x = _br_grid_dense(params, market, w, scheme)
    assert np.array_equal(r, want_r)
    assert np.array_equal(x, want_x)


@pytest.mark.parametrize("guess", ["zeros", "last", "random"])
def test_windowed_argmax_recovers_from_a_wrong_guess(guess):
    """The guess only places the first window: from any guess the
    search widens until it returns each row's leftmost maximum."""
    rng = np.random.default_rng(5)
    n = 1000
    k = np.arange(n)
    # unimodal rows with their maxima anywhere, in steps of three equal
    # entries: ties, which the leftmost maximum resolves
    peaks = rng.integers(0, n, 60)
    table = -np.abs(k[None, :] - peaks[:, None]) // 3 * 1.0
    guesses = {
        "zeros": np.zeros(60, dtype=np.int64),
        "last": np.full(60, n - 1),
        "random": rng.integers(0, n, 60),
    }[guess]
    idx, val = _windowed_argmax(
        lambda rows, cand: table[rows[:, None], cand], n, guesses, np.zeros(60)
    )
    assert np.array_equal(idx, np.argmax(table, axis=1))
    assert np.array_equal(val, table.max(axis=1))
