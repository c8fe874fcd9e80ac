import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datarewards import (
    AdMarketStats,
    AlphaFairUtility,
    DomainError,
    ExpUtility,
    LogUtility,
    MarketParams,
    OperatorOutcome,
    Scheme,
    TruncatedNormalTypes,
    UniformTypes,
    advertiser_best_response,
    best_response_sar,
    best_response_sur,
)
from datarewards import oracle
from datarewards.oracle import (
    DiscretizedMarket,
    _br_grid,
    _window_guesses,
    _windowed_argmax,
    _x_cap,
    oracle_adv_br,
    oracle_stage1,
    oracle_user_br,
    user_payoff,
)
from datarewards.presets import PRESETS
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
        base = params.utility.u(params.Q * r + w * xs)
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
        lambda rows, cand: table[rows, cand], n, guesses, np.zeros(60)
    )
    assert np.array_equal(idx, np.argmax(table, axis=1))
    assert np.array_equal(val, table.max(axis=1))


sorted_rows = st.integers(min_value=1, max_value=40).flatmap(
    lambda m: st.tuples(
        # a type grid with ties, and rows drawn partly from its values,
        # so that breakpoints tie with types and with each other
        st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5, 7.0]) | st.floats(0.0, 10.0),
                 min_size=m, max_size=m).map(sorted),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=30),
        st.data(),
    ))


@given(sorted_rows)
@settings(max_examples=100, deadline=None)
def test_window_guesses_match_per_row_searchsorted(case):
    thetas, k, n, data = case
    thetas = np.array(thetas)
    pool = st.sampled_from([*thetas.tolist(), math.inf, -math.inf]) | st.floats(
        -1.0, 12.0) | st.just(math.inf)
    breaks = np.array([sorted(data.draw(st.lists(pool, min_size=n, max_size=n)))
                       for _ in range(k)]).reshape(k, n)
    if k and data.draw(st.booleans()):
        # a zero cap leaves NaN breakpoints, which sort last
        breaks[0, n // 2:] = math.nan
    want = np.array([np.searchsorted(row, thetas) for row in breaks], dtype=np.int64)
    assert np.array_equal(_window_guesses(breaks, thetas), want.reshape(-1))


def _recording_windows(monkeypatch):
    """Record the widths of the windows `_br_grid` evaluates, and each
    row's entry count per `_windowed_argmax` call."""
    calls = []
    inner = oracle._windowed_argmax

    def windowed(payoff, n, guess, margin):
        entries = np.zeros(len(guess), dtype=np.int64)
        widths = set()

        def counted(rows, cand):
            np.add.at(entries, rows, cand.shape[0])
            widths.add(cand.shape[0])
            return payoff(rows, cand)

        out = inner(counted, n, guess, margin)
        calls.append((entries, widths))
        return out

    monkeypatch.setattr(oracle, "_windowed_argmax", windowed)
    return calls


# one market of each of the eight utility x type-distribution families
_FAMILY_MARKETS = [("fig5a", False), ("fig5b", False), ("fig5b", True), ("fig5c", False),
                   ("fig7a", False), ("fig7b", False), ("fig7b", True), ("fig7c", False)]


@pytest.mark.parametrize("scheme", [Scheme.SUR, Scheme.SURD])
@pytest.mark.parametrize("name,mu0", _FAMILY_MARKETS)
def test_br_grid_evaluates_three_entries_per_row(monkeypatch, name, mu0, scheme):
    # cost guard: on the benchmark's oracle grid every (reward, type, r)
    # row settles in its first window of three entries
    calls = _recording_windows(monkeypatch)
    params = _mid_capacity(name, mu0)
    market = DiscretizedMarket.build(params, m=200, n_x=201, n_omega=60, n_p=100)
    oracle_stage1(params, scheme, market)
    assert calls
    for entries, _ in calls:
        assert entries.max() <= 3


def test_br_grid_row_open_after_first_window(monkeypatch):
    # a type placed on a breakpoint of its row: entries k and k + 1 tie,
    # so the three-entry window's edge reaches its best and the row is
    # searched again in a wider window
    params = _br_params(LogUtility(), UniformTypes(155.0))
    w = params.phi * params.Q / params.F
    top, k = 150.0, 20
    xs = np.linspace(0.0, _x_cap(params, top, w), 201)
    base = params.utility.u(w * xs)
    breaks = params.phi * np.diff(xs) / np.diff(base)
    thetas = np.array([breaks[k], top])
    market = DiscretizedMarket(theta_grid=thetas, weights=np.array([0.5, 0.5]),
                               n_x=201, n_omega=2, n_p=1)
    calls = _recording_windows(monkeypatch)
    r, x = _br_grid(params, market, w, Scheme.SUR)
    assert any(widths >= {3, 9} for _, widths in calls)
    want_r, want_x = _br_grid_dense(params, market, w, Scheme.SUR)
    assert np.array_equal(r, want_r)
    assert np.array_equal(x, want_x)


def test_discretized_market_compares_and_hashes_by_identity():
    p = _log_uniform()
    a = DiscretizedMarket.build(p, m=10, n_x=5, n_omega=3, n_p=2)
    b = DiscretizedMarket.build(p, m=10, n_x=5, n_omega=3, n_p=2)
    assert a == a and a != b
    assert len({a, b, a}) == 2


# ---------------------------------------------------------------------------
# many rewards in one array pass against one reward at a time
# ---------------------------------------------------------------------------


_ARRAY_UTILITIES = [
    LogUtility(),
    AlphaFairUtility(alpha=0.5, mu=0.0),
    AlphaFairUtility(alpha=0.8, mu=0.8),
    ExpUtility(gamma=0.7),
]
_ARRAY_DISTS = [
    UniformTypes(155.0),
    TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0),
    # sd 1/100 of the support
    TruncatedNormalTypes(mean=75.0, sd=1.5, lo=0.0, hi=150.0),
]


@given(
    u=st.sampled_from(_ARRAY_UTILITIES),
    dist=st.sampled_from(_ARRAY_DISTS),
    scheme=st.sampled_from([Scheme.SAR, Scheme.SUR]),
    w_rels=st.lists(st.floats(min_value=0.0, max_value=3.0), max_size=6),
    m=st.integers(min_value=1, max_value=300),
    n_x=st.sampled_from([2, 3, 201, 2001]),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_br_grid_reward_array_matches_single_rewards(u, dist, scheme, w_rels, m, n_x, data):
    params = _br_params(u, dist)
    market = DiscretizedMarket.build(params, m=m, n_x=n_x)
    w_max = 3.0 * params.phi * params.Q / params.F
    # the top type's x grid collapses to 0 below this reward
    w_flat = params.phi / (float(market.theta_grid[-1]) * u.u_prime_zero)
    ws = [0.0, 1e-12, 0.5 * w_flat, w_max] + [r * params.phi * params.Q / params.F
                                             for r in w_rels]
    ws = np.array(data.draw(st.permutations(ws)))
    assert _x_cap(params, float(market.theta_grid[-1]), 0.5 * w_flat) == 0.0
    r, x = _br_grid(params, market, ws, scheme)
    assert r.shape == x.shape == (len(ws), m)
    for i, w in enumerate(ws):
        want_r, want_x = _br_grid(params, market, float(w), scheme)
        assert want_r.shape == want_x.shape == (m,)
        assert np.array_equal(r[i], want_r)
        assert np.array_equal(x[i], want_x)


# ---------------------------------------------------------------------------
# the stage-I oracle against its per-reward loop
# ---------------------------------------------------------------------------


def _pool_best_price_scalar(params, p_grid, n_ad, ey, ey2):
    """Best (revenue, price) over the price grid for one watcher pool."""
    if n_ad <= 0.0 or ey <= 0.0 or ey2 <= 0.0:
        return 0.0, params.B / 2.0
    m_resp = np.where(
        p_grid < params.B,
        (params.B - p_grid) / (2.0 * params.A) * (ey**2 / ey2) * n_ad,
        0.0,
    )
    revenue = params.K * m_resp * p_grid
    feasible = params.K * m_resp <= ey * n_ad * (1.0 + 1e-9)
    revenue = np.where(feasible, revenue, -np.inf)
    i = int(np.argmax(revenue))
    if not np.isfinite(revenue[i]):
        return 0.0, params.B / 2.0
    return float(revenue[i]), float(p_grid[i])


def _oracle_stage1_loop(params, scheme, market, refine_rounds=3):
    """What `oracle_stage1` must return: each scanned reward evaluated
    on its own, from the exhaustive best-response scan, and kept when
    its r_total is strictly the largest so far."""
    weights = market.weights

    def disc_demand(w):
        r, x = _br_grid_dense(params, market, w, scheme)
        return float(params.N * np.sum(weights * (params.Q * r + w * x)))

    w_hi = params.phi * params.Q / params.F
    for _ in range(60):
        if disc_demand(w_hi) > 2.0 * params.C:
            break
        w_hi *= 2.0

    p_grid = np.linspace(0.0, params.B, market.n_p + 1)[1:]

    def eval_omega(w):
        r, x = _br_grid_dense(params, market, w, scheme)
        d = float(params.N * np.sum(weights * (params.Q * r + w * x)))
        if d > params.C * (1.0 + 1e-9):
            return None
        r_data = float(params.N * params.F * np.sum(weights * r))

        def pool(mask):
            wm = float(np.sum(weights[mask]))
            if wm <= 0.0:
                return 0.0, 0.0, 0.0
            ey = float(np.sum(weights[mask] * x[mask])) / wm
            ey2 = float(np.sum(weights[mask] * x[mask] ** 2)) / wm
            return params.N * wm, ey, ey2

        watchers = x > 0.0
        if scheme is Scheme.SURD:
            rev_i, p_i = _pool_best_price_scalar(params, p_grid, *pool(watchers & (r == 1)))
            rev_ii, p_ii = _pool_best_price_scalar(params, p_grid, *pool(watchers & (r == 0)))
            r_ad, prices = rev_i + rev_ii, (None, p_i, p_ii)
        else:
            r_ad, p_star = _pool_best_price_scalar(params, p_grid, *pool(watchers))
            prices = (p_star, None, None)
        return {"w": w, "r_data": r_data, "r_ad": r_ad, "r_total": r_data + r_ad,
                "demand": d, "prices": prices}

    best = None

    def scan(lo, hi):
        nonlocal best
        for w in np.linspace(lo, hi, market.n_omega):
            res = eval_omega(float(w))
            if res is not None and (best is None or res["r_total"] > best["r_total"]):
                best = res

    scan(0.0, w_hi)
    if best is None:
        raise DomainError("no feasible reward found on the oracle grid")
    step = w_hi / (market.n_omega - 1)
    for _ in range(refine_rounds):
        scan(max(best["w"] - step, 0.0), best["w"] + step)
        step *= 2.0 / (market.n_omega - 1)
    p_star, p_i, p_ii = best["prices"]
    return OperatorOutcome(
        scheme=scheme, omega_star=best["w"], p_star=p_star, p_star_i=p_i,
        p_star_ii=p_ii, r_data=best["r_data"], r_ad=best["r_ad"],
        r_total=best["r_total"], demand=best["demand"], case_label="oracle",
        capacity_binding=abs(best["demand"] - params.C) <= 1e-4 * params.C,
    )


def _mid_capacity(name: str, mu0: bool = False) -> MarketParams:
    """The preset's market at the middle of its capacity range."""
    pre = PRESETS[name]
    p = pre.params()
    if mu0:
        p = replace(p, utility=replace(p.utility, mu=0.0))
    d0 = p.baseline_demand()
    return replace(p, C=0.5 * (d0 + max(p.C, 1.05 * d0)))


_STAGE1_MARKETS = [(name, False) for name in PRESETS] + [("fig5b", True)]


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("name,mu0", _STAGE1_MARKETS)
def test_oracle_stage1_matches_per_reward_loop(name, mu0, scheme):
    params = _mid_capacity(name, mu0)
    market = DiscretizedMarket.build(params, m=80, n_x=101, n_omega=24, n_p=50)
    got = oracle_stage1(params, scheme, market)
    want = _oracle_stage1_loop(params, scheme, market)
    assert got == want


@pytest.mark.parametrize("name,scheme", [("fig5a", Scheme.SURD), ("fig7c", Scheme.SUR)])
def test_oracle_stage1_matches_per_reward_loop_in_passes(name, scheme):
    # 24 rewards of 700 types take several passes, the last one shorter
    params = _mid_capacity(name)
    market = DiscretizedMarket.build(params, m=700, n_x=101, n_omega=24, n_p=50)
    assert oracle_stage1(params, scheme, market) == _oracle_stage1_loop(params, scheme, market)


@pytest.mark.parametrize("field,value", [
    ("m", 0), ("n_x", 0), ("n_x", 1), ("n_omega", 1), ("n_p", 0),
    ("m", 200.0), ("n_omega", True),
])
def test_oracle_grid_too_small_to_search_rejected_by_name(field, value):
    # these used to fail inside oracle_stage1 with ZeroDivisionError or
    # a numpy ValueError, which the CLI maps to no exit code
    sizes = {"m": 200, "n_x": 201, "n_omega": 60, "n_p": 100, field: value}
    with pytest.raises(DomainError, match=rf"DiscretizedMarket\.{field} must be an integer"):
        DiscretizedMarket.build(PRESETS["fig5a"].params(1.6e7), **sizes)
