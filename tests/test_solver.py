import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datarewards.admarket as admarket_mod
import datarewards.users as users_mod
from datarewards import (
    AlphaFairUtility,
    ExpUtility,
    InternalConsistencyError,
    LogUtility,
    MarketParams,
    Scheme,
    SolverConfig,
    TruncatedNormalTypes,
    UniformTypes,
    check_theorem2,
    check_theorem3,
    demand,
    demand_inverse,
    feasible_region,
    integrate,
    solve,
    solve_sar,
    solve_sur,
    solve_surd,
    theorem5_limit,
)
from datarewards.admarket import watch_segments
from datarewards.model import mass
from datarewards.solver import (
    FeasibleRegion,
    _check_band_monotone,
    _eval_unaware,
    evaluate_grid,
    evaluate_point,
)
from datarewards.users import (
    case_bound_a,
    case_bound_b_sar,
    case_bound_b_sur,
    case_bound_d,
    thresholds,
)

FAST = SolverConfig(grid_points=300, scan_points=200)


def _log_uniform(**over) -> MarketParams:
    kw = dict(
        N=1e7, F=30.0, Q=0.8, phi=0.3, K=23.0, A=0.6, B=5.0, C=1.6e7,
        utility=LogUtility(), dist=UniformTypes(155.0),
    )
    kw.update(over)
    return MarketParams(**kw)


def _dip_market() -> MarketParams:
    """Exponential utility with concentrated types: unaware demand dips."""
    return MarketParams(
        N=1e7, F=42.0, Q=2.0, phi=0.5, K=16.0, A=0.9, B=5.0, C=2.6e7,
        utility=ExpUtility(gamma=0.7),
        dist=TruncatedNormalTypes(mean=125.0, sd=30.0, lo=0.0, hi=250.0),
    )


# ---------------------------------------------------------------------------
# demand
# ---------------------------------------------------------------------------


def test_zero_reward_demand_equals_baseline(fig5a_params):
    for scheme in Scheme:
        assert demand(fig5a_params, 0.0, scheme) == pytest.approx(
            fig5a_params.baseline_demand(), rel=1e-12
        )


def test_sar_demand_nondecreasing(fig5a_params):
    ws = np.linspace(0.0, 4.0 * case_bound_d(fig5a_params), 60)
    ds = [demand(fig5a_params, float(w), Scheme.SAR) for w in ws]
    assert all(b >= a * (1.0 - 1e-9) for a, b in zip(ds, ds[1:]))


def test_sur_demand_continuous_at_case_edges(fig5a_params):
    p = fig5a_params
    for edge in (case_bound_a(p), case_bound_b_sur(p), case_bound_d(p)):
        below = demand(p, edge * (1.0 - 1e-9), Scheme.SUR)
        above = demand(p, edge * (1.0 + 1e-9), Scheme.SUR)
        assert above == pytest.approx(below, rel=1e-5)


def test_unaware_demand_dips():
    """Unaware demand falls when rewards start displacing subscriptions."""
    p = _dip_market()
    lo = case_bound_b_sur(p)
    hi = case_bound_d(p) * (1.0 - 1e-6)
    ws = np.linspace(lo * 1.01, hi, 120)
    ds = [demand(p, float(w), Scheme.SUR) for w in ws]
    diffs = np.diff(ds)
    assert diffs.min() < 0.0  # a genuine dip, not monotone growth


def _demand_by_segments(p, w, scheme) -> float:
    """Demand integrated segment by segment, each data term on its own."""
    from datarewards.users import x_watch_alone, x_watch_subscriber

    thr = thresholds(p, w, scheme_aware=scheme is Scheme.SAR)
    tm = p.dist.theta_max
    # SAR case C: every subscriber (theta >= theta2 > theta1) watches
    lo = thr.theta2 if scheme is Scheme.SAR else min(thr.theta1, tm)
    topped_up = integrate(
        p.dist, lambda t: p.Q + w * x_watch_subscriber(p, t, w), lo, tm
    )
    if scheme is Scheme.SAR:
        return p.N * topped_up
    alone = integrate(
        p.dist, lambda t: w * x_watch_alone(p, t, w), thr.theta3, min(thr.theta4, tm)
    )
    return p.N * (alone + p.Q * mass(p.dist, thr.theta4, thr.theta1) + topped_up)


def test_demand_matches_segment_by_segment_integrals(fig5a_params):
    p = fig5a_params
    w_sar = 1.3 * case_bound_b_sar(p)
    assert demand(p, w_sar, Scheme.SAR) == pytest.approx(
        _demand_by_segments(p, w_sar, Scheme.SAR), rel=1e-12
    )
    w_sur = 0.5 * (case_bound_b_sur(p) + case_bound_d(p))
    assert demand(p, w_sur, Scheme.SUR) == pytest.approx(
        _demand_by_segments(p, w_sur, Scheme.SUR), rel=1e-12
    )


def _count_calls(monkeypatch, module, name, counter):
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] = counter.get(name, 0) + 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_point_needs_one_root_solve_and_one_pass_per_segment(
    monkeypatch, fig5a_params, scheme
):
    p = fig5a_params
    if scheme is Scheme.SAR:
        w, root = 1.3 * case_bound_b_sar(p), "solve_theta2"
    else:
        w, root = 0.5 * (case_bound_b_sur(p) + case_bound_d(p)), "solve_theta4"
    n_segments = len(watch_segments(p, w, scheme))
    assert n_segments >= 1
    classify = "classify_sar" if scheme is Scheme.SAR else "classify_sur"
    calls: dict[str, int] = {}
    _count_calls(monkeypatch, users_mod, root, calls)
    _count_calls(monkeypatch, users_mod, classify, calls)
    _count_calls(monkeypatch, admarket_mod, "integrate", calls)
    evaluate_point(p, w, scheme)
    assert calls == {root: 1, classify: 1, "integrate": n_segments}
    if scheme is not Scheme.SAR:
        calls.clear()
        _eval_unaware(p, w)  # SUR and SURD together
        assert calls == {root: 1, classify: 1, "integrate": n_segments}


@pytest.mark.parametrize(
    "F,theta_max,C,w_of",
    [
        (30.0, 155.0, 1.6e7, lambda p: 0.5 * case_bound_a(p)),
        # theta_max below F/(Q u'(Q)): near phi Q/F the band's upper
        # edge theta4 passes theta_max and nobody subscribes
        (10.0, 8.0, 1e8, lambda p: 0.99 * case_bound_d(p)),
    ],
)
def test_mu0_small_reward_has_watching_non_subscribers(F, theta_max, C, w_of):
    p = MarketParams(
        N=1e7, F=F, Q=0.8, phi=0.3, K=23.0, A=0.6, B=5.0, C=C,
        utility=AlphaFairUtility(alpha=0.8, mu=0.0), dist=UniformTypes(theta_max),
    )
    w = w_of(p)
    assert w <= case_bound_a(p)
    for scheme in (Scheme.SUR, Scheme.SURD):
        pe = evaluate_point(p, w, scheme)
        assert pe.case_label == "C^"
        assert pe.ad.revenue > 0.0
        assert pe.demand == pytest.approx(
            _demand_by_segments(p, w, Scheme.SUR), rel=1e-12
        )


# ---------------------------------------------------------------------------
# stage II on a reward grid
# ---------------------------------------------------------------------------

_GRID_UTILITIES = [
    LogUtility(),
    AlphaFairUtility(alpha=0.8, mu=0.8),
    AlphaFairUtility(alpha=0.5, mu=0.0),
    AlphaFairUtility(alpha=0.9, mu=0.0),
    AlphaFairUtility(alpha=0.9, mu=1e-8),
    AlphaFairUtility(alpha=0.3, mu=1e-3),
    ExpUtility(gamma=0.7),
    ExpUtility(gamma=0.05),
]
_GRID_DISTS = [
    UniformTypes(155.0),
    TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0),
    TruncatedNormalTypes(mean=125.0, sd=30.0, lo=20.0, hi=250.0),
]


@st.composite
def _narrow_normals(draw) -> TruncatedNormalTypes:
    """Truncated normals on [lo, 150] with sd from 1/200 to 1/10 of the
    support's width and the mean within 5 sd of the support."""
    lo = draw(st.sampled_from([0.0, 20.0]))
    width = 150.0 - lo
    sd = width * 10.0 ** draw(st.floats(min_value=-2.3, max_value=-1.0))
    shift = draw(st.floats(min_value=0.0, max_value=1.0))
    return TruncatedNormalTypes(
        mean=lo - 5.0 * sd + shift * (width + 10.0 * sd), sd=sd, lo=lo, hi=150.0
    )


def _grid_params(u, dist, fee: float) -> MarketParams:
    """A market of the given families; the fee is lowered where needed
    to keep theta_max above u'(0) F / (u'(Q) u(Q))."""
    q = 0.8
    if math.isfinite(u.u_prime_zero):
        fee = min(fee, 0.5 * dist.theta_max * u.u_prime(q) * u.u(q) / u.u_prime_zero)
    return MarketParams(N=1e7, F=fee, Q=q, phi=0.3, K=23.0, A=0.6, B=5.0,
                        C=1e9, utility=u, dist=dist)


def _close(got, want) -> bool:
    if want is None:
        return got is None
    return got is not None and abs(got - want) <= 1e-12 * max(abs(got), abs(want))


@given(
    u=st.sampled_from(_GRID_UTILITIES),
    dist=st.one_of(st.sampled_from(_GRID_DISTS), _narrow_normals()),
    scheme=st.sampled_from([Scheme.SAR, Scheme.SUR]),
    fee=st.sampled_from([30.0, 10.0, 0.01]),
    w_rel=st.lists(st.floats(min_value=1e-6, max_value=3.0), max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_grid_matches_point_path(u, dist, scheme, fee, w_rel):
    p = _grid_params(u, dist, fee)
    q = case_bound_d(p)
    ws = np.array(
        [0.0, case_bound_a(p), case_bound_b_sar(p), case_bound_b_sur(p),
         q * (1.0 - 1e-9), q] + [r * q for r in w_rel]
    )
    points, failing = [], []
    for w in ws:
        try:
            if scheme is Scheme.SAR:
                points.append((evaluate_point(p, float(w), scheme), None, None))
            else:
                pt = _eval_unaware(p, float(w))
                points.append((pt.pe_sur, pt.ad_surd, pt.theta4))
        except InternalConsistencyError:
            failing.append(f"at w={w:.6g}")
    if failing:
        # a structural check fails at some reward on both paths
        with pytest.raises(InternalConsistencyError) as err:
            evaluate_grid(p, ws, scheme)
        assert any(where in str(err.value) for where in failing)
        return
    grid = evaluate_grid(p, ws, scheme)
    for i, (w, (pe, ad_surd, theta4)) in enumerate(zip(ws, points)):
        got_surd = None if scheme is Scheme.SAR else grid.unaware_point(i).ad_surd
        got = grid.point(i)
        assert got.case_label == pe.case_label, (w, got.case_label, pe.case_label)
        assert _close(got.demand, pe.demand), (w, got.demand, pe.demand)
        assert _close(got.r_data, pe.r_data), (w, got.r_data, pe.r_data)
        assert _close(None if math.isnan(grid.theta4[i]) else grid.theta4[i], theta4)
        assert _close(got.ad.revenue, pe.ad.revenue), (w, got.ad, pe.ad)
        assert _close(got.ad.p_star, pe.ad.p_star), (w, got.ad, pe.ad)
        if got_surd is not None:
            for field in ("revenue", "p_star", "p_star_i", "p_star_ii"):
                assert _close(getattr(got_surd, field), getattr(ad_surd, field)), (
                    w, field, got_surd, ad_surd)


def test_grid_evaluates_a_narrow_normal_in_bounded_chunks(monkeypatch):
    # sd 1/200 of the support: up to 65 density panels per segment, far
    # more panels than one node chunk holds
    import datarewards.model as model_mod

    dist = TruncatedNormalTypes(mean=75.0, sd=0.75, lo=0.0, hi=150.0)
    p = _grid_params(LogUtility(), dist, 10.0)
    ws = np.linspace(0.0, 1.5 * case_bound_d(p), 150)
    chunks: list[int] = []
    pdf = dist.pdf

    def counted_pdf(theta):
        chunks.append(theta.size)
        return pdf(theta)

    monkeypatch.setattr(TruncatedNormalTypes, "pdf", lambda self, t: counted_pdf(t))
    grid = evaluate_grid(p, ws, Scheme.SUR)
    monkeypatch.undo()
    assert len(chunks) > 2
    assert max(chunks) <= model_mod._CHUNK_PANELS * 32
    for i in (0, 40, 90, 149):
        want = _eval_unaware(p, float(ws[i])).pe_sur
        assert grid.point(i).demand == pytest.approx(want.demand, rel=1e-12)


def test_array_root_names_the_first_failing_reward(fig5a_params):
    p = fig5a_params
    in_c = np.array([1.2, 1.5, 2.0]) * case_bound_b_sar(p)
    # case-B rewards handed to the case-C root: its bracket fails
    w_bad = 0.9 * case_bound_b_sar(p)
    with pytest.raises(InternalConsistencyError, match=f"at w={w_bad:.6g}"):
        users_mod.solve_theta2(p, np.array([in_c[0], w_bad, in_c[1], 0.5 * w_bad]))
    w_c = 0.5 * (case_bound_b_sur(p) + case_bound_d(p))
    w_bad = 0.5 * case_bound_a(p)
    with pytest.raises(InternalConsistencyError, match=f"at w={w_bad:.6g}"):
        users_mod.solve_theta4(p, np.array([w_c, w_bad, 0.3 * case_bound_a(p)]))


def test_band_monotonicity_check():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    _check_band_monotone(w, np.array([math.nan, 10.0, 11.0, 12.0]))
    with pytest.raises(InternalConsistencyError, match=r"from 11 \(w=3\) to 10.5"):
        _check_band_monotone(w, np.array([10.0, math.nan, 11.0, 10.5]))


# ---------------------------------------------------------------------------
# demand inversion (aware scheme)
# ---------------------------------------------------------------------------


def test_demand_inverse_round_trip(fig5a_params):
    p = fig5a_params
    w = demand_inverse(p)
    assert demand(p, w, Scheme.SAR) == pytest.approx(p.C, rel=1e-5)


def test_demand_inverse_monotone_in_capacity(fig5a_params):
    p = fig5a_params
    caps = [1.1e7, 1.4e7, 1.8e7, 2.2e7]
    ws = [demand_inverse(p, c) for c in caps]
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_demand_inverse_at_baseline_returns_knee(fig5a_params):
    p = fig5a_params
    assert demand_inverse(p, p.baseline_demand()) == pytest.approx(
        case_bound_a(p), rel=1e-12
    )


# ---------------------------------------------------------------------------
# feasible region (unaware schemes)
# ---------------------------------------------------------------------------


def test_feasible_region_starts_at_zero(fig5a_params):
    region = feasible_region(fig5a_params, FAST)
    assert region.intervals[0][0] == 0.0
    for a, b in region.intervals:
        assert demand(fig5a_params, a, Scheme.SUR) <= fig5a_params.C * (1 + 1e-6)
        assert demand(fig5a_params, b, Scheme.SUR) <= fig5a_params.C * (1 + 1e-6)


def test_feasible_region_boundaries_sharp(fig5a_params):
    p = fig5a_params
    region = feasible_region(p, FAST)
    # just beyond a finite right endpoint, demand exceeds capacity
    a, b = region.intervals[-1]
    assert demand(p, b * (1.0 + 1e-6), Scheme.SUR) > p.C


@pytest.mark.parametrize("scheme", list(Scheme))
def test_capacity_within_tolerance_below_baseline_solves(scheme):
    # MarketParams accepts C down to D(0) (1 - 1e-12); the zero reward
    # is then the only feasible one, within that tolerance
    d0 = _log_uniform().baseline_demand()
    p = _log_uniform(C=d0 * (1.0 - 1e-13))
    out = solve(p, scheme, FAST)
    assert out.omega_star == 0.0
    assert out.demand <= p.C * (1.0 + 1e-12)


def test_zero_reward_beyond_tolerance_is_an_error():
    p = _log_uniform()
    # bypass validation: a capacity MarketParams would reject
    object.__setattr__(p, "C", p.baseline_demand() * (1.0 - 1e-9))
    with pytest.raises(InternalConsistencyError, match="zero reward"):
        feasible_region(p, FAST)


def test_inverted_interval_rejected():
    with pytest.raises(InternalConsistencyError):
        FeasibleRegion(intervals=((0.0, 1.0), (3.0, 2.0)))


def test_many_intervals_warn():
    with pytest.warns(UserWarning, match="intervals"):
        FeasibleRegion(intervals=((0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0, 7.0)))


# ---------------------------------------------------------------------------
# solve: invariants shared by all schemes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", list(Scheme))
def test_solution_invariants(fig5a_params, scheme):
    out = solve(fig5a_params, scheme, FAST)
    assert out.scheme is scheme
    assert out.omega_star >= 0.0
    assert out.r_total == pytest.approx(out.r_data + out.r_ad, rel=1e-12)
    assert out.demand <= fig5a_params.C * (1.0 + 1e-6)
    assert out.r_data >= 0.0 and out.r_ad >= 0.0
    rec = out.to_record()
    assert set(rec) == {
        "scheme", "omega_star", "p_star", "p_star_I", "p_star_II",
        "r_data", "r_ad", "r_total", "demand", "case", "capacity_binding",
    }


@pytest.mark.parametrize("scheme", list(Scheme))
def test_records_hold_builtin_types(fig5a_params, scheme):
    rec = solve(fig5a_params, scheme, FAST).to_record()
    for key, value in rec.items():
        assert type(value) in (float, bool, str, type(None)), (key, type(value))
    json.dumps(rec)


def test_solution_beats_sampled_feasible_rewards(fig5a_params):
    p = fig5a_params
    out = solve_sar(p, FAST)
    w_hi = demand_inverse(p)
    for w in np.linspace(0.0, w_hi, 40):
        pe = evaluate_point(p, float(w), Scheme.SAR)
        assert out.r_total >= pe.r_total * (1.0 - 1e-6)


def test_surd_dominates_sur(fig5a_params, fig7c_params):
    for p in (fig5a_params, fig7c_params):
        sur = solve_sur(p, FAST)
        surd = solve_surd(p, FAST)
        assert surd.r_total >= sur.r_total * (1.0 - 1e-9)


def test_pair_solver_reuses_work(fig5a_params):
    # the two unaware solves share one cached computation
    from datarewards.solver import _solve_unaware_pair

    _solve_unaware_pair.cache_clear()
    solve_sur(fig5a_params, FAST)
    solve_surd(fig5a_params, FAST)
    info = _solve_unaware_pair.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_differentiated_prices_reported_when_split(fig5a_tight):
    out = solve_surd(fig5a_tight, FAST)
    # at tight capacity the optimum sits where both watcher classes exist
    assert out.p_star is None
    assert out.p_star_i is not None and out.p_star_ii is not None


# ---------------------------------------------------------------------------
# capacity-exhaustion conditions and the large-capacity limit
# ---------------------------------------------------------------------------


def test_monotone_aggregates_hold_for_wide_uniform(fig5a_params):
    holds, bad_w = check_theorem2(fig5a_params, config=FAST)
    assert holds and bad_w is None


def test_monotone_aggregates_fail_for_concentrated_types(appk_params):
    holds, bad_w = check_theorem2(appk_params, config=FAST)
    assert not holds
    assert 0.05 <= bad_w <= 0.5


def test_non_exhaustion_conditions(appk_params, fig5a_params):
    # strengthen capacity and wear-out until the sufficient condition holds
    from dataclasses import replace

    strong = replace(appk_params, C=3.0e7, A=3.0)
    cap_cond, wear_cond = check_theorem3(strong)
    assert cap_cond and wear_cond
    out = solve_sur(strong, FAST)
    assert not out.capacity_binding
    assert out.demand < strong.C
    # the wide-uniform market does exhaust capacity; the condition fails
    assert not all(check_theorem3(fig5a_params))


def test_large_capacity_limit_vertex_branch():
    p = _log_uniform()
    # wear-out too strong for a supply-limited price: vertex at B/2
    expected = p.N * p.F + (p.B / 2.0) ** 2 * (3.0 * p.K / (8.0 * p.A)) * p.N
    assert theorem5_limit(p) == pytest.approx(expected, rel=1e-12)


def test_large_capacity_limit_interior_branch():
    p = _log_uniform(A=0.01)
    qq = p.B - (4.0 * p.A / (3.0 * p.K)) * (155.0 / p.phi)
    assert qq > p.B / 2.0
    expected = p.N * p.F + qq * (p.B - qq) * (3.0 * p.K / (8.0 * p.A)) * p.N
    assert theorem5_limit(p) == pytest.approx(expected, rel=1e-12)


def test_large_capacity_limit_requires_log_uniform():
    p = _dip_market()
    with pytest.raises(InternalConsistencyError):
        theorem5_limit(p)


def test_sar_revenue_approaches_limit(fig5a_params):
    p = fig5a_params
    d0 = p.baseline_demand()
    limit = theorem5_limit(p)
    ratios = []
    for mult in (1e2, 1e3, 1e4):
        big = _log_uniform(C=d0 * mult)
        ratios.append(solve_sar(big, FAST).r_total / limit)
    assert all(r < 1.0 for r in ratios)
    assert ratios == sorted(ratios)
