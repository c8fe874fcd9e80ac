import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import datarewards.admarket as admarket_mod
import datarewards.solver as solver_mod
import datarewards.users as users_mod
from datarewards import (
    AlphaFairUtility,
    DataRewardsError,
    ExpUtility,
    InternalConsistencyError,
    LogUtility,
    MarketParams,
    ScenarioError,
    Scheme,
    SolverConfig,
    TruncatedNormalTypes,
    UniformTypes,
    best_response_sar,
    best_response_sur,
    check_theorem2,
    check_theorem3,
    demand,
    demand_inverse,
    feasible_region,
    integrate,
    solve,
    theorem5_limit,
)
from datarewards.model import mass
from datarewards.presets import PRESETS
from datarewards.solver import (
    _check_band_monotone,
    evaluate_point,
)
from datarewards.users import (
    case_bound_a,
    case_bound_b_sar,
    case_bound_b_sur,
    case_bound_d,
    root_resolution,
    thresholds,
)
from families import FAMILY_BASES, NARROW_EXCESS_MARKETS, narrow_normals, perturbed

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
    from datarewards.users import _watch_alone, _watch_subscriber

    thr = thresholds(p, w, scheme_aware=scheme is Scheme.SAR)
    tm = p.dist.theta_max
    # SAR case C: every subscriber (theta >= theta2 > theta1) watches
    lo = thr.theta2 if scheme is Scheme.SAR else min(thr.theta1, tm)
    topped_up = integrate(
        p.dist, lambda t: p.Q + w * _watch_subscriber(p, t, w), lo, tm
    )
    if scheme is Scheme.SAR:
        return p.N * topped_up
    alone = integrate(
        p.dist, lambda t: w * _watch_alone(p, t, w), thr.theta3, min(thr.theta4, tm)
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


def _best_response_integrals(p, w, scheme) -> tuple[float, float]:
    """N times the integrals of r Q + w x and of r against g, with (r, x)
    the per-type best response, piecewise between the thresholds (the
    best response is smooth inside each piece)."""
    br = best_response_sar if scheme is Scheme.SAR else best_response_sur
    thr = thresholds(p, w, scheme_aware=scheme is Scheme.SAR)
    top = p.dist.theta_max
    cuts = (thr.theta0, thr.theta1, thr.theta2, thr.theta3, thr.theta4)
    edges = sorted({0.0, top} | {t for t in cuts if t is not None and 0.0 < t < top})

    def data_and_subscribed(theta):
        decisions = [br(p, float(t), w) for t in theta]
        return np.array([[d.r * p.Q + w * d.x for d in decisions],
                         [d.r for d in decisions]])

    total = sum(integrate(p.dist, data_and_subscribed, lo, hi)
                for lo, hi in zip(edges, edges[1:]))
    return p.N * total[0], p.N * total[1]


_FAMILY_MARKETS = [
    # every utility x type-distribution family, alpha-fair also with mu = 0
    (name, mu0) for name in ("fig5a", "fig5b", "fig5c", "fig7a", "fig7b", "fig7c")
    for mu0 in (False, True) if not mu0 or name in ("fig5b", "fig7b")
]


@pytest.mark.parametrize("name,mu0", _FAMILY_MARKETS)
@pytest.mark.parametrize("scheme", [Scheme.SAR, Scheme.SUR])
def test_demand_and_data_revenue_integrate_best_responses(name, mu0, scheme):
    p = PRESETS[name].params()
    if mu0:
        p = replace(p, utility=AlphaFairUtility(alpha=p.utility.alpha, mu=0.0))
    q = case_bound_d(p)
    bounds = [case_bound_a(p), case_bound_b_sar(p) if scheme is Scheme.SAR
              else case_bound_b_sur(p), q]
    ws = [0.0, q * (1.0 - 1e-9), 2.0 * q] + [
        f * b for b in bounds if b > 0.0 for f in (0.3, 0.7, 1.0, 1.3)
    ]
    cases = set()
    for w in ws:
        thr = thresholds(p, w, scheme_aware=scheme is Scheme.SAR)
        cases.add(thr.case)
        want_demand, want_subscribed = _best_response_integrals(p, w, scheme)
        assert demand(p, w, scheme) == pytest.approx(want_demand, rel=1e-12, abs=0.0)
        assert evaluate_point(p, w, scheme).r_data == pytest.approx(
            p.F * want_subscribed, rel=1e-12, abs=0.0
        )
    # every case is covered; with mu = 0 SUR has no case B^
    assert len(cases) == (3 if scheme is Scheme.SAR else 4 - mu0)


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
    part = thresholds(p, w, scheme_aware=scheme is Scheme.SAR)
    n_segments = sum(hi > lo for lo, hi in (part.sub_watch, part.alone_watch))
    assert n_segments >= 1
    calls: dict[str, int] = {}
    _count_calls(monkeypatch, users_mod, root, calls)
    _count_calls(monkeypatch, users_mod, "case_index", calls)
    _count_calls(monkeypatch, admarket_mod, "integrate", calls)
    pe = evaluate_point(p, w, scheme)
    assert calls == {root: 1, "case_index": 1, "integrate": n_segments}
    if scheme is not Scheme.SAR:
        # the same evaluation carries SUR's and SURD's ad sides
        monkeypatch.undo()
        assert pe.ad_surd == evaluate_point(p, w, Scheme.SURD).ad
        assert pe.r_total_surd >= pe.r_total


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
    dist=st.one_of(st.sampled_from(_GRID_DISTS), narrow_normals()),
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
            points.append(evaluate_point(p, float(w), scheme))
        except InternalConsistencyError:
            failing.append(f"at w={w:.6g}")
    if failing:
        # a structural check fails at some reward on both paths
        with pytest.raises(InternalConsistencyError) as err:
            evaluate_point(p, ws, scheme)
        assert any(where in str(err.value) for where in failing)
        return
    grid = evaluate_point(p, ws, scheme)
    for i, (w, pe) in enumerate(zip(ws, points)):
        got = grid.entry(i)
        assert got.case_label == pe.case_label, (w, got.case_label, pe.case_label)
        assert _close(got.demand, pe.demand), (w, got.demand, pe.demand)
        assert _close(got.r_data, pe.r_data), (w, got.r_data, pe.r_data)
        assert _close(got.theta4, pe.theta4), (w, got.theta4, pe.theta4)
        assert _close(got.ad.revenue, pe.ad.revenue), (w, got.ad, pe.ad)
        assert _close(got.ad.p_star, pe.ad.p_star), (w, got.ad, pe.ad)
        assert (got.ad_surd is None) == (scheme is Scheme.SAR) == (pe.ad_surd is None)
        if got.ad_surd is not None:
            for field in ("revenue", "p_star", "p_star_i", "p_star_ii"):
                assert _close(getattr(got.ad_surd, field), getattr(pe.ad_surd, field)), (
                    w, field, got.ad_surd, pe.ad_surd)


def _fields(pe) -> list:
    """Every array field of an evaluation at a reward array."""
    sides = [getattr(ad, f, None) for ad in (pe.ad, pe.ad_surd)
             for f in ("revenue", "p_star", "p_star_i", "p_star_ii")]
    return [pe.w, pe.demand, pe.r_data, pe.theta4] + sides


_INTERLEAVED = [[(k + j / 7) / 60 for k in range(150)] for j in range(6)]


@given(
    u=st.sampled_from(_GRID_UTILITIES),
    dist=st.one_of(st.sampled_from(_GRID_DISTS), narrow_normals()),
    scheme=st.sampled_from([Scheme.SAR, Scheme.SUR]),
    fee=st.sampled_from([30.0, 10.0, 0.01]),
    parts=st.lists(
        st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                           st.floats(min_value=1e-6, max_value=3.0)),
                 min_size=1, max_size=150).map(sorted),
        min_size=1, max_size=6,
    ),
)
# six grids of 150 rewards on narrow normals: many panels per segment,
# so node chunks cut through segments at other places when batched
@example(u=LogUtility(), dist=TruncatedNormalTypes(75.0, 0.75, 0.0, 150.0),
         scheme=Scheme.SAR, fee=10.0, parts=_INTERLEAVED)
@example(u=ExpUtility(gamma=0.7), dist=TruncatedNormalTypes(75.0, 1.5, 0.0, 150.0),
         scheme=Scheme.SUR, fee=10.0, parts=_INTERLEAVED)
@settings(max_examples=60, deadline=None)
def test_array_evaluation_is_batch_invariant(u, dist, scheme, fee, parts):
    # `solve_capacities` evaluates the grids of many capacities in one
    # array pass; each reward must come out as in a pass of its own grid
    # (rewards are in units of phi Q / F, so 0 and 1 are the case edges
    # 0 and phi Q / F)
    p = _grid_params(u, dist, fee)
    grids = [case_bound_d(p) * np.array(part) for part in parts]
    try:
        alone = [evaluate_point(p, grid, scheme) for grid in grids]
    except DataRewardsError as exc:
        # a check that fails on one grid fails on all of them together
        with pytest.raises(type(exc)):
            evaluate_point(p, np.concatenate(grids), scheme)
        return
    together = evaluate_point(p, np.concatenate(grids), scheme)
    assert np.array_equal(together.case_label,
                          np.concatenate([pe.case_label for pe in alone]))
    for k, field in enumerate(_fields(together)):
        pieces = [_fields(pe)[k] for pe in alone]
        if field is None:
            assert all(piece is None for piece in pieces), k
            continue
        assert np.array_equal(field, np.concatenate(pieces), equal_nan=True), k


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
    grid = evaluate_point(p, ws, Scheme.SUR)
    monkeypatch.undo()
    assert len(chunks) > 2
    assert max(chunks) <= model_mod._CHUNK_PANELS * 32
    for i in (0, 40, 90, 149):
        want = evaluate_point(p, float(ws[i]), Scheme.SUR)
        assert grid.entry(i).demand == pytest.approx(want.demand, rel=1e-12)


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
    # one reward: the same bracket checks on the float path
    for solve_root, w_bad in ((users_mod.solve_theta2, 0.9 * case_bound_b_sar(p)),
                              (users_mod.solve_theta4, 0.5 * case_bound_a(p))):
        with pytest.raises(InternalConsistencyError,
                           match=f"bracket failed.* at w={w_bad:.6g}"):
            solve_root(p, w_bad)


def test_band_monotonicity_check():
    p = _log_uniform()
    w = np.array([1.0, 2.0, 3.0, 4.0])
    _check_band_monotone(p, w, np.array([math.nan, 10.0, 11.0, 12.0]))
    with pytest.raises(InternalConsistencyError, match=r"from 11 \(w=3\) to 10.5"):
        _check_band_monotone(p, w, np.array([10.0, math.nan, 11.0, 10.5]))
    # a fall within the resolution of the bisected roots is rounding
    tiny = np.array([1e-3, 1e-3 - root_resolution(p), math.nan, 2e-3])
    _check_band_monotone(p, w, tiny)
    with pytest.raises(InternalConsistencyError):
        _check_band_monotone(p, w, tiny - np.array([0.0, 2e-12, 0.0, 0.0]))


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
    ws = [demand_inverse(replace(p, C=c)) for c in caps]
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_demand_inverse_at_baseline_returns_knee(fig5a_params):
    p = fig5a_params
    assert demand_inverse(replace(p, C=p.baseline_demand())) == pytest.approx(
        case_bound_a(p), rel=1e-12
    )


def test_demand_inverse_reads_a_validated_capacity(fig5a_params):
    # a capacity argument below D(0) used to return case_bound_a, whose
    # demand D(0) exceeds it; MarketParams rejects such a capacity
    with pytest.raises(TypeError):
        demand_inverse(fig5a_params, 1.0)
    with pytest.raises(ScenarioError, match="capacity C=1 below"):
        replace(fig5a_params, C=1.0)


@pytest.mark.parametrize("entry", [
    lambda p: solve(p, Scheme.SAR, FAST),
    lambda p: solve(p, Scheme.SUR, FAST),
    lambda p: solve(p, Scheme.SURD, FAST),
    demand_inverse,
    feasible_region,
    check_theorem2,
], ids=["solve_sar", "solve_sur", "solve_surd", "demand_inverse",
        "feasible_region", "check_theorem2"])
def test_unlimited_capacity_is_rejected_before_any_search(monkeypatch, fig5a_params, entry):
    # C = inf builds a market, but no reward's demand exceeds it: each
    # entry point used to spend 60 doublings and raise UnboundedSearchError
    calls = []
    orig = solver_mod.demand

    def counted(*args):
        calls.append(args[1])
        return orig(*args)

    monkeypatch.setattr(solver_mod, "demand", counted)
    params = replace(fig5a_params, C=math.inf)
    assert params.baseline_demand() < math.inf
    with pytest.raises(ScenarioError, match=r"finite capacity C\b"):
        entry(params)
    # at most D(0), which demand inversion reads before its search
    assert len(calls) <= 1


# ---------------------------------------------------------------------------
# feasible region (unaware schemes)
# ---------------------------------------------------------------------------


def test_feasible_region_starts_at_zero(fig5a_params):
    region = feasible_region(fig5a_params, FAST)
    assert isinstance(region, tuple)
    assert region[0][0] == 0.0
    for a, b in region:
        assert demand(fig5a_params, a, Scheme.SUR) <= fig5a_params.C * (1 + 1e-6)
        assert demand(fig5a_params, b, Scheme.SUR) <= fig5a_params.C * (1 + 1e-6)


def test_feasible_region_boundaries_sharp(fig5a_params):
    p = fig5a_params
    region = feasible_region(p, FAST)
    # just beyond a finite right endpoint, demand exceeds capacity
    a, b = region[-1]
    assert demand(p, b * (1.0 + 1e-6), Scheme.SUR) > p.C


COARSE_SCAN = SolverConfig(grid_points=150, scan_points=120)


@pytest.mark.parametrize("name", sorted(NARROW_EXCESS_MARKETS))
def test_unaware_optima_fit_a_capacity_the_scan_steps_over(name):
    p = NARROW_EXCESS_MARKETS[name]
    for scheme in (Scheme.SUR, Scheme.SURD):
        out = solve(p, scheme, COARSE_SCAN)
        assert demand(p, out.omega_star, Scheme.SUR) <= p.C, scheme


def test_feasible_region_holds_the_stretch_the_scan_steps_over():
    p = NARROW_EXCESS_MARKETS["seed18-960"]
    # at 600 scan points the scan itself finds both intervals
    want = feasible_region(p, SolverConfig(grid_points=150, scan_points=600))
    got = feasible_region(p, COARSE_SCAN)
    assert len(got) == len(want) == 2
    for (a, b), (want_a, want_b) in zip(got, want):
        assert a == pytest.approx(want_a, rel=1e-8)
        assert b == pytest.approx(want_b, rel=1e-8)
    (_, gap_lo), (gap_hi, _) = got
    assert demand(p, 0.5 * (gap_lo + gap_hi), Scheme.SUR) > p.C


@pytest.mark.parametrize("scheme", list(Scheme))
def test_capacity_within_tolerance_below_baseline_solves(scheme):
    # MarketParams accepts C down to D(0) (1 - 1e-12); the zero reward
    # is then the only feasible one, within that tolerance
    d0 = _log_uniform().baseline_demand()
    p = _log_uniform(C=d0 * (1.0 - 1e-13))
    out = solve(p, scheme, FAST)
    assert out.omega_star == 0.0
    assert out.demand <= p.C * (1.0 + 1e-12)


@pytest.mark.parametrize("scheme", [Scheme.SUR, Scheme.SURD])
@pytest.mark.parametrize("excess", [1e-9, 1e-6, 1e-3])
def test_theta4_checks_allow_the_root_resolution(scheme, excess):
    # theta0 = 0.0056 is tiny against theta_max = 155, so theta4 is
    # resolved to 1.55e-8, 2.8e-6 of theta0: its checks must allow that
    base = MarketParams(
        N=1e7, F=0.01, Q=0.8, phi=0.3, K=23.0, A=0.6, B=5.0, C=1e12,
        utility=AlphaFairUtility(0.5, 0.0), dist=UniformTypes(155.0),
    )
    p = replace(base, C=base.baseline_demand() * (1.0 + excess))
    out = solve(p, scheme)
    assert 0.0 < out.omega_star
    assert out.demand <= p.C


def test_zero_reward_beyond_tolerance_is_an_error():
    p = _log_uniform()
    # bypass validation: a capacity MarketParams would reject
    object.__setattr__(p, "C", p.baseline_demand() * (1.0 - 1e-9))
    with pytest.raises(InternalConsistencyError, match="zero reward"):
        feasible_region(p, FAST)


def test_inverted_interval_rejected(monkeypatch):
    # one feasible scan point between two infeasible ones, and a broken
    # boundary bisection that steps away from the infeasible end, so the
    # interval's lower end lands above its upper end
    grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    demands = np.array([1.0, 1.0, 5.0, 1.0, 5.0])
    monkeypatch.setattr(
        solver_mod, "monotone_bisect",
        lambda f, w_feas, w_infeas, *args, **kw: (w_feas - 0.5 * (w_infeas - w_feas), 0, 0),
    )
    with pytest.raises(InternalConsistencyError, match=r"inverted interval \[3.5, 2.5\]"):
        solver_mod._intervals(2.0, grid, demands, demands <= 2.0, lambda w: 0.0)


def _split_at_discontinuity(intervals, q):
    """The collapse-reward split as three cases, kept as the reference
    for `_unaware_pieces`' one rule."""
    out = []
    for a, b in intervals:
        if a < q < b:
            out.append((a, q * (1.0 - 1e-9)))
            out.append((q, b))
        elif b == q:
            out.append((a, q * (1.0 - 1e-9)))
            out.append((q, q))
        else:
            out.append((a, b))
    return out


def test_one_split_rule_equals_the_three_cases(fig5a_params, monkeypatch):
    p = fig5a_params
    q = case_bound_d(p)
    cases = [
        (0.0, 0.5 * q),  # below q
        (1.5 * q, 2.0 * q),  # above q
        (0.5 * q, 1.5 * q),  # containing q
        (0.5 * q, q),  # ending at q
        (q, 1.5 * q),  # starting at q
        (q, q),  # the point q
        (0.5 * q, q * (1.0 - 5e-10)),  # ending within 1e-9 q below q
        (q * (1.0 - 5e-10), q),  # starting and ending within it
        (q * (1.0 - 5e-10), 1.5 * q),
    ]
    calls = []

    def intervals(c, grid, demands, feas, sur_demand):
        # the scan yields the cases; a second split keeps each piece whole
        calls.append(len(grid))
        return tuple(cases) if len(calls) == 1 else ((float(grid[0]), float(grid[-1])),)

    monkeypatch.setattr(solver_mod, "_intervals", intervals)
    pieces, grids, _ = solver_mod._unaware_pieces(p, [p], FAST)
    want = [(a, b) for a, b in _split_at_discontinuity(cases, q) if b >= a]
    assert pieces == [want]
    assert (q, q) in want and (q * (1.0 - 5e-10), q) not in want
    assert [(g[0], g[-1]) for g in grids[0]] == want


@pytest.mark.parametrize("name", ["fig5a", *sorted(NARROW_EXCESS_MARKETS)])
def test_unaware_solve_shares_one_demand_memo(name, monkeypatch):
    # the confirmation of the pieces once built a second memo of scalar
    # demand; and only a market whose piece grids show demand above C
    # inside a piece takes a third array pass, over its new pieces
    if name == "fig5a":
        p, config = PRESETS["fig5a"].params(1.6e7), FAST
    else:
        p, config = NARROW_EXCESS_MARKETS[name], COARSE_SCAN
    memos, passes = [], []
    memo = solver_mod._demand_at
    point = solver_mod.evaluate_point

    def counted_memo(params, scheme):
        memos.append(scheme)
        return memo(params, scheme)

    def counted_point(params, w, scheme):
        if isinstance(w, np.ndarray):
            passes.append(len(w))
        return point(params, w, scheme)

    monkeypatch.setattr(solver_mod, "_demand_at", counted_memo)
    monkeypatch.setattr(solver_mod, "evaluate_point", counted_point)
    pieces, grids, _ = solver_mod._unaware_pieces(p, [p], config)
    assert memos == [Scheme.SUR]
    # the scan holds scan_points rewards and the case bounds inside it
    assert config.scan_points <= passes[0] <= config.scan_points + 3
    assert passes[1] >= config.grid_points
    assert len(passes) == (2 if name == "fig5a" else 3)
    assert passes[-1] == sum(len(g) for g in grids[0])
    assert len(grids[0]) == len(pieces[0])
    memos.clear()
    solver_mod._solve_family(p, [p], (Scheme.SUR, Scheme.SURD), config)
    assert memos == [Scheme.SUR]


# ---------------------------------------------------------------------------
# the boundary and D^-1(C) bisections against plain bisection
# ---------------------------------------------------------------------------


def _plain_demand_inverse(params, c, sar_demand):
    """`solver._demand_inverse` by plain bisection, evaluating demand at
    every midpoint; None where it finds no reward in the band."""
    lo = case_bound_a(params)
    d_lo = sar_demand(lo)
    if c <= d_lo * (1.0 + 1e-12):
        return lo
    hi = solver_mod._double_until(sar_demand, 2.0 * lo, c)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d_mid = sar_demand(mid)
        if abs(d_mid - c) <= 1e-6 * c:
            return mid
        if d_mid < c:
            lo = mid
        else:
            hi = mid
    return None


def _plain_intervals(c, cap, grid, demands, sur_demand):
    """`solver._intervals` by plain bisection of each boundary's scan
    cell, evaluating demand at every midpoint, with the runs of feasible
    scan points found by walking the flags."""
    feas = demands <= c
    feas[0] = True

    def refine(w_feas, w_infeas):
        for _ in range(80):
            mid = 0.5 * (w_feas + w_infeas)
            if abs(w_infeas - w_feas) <= 1e-10 * max(cap, 1.0):
                break
            if sur_demand(mid) <= c:
                w_feas = mid
            else:
                w_infeas = mid
        return w_feas

    intervals = []
    i, n = 0, len(grid)
    while i < n:
        if not feas[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and feas[j + 1]:
            j += 1
        lo = refine(grid[i], grid[i - 1]) if i > 0 else grid[i]
        hi = refine(grid[j], grid[j + 1]) if j + 1 < n else grid[j]
        intervals.append((float(lo), float(hi)))
        i = j + 1
    return tuple(intervals)


def _recorded(params, scheme):
    """Scalar demand, memoized in a dict that keeps every evaluation."""
    seen: dict[float, float] = {}

    def demand_at(w):
        if w not in seen:
            seen[w] = demand(params, w, scheme)
        return seen[w]

    return demand_at, seen


def _sides_along(seen, lo, hi, side) -> list[int]:
    """side(D) at the rewards evaluated in [lo, hi], in ascending order."""
    return [side(seen[w]) for w in sorted(seen) if lo <= w <= hi]


@given(
    base=st.sampled_from(FAMILY_BASES),
    logs=st.lists(st.floats(min_value=-0.1, max_value=0.1), min_size=12, max_size=12),
    shares=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
    dist=st.one_of(st.none(), narrow_normals()),
)
@settings(max_examples=60, deadline=None)
def test_bisection_phases_equal_plain_bisection(base, logs, shares, dist):
    # markets drawn as in acceptance criterion 11, some on a narrow
    # truncated normal. Each phase must equal plain bisection exactly
    # wherever demand is monotone between the rewards either evaluated;
    # where they differ, demand must be seen to cross back (near a
    # tangency SUR demand wobbles by about 1e-10 relative, the
    # resolution of theta4, and crosses C many times within 1e-9)
    try:
        markets = [perturbed(*base, [math.exp(v) for v in logs], s, dist) for s in shares]
    except ScenarioError:
        reject()
    p = markets[0]
    sar_demand, sar_seen = _recorded(p, Scheme.SAR)
    sur_demand, sur_seen = _recorded(p, Scheme.SUR)
    breaks = [case_bound_a(p), case_bound_b_sur(p), case_bound_d(p)]
    for c in (m.C for m in markets):
        want = _plain_demand_inverse(p, c, sar_demand)
        if want is None:
            with pytest.raises(InternalConsistencyError, match="200 halvings"):
                solver_mod._demand_inverse(p, c, sar_demand)
        else:
            got = solver_mod._demand_inverse(p, c, sar_demand)
            if got != want:
                # the band sides -1, 0, +1 must fail to rise with the reward
                sides = _sides_along(sar_seen, 0.0, math.inf, lambda d: (
                    0 if abs(d - c) <= 1e-6 * c else -1 if d < c else 1))
                assert sides != sorted(sides), (got, want)
        cap = solver_mod._omega_cap(p, c, sur_demand)
        grid = solver_mod._grid_with_breakpoints(0.0, cap, 120, breaks)
        demands = evaluate_point(p, grid, Scheme.SUR).demand
        feas = demands <= c
        feas[0] = True
        got = solver_mod._intervals(c, grid, demands, feas, sur_demand)
        want = _plain_intervals(c, cap, grid, demands, sur_demand)
        assert len(got) == len(want)
        for end, want_end in zip(np.ravel(got), np.ravel(want)):
            if end != want_end:
                # the scan cell of this boundary: D <= C must flip more
                # than once along the rewards evaluated in it
                k = int(np.searchsorted(grid, want_end, side="right"))
                sides = _sides_along(sur_seen, grid[k - 1], grid[k], lambda d: d <= c)
                assert sum(a != b for a, b in zip(sides, sides[1:])) > 1, (end, want_end)


def test_demand_inverse_raises_when_demand_jumps_across_the_band(monkeypatch):
    # a demand that steps from D(0) to 2C: no reward meets C within
    # 1e-6, so 200 halvings end without an answer
    p = _log_uniform()
    d0, step = p.baseline_demand(), 3.0 * case_bound_a(p)
    monkeypatch.setattr(
        solver_mod, "demand", lambda params, w, scheme: d0 if w < step else 2.0 * p.C
    )
    with pytest.raises(InternalConsistencyError, match="200 halvings") as err:
        demand_inverse(p)
    assert f"C={p.C!r}" in str(err.value)
    assert f"={d0!r}" in str(err.value) and f"={2.0 * p.C!r}" in str(err.value)


@given(flags=st.lists(st.booleans(), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_runs_of_feasible_scan_points_equal_the_flag_walk(flags):
    # demand linear within each scan cell, so both bisections agree and
    # only the run detection can differ
    grid = np.arange(len(flags), dtype=float)
    demands = np.where(flags, 1.0, 3.0)
    demands[0] = 1.0
    sur_demand = lambda w: float(np.interp(w, grid, demands))  # noqa: E731
    got = solver_mod._intervals(2.0, grid, demands, demands <= 2.0, sur_demand)
    assert got == _plain_intervals(2.0, grid[-1], grid, demands, sur_demand)


def _old_passes(sizes, limit):
    """The pass partition (first, end) of `_evaluate_grids`, found by
    re-summing each candidate pass: the reference for its running total."""
    passes, i = [], 0
    while i < len(sizes):
        j = i + 1
        while j < len(sizes) and sum(sizes[i:j + 1]) <= limit:
            j += 1
        passes.append((i, j))
        i = j
    return passes


@given(sizes=st.lists(st.integers(min_value=1, max_value=3 * solver_mod._PASS_REWARDS // 2),
                      max_size=20))
@example(sizes=[8192, 8192, 1, 16384, 1])  # passes that fill the limit exactly
@example(sizes=[3, 20000, 4])  # a grid longer than the limit
@settings(max_examples=100, deadline=None)
def test_evaluate_grids_packs_the_passes_of_the_old_loop(sizes):
    passes = []

    class Evals:
        def __init__(self, w):
            self.w = w

        def part(self, rows):
            return self.w[rows]

    def record(params, w, scheme):
        passes.append(len(w))
        return Evals(w)

    grids = [np.full(n, float(k)) for k, n in enumerate(sizes)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "evaluate_point", record)
        out = solver_mod._evaluate_grids(None, grids, Scheme.SUR)
    want = _old_passes(sizes, solver_mod._PASS_REWARDS)
    assert passes == [sum(sizes[i:j]) for i, j in want]
    assert len(out) == len(grids)
    assert all(np.array_equal(a, b) for a, b in zip(out, grids))


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
    out = solve(p, Scheme.SAR, FAST)
    w_hi = demand_inverse(p)
    for w in np.linspace(0.0, w_hi, 40):
        pe = evaluate_point(p, float(w), Scheme.SAR)
        assert out.r_total >= pe.r_total * (1.0 - 1e-6)


def test_surd_dominates_sur(fig5a_params, fig7c_params):
    for p in (fig5a_params, fig7c_params):
        sur = solve(p, Scheme.SUR, FAST)
        surd = solve(p, Scheme.SURD, FAST)
        assert surd.r_total >= sur.r_total * (1.0 - 1e-9)


def test_pair_solver_reuses_work(fig5a_params):
    # the two unaware solves share one cached computation
    from datarewards.solver import _solve_unaware_pair

    _solve_unaware_pair.cache_clear()
    solve(fig5a_params, Scheme.SUR, FAST)
    solve(fig5a_params, Scheme.SURD, FAST)
    info = _solve_unaware_pair.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_differentiated_prices_reported_when_split(fig5a_tight):
    out = solve(fig5a_tight, Scheme.SURD, FAST)
    # at tight capacity the optimum sits where both watcher classes exist
    assert out.p_star is None
    assert out.p_star_i is not None and out.p_star_ii is not None


# ---------------------------------------------------------------------------
# capacity-exhaustion conditions and the large-capacity limit
# ---------------------------------------------------------------------------


def test_monotone_aggregates_hold_for_wide_uniform(fig5a_params):
    holds, bad_w = check_theorem2(fig5a_params)
    assert holds and bad_w is None


def test_monotone_aggregates_fail_for_concentrated_types(appk_params):
    holds, bad_w = check_theorem2(appk_params)
    assert not holds
    assert 0.05 <= bad_w <= 0.5


def test_non_exhaustion_conditions(appk_params, fig5a_params):
    # strengthen capacity and wear-out until the sufficient condition holds
    from dataclasses import replace

    strong = replace(appk_params, C=3.0e7, A=3.0)
    cap_cond, wear_cond = check_theorem3(strong)
    assert cap_cond and wear_cond
    out = solve(strong, Scheme.SUR, FAST)
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
        ratios.append(solve(big, Scheme.SAR, FAST).r_total / limit)
    assert all(r < 1.0 for r in ratios)
    assert ratios == sorted(ratios)
