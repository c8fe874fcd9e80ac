"""End-to-end acceptance checks.

Each test exercises one published quantitative claim or structural
guarantee, at the stated tolerance, against either closed forms or the
brute-force oracle. Slow by design; run with plain `pytest` to include
them.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from datarewards import (
    AlphaFairUtility,
    DomainError,
    ExpUtility,
    InternalConsistencyError,
    LogUtility,
    MarketParams,
    ScenarioError,
    Scheme,
    SolverConfig,
    TruncatedNormalTypes,
    UniformTypes,
    UserClass,
    ad_stats,
    advertiser_best_response,
    best_response_sar,
    best_response_sur,
    solve,
    solve_theta2,
    solve_theta4,
    theorem5_limit,
    thresholds,
)
from datarewards.oracle import (
    DiscretizedMarket,
    _br_grid,
    oracle_stage1,
    oracle_user_br,
    user_payoff,
)
from datarewards.presets import PRESETS
from datarewards.users import (
    case_bound_a,
    case_bound_b_sar,
    case_bound_b_sur,
    case_bound_d,
    theta0,
    theta1,
)
from families import FAMILY_BASES, perturbed

CFG150 = SolverConfig(grid_points=150, scan_points=120)
CFG400 = SolverConfig(grid_points=400, scan_points=300)
CFG600 = SolverConfig(grid_points=600, scan_points=400)


# ---------------------------------------------------------------------------
# 1. closed-form watcher aggregates, random markets
# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_aggregates():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    done = 0
    while done < 50:
        theta_max = rng.uniform(100.0, 300.0)
        F = rng.uniform(20.0, 40.0)
        Q = rng.uniform(0.5, 2.0)
        phi = rng.uniform(0.1, 0.5)
        A = rng.uniform(0.2, 1.5)
        B = rng.uniform(2.0, 8.0)
        try:
            p = MarketParams(
                N=1e7, F=F, Q=Q, phi=phi, K=20.0, A=A, B=B, C=1e15,
                utility=LogUtility(), dist=UniformTypes(theta_max),
            )
        except ScenarioError:
            continue
        lo, hi = case_bound_a(p), case_bound_b_sar(p)
        w = lo + rng.uniform(0.05, 0.95) * (hi - lo)
        t1 = theta1(p, w)
        stats = ad_stats(p, w, Scheme.SAR)
        assert stats.n_ad == pytest.approx(
            p.N * (theta_max - t1) / theta_max, rel=1e-6
        )
        assert stats.ey == pytest.approx((theta_max - t1) / (2.0 * phi), rel=1e-6)
        assert stats.ey2 == pytest.approx(
            (theta_max - t1) ** 2 / (3.0 * phi**2), rel=1e-6
        )
        price = rng.uniform(0.1 * B, 0.9 * B)
        m_star = advertiser_best_response(stats, p, price)
        expected = (3.0 / 8.0) * (B - price) / A * (theta_max - t1) / theta_max * p.N
        assert m_star == pytest.approx(expected, rel=1e-6)
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. aware scheme exhausts capacity across the first sweep's range
# ---------------------------------------------------------------------------


def test_criterion_2_capacity_exhaustion(fig5a_params):
    start = time.perf_counter()
    d0 = fig5a_params.baseline_demand()
    for c in np.linspace(d0 * 1.001, 2.2e7, 10):
        p = replace(fig5a_params, C=float(c))
        out = solve(p, Scheme.SAR, CFG400)
        assert abs(out.demand - p.C) / p.C <= 1e-4, (
            f"capacity not exhausted at C={c:.4g}: D={out.demand:.6g}"
        )
        assert out.capacity_binding
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. capacity-non-exhaustion counterexample
# ---------------------------------------------------------------------------


def test_criterion_3_non_exhaustion_counterexample(appk_params):
    start = time.perf_counter()
    out = solve(appk_params, Scheme.SAR)
    assert out.omega_star == pytest.approx(0.137, abs=0.005)
    assert out.demand == pytest.approx(1.846e7, rel=0.02)
    assert not out.capacity_binding
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. differentiation dominance on randomized markets
# ---------------------------------------------------------------------------


def _random_market(rng) -> MarketParams:
    theta_max = rng.uniform(80.0, 300.0)
    if rng.random() < 0.5:
        dist = UniformTypes(theta_max)
    else:
        dist = TruncatedNormalTypes(
            mean=rng.uniform(0.2, 0.8) * theta_max,
            sd=rng.uniform(0.2, 0.6) * theta_max,
            lo=0.0,
            hi=theta_max,
        )
    kind = rng.integers(0, 3)
    if kind == 0:
        utility = LogUtility()
    elif kind == 1:
        mu = 0.0 if rng.random() < 0.25 else rng.uniform(0.2, 1.5)
        utility = AlphaFairUtility(alpha=rng.uniform(0.3, 0.9), mu=mu)
    else:
        utility = ExpUtility(gamma=rng.uniform(0.3, 1.2))
    base = MarketParams(
        N=10.0 ** rng.uniform(5.0, 7.0),
        F=rng.uniform(15.0, 50.0),
        Q=rng.uniform(0.5, 2.5),
        phi=rng.uniform(0.05, 0.6),
        K=rng.uniform(5.0, 30.0),
        A=rng.uniform(0.1, 1.5),
        B=rng.uniform(2.0, 10.0),
        C=1e18,
        utility=utility,
        dist=dist,
    )
    c = base.baseline_demand() * (1.0 + 10.0 ** rng.uniform(-1.0, 1.3))
    return replace(base, C=c)


def test_criterion_4_differentiation_dominance():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    done = 0
    while done < 200:
        try:
            p = _random_market(rng)
        except ScenarioError:
            continue
        sur = solve(p, Scheme.SUR, CFG150)
        surd = solve(p, Scheme.SURD, CFG150)
        assert surd.r_total >= sur.r_total * (1.0 - 1e-6), (
            f"dominance violated on {p!r}: "
            f"{surd.r_total:.8g} < {sur.r_total:.8g}"
        )
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 5. scheme crossover along the capacity axis (log utility)
# ---------------------------------------------------------------------------


def test_criterion_5_crossover_and_gain(fig5a_params, fig5a_tight):
    d0 = fig5a_params.baseline_demand()
    caps = np.unique(np.concatenate([
        np.linspace(d0 * 1.001, 2.2e7, 20),
        [1.24e7, 1.44e7, 1.64e7],
    ]))
    results = {}
    for c in caps:
        p = replace(fig5a_params, C=float(c))
        results[float(c)] = (
            solve(p, Scheme.SAR, CFG400).r_total,
            solve(p, Scheme.SUR, CFG400).r_total,
        )
    # pooled unaware beats aware somewhere on the tight-capacity side
    assert any(sur > sar for c, (sar, sur) in results.items() if c <= 1.44e7)
    # aware wins everywhere beyond the documented crossover window
    for c, (sar, sur) in results.items():
        if c >= 1.64e7:
            assert sar > sur, f"aware scheme not dominant at C={c:.4g}"
    # differentiation gain at the reference tight capacity
    sur = solve(fig5a_tight, Scheme.SUR, CFG600)
    surd = solve(fig5a_tight, Scheme.SURD, CFG600)
    gain = (surd.r_total - sur.r_total) / sur.r_total
    assert gain == pytest.approx(0.094, abs=0.015), f"gain {gain:.4f}"


# ---------------------------------------------------------------------------
# 6. differentiation gain and class moments, exponential market
# ---------------------------------------------------------------------------


def test_criterion_6_differentiation_gain_exp(fig7c_params):
    p = fig7c_params
    sur = solve(p, Scheme.SUR, CFG600)
    surd = solve(p, Scheme.SURD, CFG600)
    gain = (surd.r_total - sur.r_total) / sur.r_total
    assert gain == pytest.approx(0.203, abs=0.02), f"gain {gain:.4f}"
    w = surd.omega_star
    sub = ad_stats(p, w, Scheme.SURD, UserClass.SUBSCRIBERS)
    non = ad_stats(p, w, Scheme.SURD, UserClass.NON_SUBSCRIBERS)
    ratio = non.ey / sub.ey
    assert ratio == pytest.approx(5.7, rel=0.15), f"moment ratio {ratio:.3f}"


# ---------------------------------------------------------------------------
# 7. large-capacity ordering and limit
# ---------------------------------------------------------------------------


def test_criterion_7_large_capacity_limit(fig5a_params):
    d0 = fig5a_params.baseline_demand()
    limit = theorem5_limit(fig5a_params)
    ratios = []
    for mult in (1e3, 1e4, 1e5):
        p = replace(fig5a_params, C=d0 * mult)
        sar = solve(p, Scheme.SAR, CFG400)
        sur = solve(p, Scheme.SUR, CFG400)
        surd = solve(p, Scheme.SURD, CFG400)
        assert sar.r_total > surd.r_total
        assert surd.r_total >= sur.r_total * (1.0 - 1e-6)
        ratios.append(sar.r_total / limit)
    assert all(r < 1.0 for r in ratios)
    assert ratios == sorted(ratios)  # monotone approach from below
    # convergence toward the limit is logarithmic in capacity; at
    # 1000 x baseline the aware revenue is still ~2% short, and the
    # 1% band is reached around 100000 x baseline
    assert 1.0 - ratios[0] < 0.025
    assert 1.0 - ratios[-1] < 0.01


# ---------------------------------------------------------------------------
# 8. oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_8a_user_best_response_oracle(fig5a_params):
    p = fig5a_params
    rng = np.random.default_rng(99)
    w_hi = 2.0 * case_bound_d(p)
    for scheme in Scheme:
        br = best_response_sar if scheme is Scheme.SAR else best_response_sur
        for _ in range(1000):
            theta = rng.uniform(0.0, p.dist.theta_max)
            w = rng.uniform(0.0, w_hi)
            mine = br(p, theta, w)
            _, grid_payoff = oracle_user_br(p, theta, w, scheme, n_x=2001)
            my_payoff = user_payoff(p, theta, mine.r, mine.x, w)
            scale = max(abs(grid_payoff), abs(my_payoff), 1.0)
            assert my_payoff >= grid_payoff - 1e-8 * scale, (
                f"{scheme} theta={theta:.6g} w={w:.6g}: "
                f"{my_payoff:.10g} < {grid_payoff:.10g}"
            )


@pytest.mark.parametrize(
    "preset,capacity,scheme",
    [
        ("fig5a", 1.6e7, Scheme.SAR),
        ("fig5d", 1.6e7, Scheme.SUR),
        ("fig5a", 1.6e7, Scheme.SURD),
    ],
)
def test_criterion_8b_stage1_oracle(preset, capacity, scheme):
    params = PRESETS[preset].params(capacity)
    market = DiscretizedMarket.build(params)
    oracle = oracle_stage1(params, scheme, market)
    mine = solve(params, scheme)
    gap = abs(mine.r_total - oracle.r_total) / oracle.r_total
    assert gap <= 0.005, (
        f"{preset}/{scheme}: solver {mine.r_total:.8g} vs "
        f"oracle {oracle.r_total:.8g} (gap {gap:.4%})"
    )


# ---------------------------------------------------------------------------
# 9. small-wear-out exponential market: pooled unaware always wins
# ---------------------------------------------------------------------------


def test_criterion_9_small_wearout_ordering():
    preset = PRESETS["fig5d"]
    d0 = preset.sweep_from()
    for c in np.linspace(d0 * 1.001, 2.2e7, 10):
        p = preset.params(float(c))
        sar = solve(p, Scheme.SAR, CFG400)
        sur = solve(p, Scheme.SUR, CFG400)
        surd = solve(p, Scheme.SURD, CFG400)
        assert sur.r_total >= sar.r_total * (1.0 - 1e-9), (
            f"aware beat unaware at C={c:.4g}"
        )
        assert abs(surd.r_total - sur.r_total) <= 1e-6 * sur.r_total, (
            f"differentiation changed revenue at C={c:.4g}"
        )


# ---------------------------------------------------------------------------
# 10. structural guarantees
# ---------------------------------------------------------------------------


def test_criterion_10_root_brackets_guarded(fig5a_params):
    p = fig5a_params
    # middle-case reward handed to the wrong root solver must abort
    w_mid = 0.9 * case_bound_b_sar(p)
    with pytest.raises(InternalConsistencyError):
        solve_theta2(p, w_mid)
    w_low = 0.5 * case_bound_a(p)
    with pytest.raises(InternalConsistencyError):
        solve_theta4(p, w_low)


def test_criterion_10_band_structure(fig5a_params):
    p = fig5a_params
    lo = case_bound_b_sur(p) * 1.01
    hi = case_bound_d(p) * 0.999
    t0 = theta0(p)
    prev = -np.inf
    for w in np.geomspace(lo, hi, 40):
        t4 = solve_theta4(p, float(w))
        assert t4 > t0
        assert t4 >= prev * (1.0 - 1e-9)
        prev = t4


def test_criterion_10_batch_solves_clean(fig5a_tight, fig7c_params, appk_params):
    # a batch of full solves across utility/distribution combinations
    # completes without tripping any internal consistency check
    for p in (fig5a_tight, fig7c_params, appk_params):
        for scheme in Scheme:
            out = solve(p, scheme, CFG150)
            assert np.isfinite(out.r_total)
            thr = thresholds(p, out.omega_star, scheme_aware=scheme is Scheme.SAR)
            assert thr.theta0 > 0.0


# ---------------------------------------------------------------------------
# 11. perturbed presets of every utility x type-distribution family
# ---------------------------------------------------------------------------

@given(
    base=st.sampled_from(FAMILY_BASES),
    # log-uniform factors within 10 %
    logs=st.lists(st.floats(min_value=-0.1, max_value=0.1), min_size=12, max_size=12),
    share=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_criterion_11_perturbed_families(base, logs, share):
    try:
        p = perturbed(*base, [math.exp(v) for v in logs], share)
    except ScenarioError:
        reject()
    outs = {scheme: solve(p, scheme, CFG150) for scheme in Scheme}
    for scheme, out in outs.items():
        assert out.demand <= p.C * (1.0 + 1e-6), f"{scheme}: {out.demand!r} > {p.C!r}"
    assert outs[Scheme.SURD].r_total >= outs[Scheme.SUR].r_total * (1.0 - 1e-9)

    # the oracle's optimum is feasible on its own grid
    market = DiscretizedMarket.build(p, m=60, n_x=101, n_omega=20, n_p=50)
    for scheme in Scheme:
        try:
            out = oracle_stage1(p, scheme, market)
        except DomainError:
            # no reward fits: the grid's zero-reward demand exceeds C
            subs = market.theta_grid * p.utility.u(p.Q) - p.F > 0.0
            assert p.N * p.Q * np.sum(market.weights[subs]) > p.C * (1.0 + 1e-9)
            continue
        r, x = _br_grid(p, market, out.omega_star, scheme)
        d = p.N * np.sum(market.weights * (p.Q * r + out.omega_star * x))
        assert d <= p.C * (1.0 + 1e-9)
