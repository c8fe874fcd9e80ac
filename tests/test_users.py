import math
import re

import numpy as np
import pytest

import datarewards.users as users_mod
from datarewards import (
    AlphaFairUtility,
    DomainError,
    ExpUtility,
    InternalConsistencyError,
    LogUtility,
    MarketParams,
    Scheme,
    SarCase,
    SurCase,
    TruncatedNormalTypes,
    UniformTypes,
    UserDecision,
    ad_stats,
    best_response_sar,
    best_response_sur,
    classify_sar,
    classify_sur,
    demand,
    evaluate_point,
    solve_theta2,
    solve_theta4,
)
from datarewards.numerics import newton_root, newton_roots
from datarewards.oracle import oracle_user_br, user_payoff
from datarewards.presets import PRESETS
from datarewards.users import (
    MIN_REWARD,
    case_bound_a,
    case_bound_b_sar,
    case_bound_b_sur,
    case_bound_d,
    case_index,
    root_resolution,
    theta0,
    theta1,
    theta3,
    thresholds,
)


def _mk(utility, dist, F=30.0, Q=0.8, phi=0.3, N=1e7, C=1.6e7) -> MarketParams:
    return MarketParams(
        N=N, F=F, Q=Q, phi=phi, K=23.0, A=0.6, B=5.0, C=C,
        utility=utility, dist=dist,
    )


@pytest.fixture(scope="module")
def log_uniform() -> MarketParams:
    return _mk(LogUtility(), UniformTypes(155.0))


# ---------------------------------------------------------------------------
# case classification
# ---------------------------------------------------------------------------


def test_zero_reward_is_case_a(log_uniform):
    assert classify_sar(log_uniform, 0.0) is SarCase.A
    assert classify_sur(log_uniform, 0.0) is SurCase.A


def test_sar_case_boundaries_closed_below(log_uniform):
    p = log_uniform
    ab = case_bound_a(p)
    assert ab == pytest.approx(0.3 * 1.8 / 155.0, rel=1e-12)
    assert classify_sar(p, ab) is SarCase.A
    assert classify_sar(p, ab * 1.0001) is SarCase.B
    bc = case_bound_b_sar(p)
    assert bc == pytest.approx((0.3 / 30.0) * 1.8 * math.log(1.8), rel=1e-12)
    assert classify_sar(p, bc) is SarCase.B
    assert classify_sar(p, bc * 1.0001) is SarCase.C


def test_sur_case_boundaries(log_uniform):
    p = log_uniform
    assert classify_sur(p, case_bound_a(p)) is SurCase.A
    b2 = case_bound_b_sur(p)
    assert classify_sur(p, b2) is SurCase.B
    assert classify_sur(p, b2 * 1.0001) is SurCase.C
    q = case_bound_d(p)
    assert q == pytest.approx(0.3 * 0.8 / 30.0, rel=1e-12)
    assert classify_sur(p, q * 0.9999) is SurCase.C
    assert classify_sur(p, q) is SurCase.D


def test_infinite_marginal_collapses_lower_thresholds():
    p = _mk(AlphaFairUtility(alpha=0.5, mu=0.0), UniformTypes(155.0))
    assert case_bound_b_sur(p) == 0.0
    assert theta3(p, 0.004) == 0.0
    # the no-watching and pooled-watching cases are squeezed out: every
    # positive reward below phi Q / F is case C^
    assert classify_sur(p, 0.0) is SurCase.A
    for w in np.geomspace(1e-6 * case_bound_a(p), 0.999 * case_bound_d(p), 25):
        assert classify_sur(p, float(w)) is SurCase.C
    assert classify_sur(p, case_bound_d(p)) is SurCase.D


def _case_by_definition(p, w: float, aware: bool):
    """The case of w from the case definitions, bound by bound."""
    a, d = case_bound_a(p), case_bound_d(p)
    if aware:
        return SarCase.A if w <= a else SarCase.B if w <= case_bound_b_sar(p) else SarCase.C
    if w <= 0.0:
        return SurCase.A
    if math.isinf(p.utility.u_prime_zero):
        return SurCase.C if w < d else SurCase.D
    if w <= a:
        return SurCase.A
    return SurCase.B if w <= case_bound_b_sur(p) else SurCase.C if w < d else SurCase.D


@pytest.mark.parametrize("utility", [LogUtility(), AlphaFairUtility(alpha=0.5, mu=0.0)])
def test_case_index_matches_classify(utility):
    p = _mk(utility, UniformTypes(155.0))
    bounds = [case_bound_a(p), case_bound_b_sar(p), case_bound_b_sur(p), case_bound_d(p)]
    w = np.array([0.0] + [b * f for b in bounds for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)]
                 + list(np.linspace(0.0, 3.0 * case_bound_d(p), 50)))
    got_sar, got_sur = case_index(p, w, True), case_index(p, w, False)
    for i, wi in enumerate(w):
        assert list(SarCase)[got_sar[i]] is classify_sar(p, float(wi))
        assert list(SurCase)[got_sur[i]] is classify_sur(p, float(wi))
        assert classify_sar(p, float(wi)) is _case_by_definition(p, float(wi), True)
        assert classify_sur(p, float(wi)) is _case_by_definition(p, float(wi), False)


def _same(got, want, atol: float) -> bool:
    """Entry of an array partition against the scalar field: NaN stands
    for None, inf must match exactly."""
    if want is None:
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= atol + 1e-12 * abs(want)


@pytest.mark.parametrize("utility", [
    LogUtility(), AlphaFairUtility(alpha=0.5, mu=0.0), ExpUtility(gamma=0.7)
])
@pytest.mark.parametrize("aware", [True, False])
def test_array_partition_matches_scalar(utility, aware):
    p = _mk(utility, TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0), F=10.0)
    q = case_bound_d(p)
    w = np.array([0.0, case_bound_a(p), case_bound_b_sar(p), case_bound_b_sur(p), q]
                 + list(np.linspace(0.0, 3.0 * q, 61)[1:]))
    part = thresholds(p, w, scheme_aware=aware)
    # every case occurs; with u'(0) infinite SUR has no case B^
    n_cases = 3 if aware else 3 if math.isinf(utility.u_prime_zero) else 4
    assert len(set(part.case.tolist())) == n_cases
    atol = root_resolution(p)
    for i, wi in enumerate(w):
        one = thresholds(p, float(wi), scheme_aware=aware)
        assert list(SarCase if aware else SurCase)[part.case[i]] is one.case
        assert part.theta0 == one.theta0
        for field in ("theta1", "theta3", "theta2", "theta4", "cutoff"):
            assert _same(getattr(part, field)[i], getattr(one, field), atol), (wi, field)
        for seg in ("sub_watch", "alone_watch"):
            (lo, hi), (lo1, hi1) = getattr(part, seg), getattr(one, seg)
            assert (hi[i] > lo[i]) == (hi1 > lo1), (wi, seg)
            if hi1 > lo1:
                assert _same(lo[i], lo1, atol) and _same(hi[i], hi1, atol), (wi, seg)


# alpha-fair mu = 0 (u'(0) infinite) markets of both type families
_MU0_MARKETS = [
    _mk(AlphaFairUtility(alpha=0.8, mu=0.0), UniformTypes(155.0)),
    _mk(AlphaFairUtility(alpha=0.8, mu=0.0),
        TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0),
        F=40.0, Q=2.0, phi=0.03, C=2.5e7),
]


@pytest.mark.parametrize("p", _MU0_MARKETS)
def test_infinite_marginal_small_reward_matches_oracle(p):
    # below case_bound_a even the top type's theta1 exceeds theta_max:
    # no subscriber watches, but every non-subscriber with theta > 0 does
    rng = np.random.default_rng(11)
    a = case_bound_a(p)
    for w in (0.01 * a, 0.3 * a, a):
        thr = thresholds(p, w, scheme_aware=False)
        assert thr.theta1 >= p.dist.theta_max * (1.0 - 1e-12)
        assert thr.theta3 == 0.0 and thr.theta4 > thr.theta0
        for theta in rng.uniform(0.0, p.dist.theta_max, 40):
            mine = best_response_sur(p, float(theta), w)
            if 0.0 < theta < thr.theta4:
                assert mine.r == 0 and mine.x > 0.0
            _, grid_payoff = oracle_user_br(p, float(theta), w, Scheme.SUR)
            my_payoff = user_payoff(p, float(theta), mine.r, mine.x, w)
            scale = max(abs(grid_payoff), abs(my_payoff), 1.0)
            assert my_payoff >= grid_payoff - 1e-8 * scale


# alpha-fair markets with mu = 0 and mu = 0.3; the second has u'(Q) < 1/2,
# so w u'(Q) rounds to 0 at w = 5e-324
_TINY_REWARD_MARKETS = [
    _mk(AlphaFairUtility(alpha=0.5, mu=0.0), UniformTypes(155.0), C=1e12),
    _mk(AlphaFairUtility(alpha=0.9, mu=0.3), UniformTypes(155.0), Q=2.0, C=1e12),
]


@pytest.mark.parametrize("p", _TINY_REWARD_MARKETS, ids=["mu0", "mu0.3"])
@pytest.mark.parametrize("w", [5e-324, 2.2e-309])
@pytest.mark.parametrize("scheme", [Scheme.SAR, Scheme.SUR])
def test_subnormal_reward_names_the_smallest_supported_one(p, w, scheme):
    # phi / (w u') overflows below MIN_REWARD: the partition raised
    # DomainError, NumericalError or ZeroDivisionError by market
    aware = scheme is Scheme.SAR
    smallest = re.escape(repr(MIN_REWARD))
    with pytest.raises(DomainError, match=smallest):
        thresholds(p, w, scheme_aware=aware)
    with pytest.raises(DomainError, match=smallest):
        evaluate_point(p, w, scheme)
    with pytest.raises(DomainError, match=smallest):
        thresholds(p, np.array([0.0, MIN_REWARD, w]), scheme_aware=aware)
    # the smallest supported reward leaves demand at its zero-reward level
    assert demand(p, MIN_REWARD, scheme) == pytest.approx(p.baseline_demand(), rel=1e-9)
    part = thresholds(p, np.array([0.0, MIN_REWARD]), scheme_aware=aware)
    assert part.cutoff[1] == pytest.approx(theta0(p), rel=1e-9)


@pytest.mark.parametrize("w", [math.nan, -0.01, -MIN_REWARD, math.inf, -math.inf])
@pytest.mark.parametrize("scheme", [Scheme.SAR, Scheme.SUR])
def test_invalid_reward_is_named(w, scheme):
    # on fig5a a NaN reward passed as case A with NaN demand, a negative
    # one as the zero-reward outcome, and inf failed on u' = 0 without
    # naming the reward
    p = PRESETS["fig5a"].params(1.6e7)
    aware = scheme is Scheme.SAR
    named = re.escape(f"reward {w!r} ")
    calls = [
        lambda w: thresholds(p, w, scheme_aware=aware),
        lambda w: demand(p, w, scheme),
        lambda w: evaluate_point(p, w, scheme),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=named):
            call(w)
        # an array names its first bad entry
        with pytest.raises(DomainError, match=named):
            call(np.array([0.01, w, -1.0]))
    # 0 and the smallest supported reward still evaluate, alone and in arrays
    d0 = p.baseline_demand()
    for ok in (0.0, MIN_REWARD):
        assert demand(p, ok, scheme) == pytest.approx(d0, rel=1e-9)
    both = evaluate_point(p, np.array([0.0, MIN_REWARD, 0.01]), scheme)
    assert both.demand[:2] == pytest.approx([d0, d0], rel=1e-9)
    assert both.demand[2] == evaluate_point(p, 0.01, scheme).demand


@pytest.mark.parametrize("shape", [(), (1, 2), (2, 1)])
@pytest.mark.parametrize("scheme", [Scheme.SAR, Scheme.SUR])
def test_reward_array_must_be_one_dimensional(shape, scheme):
    # a (1, 2) array gave thresholds whose case and cutoff were (1, 2)
    # but theta2 and theta4 (1,), and evaluate_point and demand failed
    # on it with ValueError or IndexError; a 0-d array raised TypeError
    p = PRESETS["fig5a"].params(1.6e7)
    w = np.full(shape, 0.01)
    named = re.escape(f"reward array must be 1-D, got shape {shape}")
    calls = [
        lambda w: thresholds(p, w, scheme_aware=scheme is Scheme.SAR),
        lambda w: evaluate_point(p, w, scheme),
        lambda w: demand(p, w, scheme),
        lambda w: ad_stats(p, w, scheme),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=named):
            call(w)
    # a float and a 1-D array still evaluate
    assert evaluate_point(p, np.array([0.01]), scheme).demand[0] == demand(p, 0.01, scheme)


@pytest.mark.parametrize("br", [best_response_sar, best_response_sur])
def test_best_response_rejects_invalid_type_and_reward(br):
    # NaN and negative types returned UserDecision(r=0, x=0.0); an
    # infinite type raised "marginal utility must be > 0" (SAR) or
    # returned UserDecision(r=1, x=0.0) (SUR)
    p = PRESETS["fig5a"].params(1.6e7)
    for theta in (math.nan, -3.0, math.inf, -math.inf):
        named = re.escape(f"type must be finite and >= 0, got {theta!r}")
        with pytest.raises(DomainError, match=named):
            br(p, theta, 0.01)
    with pytest.raises(DomainError, match="reward nan "):
        br(p, 50.0, math.nan)
    assert br(p, 0.0, 0.01) == UserDecision(r=0, x=0.0)
    assert br(p, 50.0, 0.0).x == 0.0
    # a finite type above theta_max still gets an answer: it watches
    assert 0.0 < br(p, 2.0 * p.dist.theta_max, 0.01).x < math.inf


# ---------------------------------------------------------------------------
# threshold roots
# ---------------------------------------------------------------------------

# a root solve that divides by zero or takes a logarithm of 0 fails
_strict = pytest.mark.filterwarnings("error::RuntimeWarning")


@_strict
def test_theta2_defining_equation(log_uniform):
    p = log_uniform
    w = 1.2 * case_bound_b_sar(p)
    t2 = solve_theta2(p, w)
    assert theta1(p, w) < t2 < theta0(p)
    level = p.utility.inverse_marginal(p.phi / (w * t2))
    h = t2 * p.utility.u(level) - p.F - (p.phi / w) * (level - p.Q)
    assert abs(h) <= 1e-8 * p.F


@_strict
def test_theta2_decreases_with_reward(log_uniform):
    p = log_uniform
    w = 1.2 * case_bound_b_sar(p)
    assert solve_theta2(p, 1.1 * w) < solve_theta2(p, w)


@_strict
def test_theta2_against_dense_scan(log_uniform):
    p = log_uniform
    w = 1.2 * case_bound_b_sar(p)
    t2 = solve_theta2(p, w)
    grid = np.linspace(theta1(p, w), theta0(p), 1_000_000)

    def h(theta):
        level = p.phi / (w * theta)
        lvl = 1.0 / level - 1.0
        return theta * np.log1p(lvl) - p.F - (p.phi / w) * (lvl - p.Q)

    vals = h(grid)
    flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    assert len(flips) == 1
    assert grid[flips[0]] <= t2 <= grid[flips[0] + 1]


@_strict
def test_theta2_wrong_case_raises(log_uniform):
    p = log_uniform
    with pytest.raises(InternalConsistencyError):
        solve_theta2(p, 0.5 * case_bound_b_sar(p))


@_strict
@pytest.mark.parametrize(
    "utility",
    [LogUtility(), AlphaFairUtility(alpha=0.8, mu=0.8), ExpUtility(gamma=0.7)],
)
def test_theta4_defining_equation(utility):
    p = _mk(utility, UniformTypes(155.0), F=10.0)
    w = 0.5 * (case_bound_b_sur(p) + case_bound_d(p))
    t4 = solve_theta4(p, w)
    assert theta3(p, w) < t4 < theta1(p, w)
    assert t4 > theta0(p)
    level = p.utility.inverse_marginal(p.phi / (w * t4))
    v = (t4 * p.utility.u(level) - (p.phi / w) * level
         - t4 * p.utility.u(p.Q) + p.F)
    assert abs(v) <= 1e-7 * p.F


@_strict
def test_theta4_increases_with_reward(log_uniform):
    p = log_uniform
    b2, q = case_bound_b_sur(p), case_bound_d(p)
    ws = np.geomspace(b2 * 1.05, q * 0.999, 12)
    t4s = [solve_theta4(p, float(w)) for w in ws]
    assert all(a < b for a, b in zip(t4s, t4s[1:]))


@_strict
@pytest.mark.parametrize("utility", [
    LogUtility(), AlphaFairUtility(alpha=0.8, mu=0.8),
    AlphaFairUtility(alpha=0.5, mu=0.0), ExpUtility(gamma=0.7),
])
def test_array_roots_match_scalar_roots(utility):
    p = _mk(utility, TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0), F=10.0)
    q = case_bound_d(p)
    w4 = np.geomspace(max(case_bound_b_sur(p), 1e-3 * q) * 1.001, q * 0.999, 30)
    np.testing.assert_array_equal(
        solve_theta4(p, w4), [solve_theta4(p, float(w)) for w in w4]
    )
    w2 = np.geomspace(case_bound_b_sar(p), 3.0 * q, 30)
    np.testing.assert_array_equal(
        solve_theta2(p, w2), [solve_theta2(p, float(w)) for w in w2]
    )


@_strict
def test_array_h_and_v_at_zero_type_match_the_float_forms():
    # theta3 = 0 where u'(0) = inf: the array forms map theta = 0 to
    # level 0 as the float forms do, where v = F with slope -u(Q)
    p = _mk(AlphaFairUtility(alpha=0.5, mu=0.0), UniformTypes(155.0))
    w = 0.5 * (case_bound_b_sur(p) + case_bound_d(p))
    assert theta3(p, w) == 0.0
    for g in (users_mod._h, users_mod._v):
        value, slope = g(p, np.array([w, 2.0 * w]))(np.zeros(2))
        for k, w_k in enumerate((w, 2.0 * w)):
            assert (value[k], slope[k]) == g(p, w_k)(0.0)
    assert users_mod._v(p, w)(0.0) == (p.F, -p.utility.u(p.Q))


@_strict
def test_newton_roots_take_the_scalar_steps():
    # the same arithmetic on floats and arrays: bit-equal roots, within
    # xtol/2 of the exact root, for convex cubes rising (y = x) and
    # falling (y = 2 - x), including brackets that end at a root or
    # start narrower than xtol. The last two of each kind end within
    # 1e-14 of their root, and their end values are passed as 0, as
    # `_case_c_root` passes a root on a case boundary; every step
    # evaluates f on the whole array, open and closed brackets alike
    c = np.array(
        [2.0, 3.0, 0.0, 8.0, 1e-6, 4.9130000000001, 1.0 + 1e-15, 8.0 - 1e-14] * 2
    )
    lo = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.7, 1.0, 1.0] * 2)
    hi = np.array([2.0, 2.0, 1.0, 2.0, 1.0, 1.7 + 1e-13, 2.0, 2.0] * 2)
    falling = np.repeat([False, True], 8)
    lo[falling], hi[falling] = 2.0 - hi[falling], 2.0 - lo[falling]
    sign = np.where(falling, -1.0, 1.0)
    on_end = np.tile(np.arange(8) >= 6, 2)
    xtol = 1e-12
    sizes = []

    def f_at(x, k):
        y = np.where(falling[k], 2.0 - x, x)
        return y * y * y - c[k], 3.0 * y * y * sign[k]

    def f(x):
        sizes.append(len(x))
        return f_at(x, idx)

    idx = np.arange(len(c))
    (f_lo, d_lo), (f_hi, d_hi) = f_at(lo, idx), f_at(hi, idx)
    assert np.all((f_lo != 0.0) & (f_hi != 0.0) | ~on_end)
    f_lo = np.where(on_end & (np.abs(f_lo) < np.abs(f_hi)), 0.0, f_lo)
    f_hi = np.where(on_end & (f_lo != 0.0), 0.0, f_hi)
    slope = np.where(f_lo > 0.0, d_lo, d_hi)
    got = newton_roots(f, lo, hi, xtol, f_lo, f_hi, slope)
    assert sizes and set(sizes) == {len(c)}
    for k in idx:
        def f_k(x, k=k):
            value, d = f_at(np.array([x]), np.array([k]))
            return float(value[0]), float(d[0])

        want = newton_root(
            f_k, float(lo[k]), float(hi[k]), xtol,
            float(f_lo[k]), float(f_hi[k]), float(slope[k]),
        )
        assert got[k] == want
        exact = np.cbrt(c[k])
        assert abs(got[k] - (2.0 - exact if falling[k] else exact)) <= 0.5 * xtol
    # a zeroed end is the root, lo before hi
    assert got[on_end].tolist() == np.where(f_lo == 0.0, lo, hi)[on_end].tolist()


def _count_evals(monkeypatch):
    """Record, per scalar theta2/theta4 solve, the evaluations of f made
    by the root search and the halvings bisection would need to bring
    the same bracket to `root_resolution`."""
    log = []

    def counting(f, lo, hi, xtol, *args):
        n = 0

        def f_counted(theta):
            nonlocal n
            n += 1
            return f(theta)

        root = newton_root(f_counted, lo, hi, xtol, *args)
        log.append((n, math.ceil(math.log2(abs(hi - lo) / xtol))))
        return root

    monkeypatch.setattr(users_mod, "newton_root", counting)
    return log


@_strict
@pytest.mark.parametrize("name", ["fig5a", "fig5b", "fig7c", "appK"])
def test_root_evaluation_budget(name, monkeypatch):
    p = PRESETS[name].params()
    log = _count_evals(monkeypatch)
    b4, q, b2 = case_bound_b_sur(p), case_bound_d(p), case_bound_b_sar(p)
    for frac in np.linspace(0.1, 0.9, 9):
        solve_theta4(p, b4 + frac * (q - b4))
        solve_theta2(p, b2 * (1.0 + 3.0 * frac))
    assert len(log) == 18 and max(n for n, _ in log) <= 8
    # near the collapse reward v'(theta4) -> 0 and Newton slows, but it
    # never needs more evaluations than bisection on the same bracket
    log.clear()
    for w in (b4 * (1.0 + 1e-9), q * (1.0 - 1e-6), q * (1.0 - 1e-9)):
        solve_theta4(p, w)
    for w in (b2 * (1.0 + 1e-6), b2 * 1e3):
        solve_theta2(p, w)
    assert len(log) == 5
    assert all(n <= halvings for n, halvings in log)


def _mp_families():
    """Markets of every utility x type family, with alpha-fair mu = 0
    and narrow truncated normals."""
    utilities = [
        LogUtility(), AlphaFairUtility(alpha=0.8, mu=0.8),
        AlphaFairUtility(alpha=0.5, mu=0.0), AlphaFairUtility(alpha=0.8, mu=0.0),
        ExpUtility(gamma=0.7),
    ]
    dists = [
        UniformTypes(155.0),
        TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0),
        TruncatedNormalTypes(mean=60.0, sd=0.5, lo=59.0, hi=61.0),
    ]
    return [_mk(u, d, F=10.0) for u in utilities for d in dists]


def _mp_utility(mp, utility):
    """u, u' and (u')^{-1} of the utility in mpmath arithmetic."""
    if isinstance(utility, LogUtility):
        return mp.log1p, (lambda z: 1 / (1 + z)), (lambda s: 1 / s - 1)
    if isinstance(utility, ExpUtility):
        g = mp.mpf(utility.gamma)
        return (
            lambda z: -mp.expm1(-g * z),
            lambda z: g * mp.exp(-g * z),
            lambda s: mp.log(g / s) / g,
        )
    a, mu = mp.mpf(utility.alpha), mp.mpf(utility.mu)
    return (
        lambda z: ((z + mu) ** (1 - a) - mu ** (1 - a)) / (1 - a),
        lambda z: (z + mu) ** -a,
        lambda s: s ** (-1 / a) - mu,
    )


@_strict
@pytest.mark.parametrize("p", _mp_families(), ids=lambda p: (
    f"{type(p.utility).__name__}{getattr(p.utility, 'mu', '')}-"
    f"{type(p.dist).__name__}{p.dist.theta_max:g}"
))
def test_roots_match_mpmath(p):
    # theta2 and theta4 within root_resolution/2 of their 50-digit roots
    # just above the case bounds, mid-case, and where v'(theta4) -> 0
    # below the collapse reward phi Q/F
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    u, u_prime, inv = _mp_utility(mp, p.utility)
    F, Q, phi = mp.mpf(p.F), mp.mpf(p.Q), mp.mpf(p.phi)
    u_q = u(Q)
    half = 0.5 * root_resolution(p)

    def theta1_(w):
        return phi / (w * u_prime(Q))

    def level(theta, w):
        return max(inv(phi / (w * theta)), 0) if theta > 0 else mp.mpf(0)

    def h(theta, w):
        lvl = level(theta, w)
        return theta * u(lvl) - F - (phi / w) * (lvl - Q)

    def v(theta, w):
        lvl = level(theta, w)
        return theta * u(lvl) - (phi / w) * lvl - theta * u_q + F

    q = case_bound_d(p)
    b4 = case_bound_b_sur(p) or 1e-6 * q  # mu = 0: case C^ starts at 0
    for w in (b4 * (1.0 + 1e-9), b4 * (1.0 + 1e-6), 0.5 * (b4 + q),
              q * (1.0 - 1e-6), q * (1.0 - 1e-9)):
        wm = mp.mpf(w)
        t3 = phi / (wm * u_prime(0)) if p.utility.u_prime_zero < math.inf else 0
        exact = mp.findroot(lambda t: v(t, wm), (t3, theta1_(wm)), solver="anderson")
        assert abs(solve_theta4(p, w) - float(exact)) <= half, w
    b2 = case_bound_b_sar(p)
    for w in (b2 * (1.0 + 1e-9), b2 * (1.0 + 1e-6), 2.0 * b2, max(q, 4.0 * b2)):
        wm = mp.mpf(w)
        exact = mp.findroot(lambda t: h(t, wm), (theta1_(wm), F / u_q), solver="anderson")
        assert abs(solve_theta2(p, w) - float(exact)) <= half, w


# ---------------------------------------------------------------------------
# best responses: closed forms
# ---------------------------------------------------------------------------


def test_case_a_subscription_rule(log_uniform):
    p = log_uniform
    w = 0.5 * case_bound_a(p)
    t0 = theta0(p)
    for theta, r in [(t0 * 0.9, 0), (t0, 1), (t0 * 1.1, 1), (155.0, 1)]:
        dec = best_response_sar(p, theta, w)
        assert (dec.r, dec.x) == (r, 0.0)


def test_case_b_log_watch_rate_is_affine(log_uniform):
    p = log_uniform
    w = 0.9 * case_bound_b_sar(p)
    t1 = theta1(p, w)
    for theta in [t1 * 1.1, t1 * 1.5, 150.0]:
        dec = best_response_sar(p, theta, w)
        assert dec.r == 1
        assert dec.x == pytest.approx((theta - t1) / p.phi, rel=1e-10)
    below = best_response_sar(p, t1 * 0.9, w)
    assert below.x == 0.0


def test_case_c_every_subscriber_watches(log_uniform):
    p = log_uniform
    w = 1.3 * case_bound_b_sar(p)
    t2 = solve_theta2(p, w)
    for theta in np.linspace(t2, 155.0, 20):
        dec = best_response_sar(p, float(theta), w)
        assert dec.r == 1
        assert dec.x > 0.0
    dec = best_response_sar(p, t2 * 0.999, w)
    assert (dec.r, dec.x) == (0, 0.0)


def test_sur_case_d_nobody_subscribes(log_uniform):
    p = log_uniform
    w = 1.5 * case_bound_d(p)
    for theta in np.linspace(0.0, 155.0, 25):
        dec = best_response_sur(p, float(theta), w)
        assert dec.r == 0
    # high types still watch ads
    assert best_response_sur(p, 150.0, w).x > 0.0


def test_sur_case_b_matches_sar_case_b(log_uniform):
    p = log_uniform
    w = 0.9 * case_bound_b_sur(p)
    assert classify_sur(p, w) is SurCase.B
    for theta in np.linspace(0.0, 155.0, 40):
        a = best_response_sar(p, float(theta), w)
        b = best_response_sur(p, float(theta), w)
        assert (a.r, a.x) == (b.r, b.x)


def test_sur_case_c_non_subscriber_band(log_uniform):
    p = log_uniform
    w = 0.5 * (case_bound_b_sur(p) + case_bound_d(p))
    thr = thresholds(p, w, scheme_aware=False)
    t3, t4 = thr.theta3, thr.theta4
    inside = best_response_sur(p, 0.5 * (t3 + t4), w)
    assert inside.r == 0 and inside.x > 0.0
    above = best_response_sur(p, t4 * 1.001, w)
    assert above.r == 1
    below = best_response_sur(p, t3 * 0.99, w)
    assert (below.r, below.x) == (0, 0.0)


def test_sar_constraint_no_watching_without_subscription(log_uniform):
    p = log_uniform
    for w in np.linspace(0.0, 2 * case_bound_d(p), 15):
        for theta in np.linspace(0.0, 155.0, 15):
            dec = best_response_sar(p, float(theta), float(w))
            if dec.x > 0.0:
                assert dec.r == 1


# ---------------------------------------------------------------------------
# shape laws and monotonicity on the watching segment
# ---------------------------------------------------------------------------


def _watch_curve(p: MarketParams, w: float, n=200):
    t1 = theta1(p, w)
    grid = np.linspace(t1 * 1.01, p.dist.theta_max, n)
    xs = np.array([best_response_sar(p, float(t), w).x for t in grid])
    return grid, xs


def test_watch_rate_monotone_in_type():
    for utility in (LogUtility(), AlphaFairUtility(0.8, 0.8), ExpUtility(0.7)):
        p = _mk(utility, UniformTypes(155.0), F=10.0)
        w = 0.9 * case_bound_b_sar(p)
        _, xs = _watch_curve(p, w)
        assert np.all(np.diff(xs) >= -1e-12)


def test_watch_rate_shape_by_utility():
    w_scale = 0.9
    p = _mk(LogUtility(), UniformTypes(155.0))
    _, xs = _watch_curve(p, w_scale * case_bound_b_sar(p))
    assert np.max(np.abs(np.diff(xs, 2))) <= 1e-6  # affine

    p = _mk(ExpUtility(gamma=0.7), UniformTypes(155.0), F=10.0)
    _, xs = _watch_curve(p, w_scale * case_bound_b_sar(p))
    assert np.all(np.diff(xs, 2) <= 1e-9)  # concave

    p = _mk(AlphaFairUtility(alpha=0.8, mu=0.8), UniformTypes(155.0), F=10.0)
    _, xs = _watch_curve(p, w_scale * case_bound_b_sar(p))
    assert np.all(np.diff(xs, 2) >= -1e-9)  # convex


# ---------------------------------------------------------------------------
# oracle dominance (small sample here; the full 1000-draw run is in
# the acceptance suite)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "utility,dist",
    [
        (LogUtility(), UniformTypes(155.0)),
        (AlphaFairUtility(0.8, 0.8), UniformTypes(155.0)),
        (ExpUtility(0.7), UniformTypes(155.0)),
    ],
)
def test_best_response_beats_grid_oracle(utility, dist):
    p = _mk(utility, dist, F=10.0)
    rng = np.random.default_rng(7)
    w_hi = 2.0 * case_bound_d(p)
    for scheme, br in (
        (Scheme.SAR, best_response_sar),
        (Scheme.SUR, best_response_sur),
    ):
        for _ in range(60):
            theta = rng.uniform(0.0, p.dist.theta_max)
            w = rng.uniform(0.0, w_hi)
            mine = br(p, theta, w)
            _, grid_payoff = oracle_user_br(p, theta, w, scheme, n_x=2001)
            my_payoff = user_payoff(p, theta, mine.r, mine.x, w)
            scale = max(abs(grid_payoff), abs(my_payoff), 1.0)
            assert my_payoff >= grid_payoff - 1e-8 * scale
