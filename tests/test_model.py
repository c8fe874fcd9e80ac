import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datarewards import (
    AlphaFairUtility,
    DomainError,
    ExpUtility,
    LogUtility,
    MarketParams,
    NumericalError,
    ScenarioError,
    ScenarioParseError,
    Scheme,
    TruncatedNormalTypes,
    UniformTypes,
    integrate,
    load_scenario,
    params_from_dict,
    params_to_dict,
    save_scenario,
)
from datarewards.model import _normal_mass, integrate_segments, mass
from datarewards.presets import PRESETS
from datarewards.users import (
    _watch_alone,
    _watch_subscriber,
    case_bound_d,
    thresholds,
)
from families import narrow_normals

ALL_UTILITIES = [
    LogUtility(),
    AlphaFairUtility(alpha=0.8, mu=0.8),
    AlphaFairUtility(alpha=0.5, mu=0.0),
    ExpUtility(gamma=0.7),
]


# ---------------------------------------------------------------------------
# utility families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("u", ALL_UTILITIES)
def test_u_zero_is_zero(u):
    assert u.u(0.0) == 0.0


def test_exponential_point_value():
    u = ExpUtility(gamma=0.7)
    assert u.u(2.0) == pytest.approx(1.0 - math.exp(-1.4), rel=1e-12)


def test_alpha_fair_point_value():
    u = AlphaFairUtility(alpha=0.8, mu=0.8)
    expected = (1.6**0.2 - 0.8**0.2) / 0.2
    assert u.u(0.8) == pytest.approx(expected, rel=1e-12)


def test_inverse_marginal_points():
    log = LogUtility()
    assert log.inverse_marginal(1.0) == 0.0
    assert log.inverse_marginal(0.5) == pytest.approx(1.0)
    assert ExpUtility(gamma=0.7).inverse_marginal(0.7) == pytest.approx(0.0)


@pytest.mark.parametrize("u", ALL_UTILITIES)
def test_negative_argument_rejected(u):
    for z in (-0.1, np.array([0.5, -0.1, 0.3])):
        with pytest.raises(DomainError, match="-0.1"):
            u.u(z)
    with pytest.raises(DomainError, match="-0.1"):
        u.u_prime(-0.1)


def test_inverse_marginal_domain_errors_distinguish_sides():
    u = ExpUtility(gamma=0.7)
    with pytest.raises(DomainError, match="> 0"):
        u.inverse_marginal(0.0)
    with pytest.raises(DomainError, match="exceeds"):
        u.inverse_marginal(0.8)
    af = AlphaFairUtility(alpha=0.8, mu=0.8)
    with pytest.raises(DomainError, match="exceeds"):
        af.inverse_marginal(af.u_prime_zero * 2.0)


def test_marginal_utility_vanishes_at_large_z():
    for u in ALL_UTILITIES:
        assert u.u_prime(1e6) <= 1e-3 * u.u_prime(1.0)


@pytest.mark.parametrize("u", ALL_UTILITIES)
def test_finite_difference_derivative(u):
    h = 1e-5
    for z in [1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0]:
        fd = (u.u(z + h) - u.u(z - h)) / (2 * h)
        exact = u.u_prime(z)
        assert abs(exact - fd) <= 1e-5 * (1.0 + abs(exact))


@pytest.mark.parametrize("u", ALL_UTILITIES)
@given(z=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_inverse_marginal_round_trip(u, z):
    s = u.u_prime(z)
    assert u.inverse_marginal(s) == pytest.approx(z, rel=1e-10)


@pytest.mark.parametrize("u", ALL_UTILITIES)
@given(
    a=st.floats(min_value=0.0, max_value=50.0),
    b=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_concavity_midpoint(u, a, b):
    mid = u.u((a + b) / 2.0)
    assert mid >= (u.u(a) + u.u(b)) / 2.0 - 1e-12


def test_utility_parameter_validation():
    with pytest.raises(ScenarioError):
        AlphaFairUtility(alpha=1.0, mu=0.5)
    with pytest.raises(ScenarioError):
        AlphaFairUtility(alpha=0.5, mu=-0.1)
    with pytest.raises(ScenarioError):
        ExpUtility(gamma=0.0)


# ---------------------------------------------------------------------------
# type distributions and integration
# ---------------------------------------------------------------------------


DISTS = [
    UniformTypes(155.0),
    TruncatedNormalTypes(mean=125.0, sd=30.0, lo=0.0, hi=250.0),
    TruncatedNormalTypes(mean=30.0, sd=60.0, lo=0.0, hi=320.0),
    TruncatedNormalTypes(mean=-5.0, sd=1.0, lo=0.0, hi=3.0),  # heavy truncation
]


@pytest.mark.parametrize("dist", DISTS)
def test_pdf_normalizes(dist):
    total = integrate(dist, lambda t: 1.0, 0.0, dist.theta_max)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("dist", DISTS)
def test_mass_matches_quadrature(dist):
    lo, hi = 0.3 * dist.theta_max, 0.9 * dist.theta_max
    assert mass(dist, lo, hi) == pytest.approx(
        integrate(dist, lambda t: 1.0, lo, hi), rel=1e-7
    )


def test_quadrature_rules_are_numpys_gauss_legendre():
    # the rules are written out so that the package need not import
    # numpy.polynomial; they are leggauss's, bit for bit
    import datarewards.model as model_mod

    for n, (s, v) in ((32, (model_mod._GL_S, model_mod._GL_V)),
                      (8, (model_mod._GL8_S, model_mod._GL8_V))):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(s, 0.5 * (nodes + 1.0))
        assert np.array_equal(v, 0.5 * weights)


def test_uniform_interval_measure():
    dist = UniformTypes(155.0)
    val = integrate(dist, lambda t: 1.0, 51.04, 155.0)
    assert val == pytest.approx((155.0 - 51.04) / 155.0, rel=1e-10)


def test_empty_interval_integrates_to_zero():
    dist = UniformTypes(155.0)
    assert integrate(dist, lambda t: 42.0, 10.0, 10.0) == 0.0


def test_integration_limits_validated():
    dist = UniformTypes(155.0)
    with pytest.raises(DomainError):
        integrate(dist, lambda t: 1.0, -1.0, 10.0)
    with pytest.raises(DomainError):
        integrate(dist, lambda t: 1.0, 0.0, 200.0)


def test_integrate_rejects_non_finite_integrand():
    dist = UniformTypes(155.0)
    with pytest.raises(NumericalError):
        integrate(dist, lambda t: np.where(t > 50.0, math.inf, 1.0), 0.0, 155.0)
    with pytest.raises(NumericalError):
        integrate(dist, lambda t: math.nan, 10.0, 20.0)


def test_integrate_stacked_rows_match_single_rows():
    dist = TruncatedNormalTypes(mean=125.0, sd=30.0, lo=0.0, hi=250.0)
    both = integrate(dist, lambda t: np.stack((t, t * t)), 40.0, 210.0)
    assert both.shape == (2,)
    first = integrate(dist, lambda t: t, 40.0, 210.0)
    second = integrate(dist, lambda t: t * t, 40.0, 210.0)
    assert both.tolist() == pytest.approx([first, second], rel=1e-15)


@pytest.mark.parametrize("u", ALL_UTILITIES)
def test_utility_array_matches_scalar(u):
    z = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 40)])
    got = u.u(z)
    want = np.array([u.u(float(v)) for v in z])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("dist", DISTS)
def test_mass_array_matches_scalar(dist):
    edges = np.linspace(-10.0, dist.theta_max + 10.0, 23)
    lo, hi = np.meshgrid(edges, edges)
    got = mass(dist, lo.ravel(), hi.ravel())
    want = [mass(dist, float(a), float(b)) for a, b in zip(lo.ravel(), hi.ravel())]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("u", ALL_UTILITIES)
def test_inverse_marginal_array_matches_scalar(u):
    s = np.geomspace(1e-3, 0.99, 41) * min(u.u_prime_zero, 5.0)
    got = u.inverse_marginal(s)
    want = np.array([u.inverse_marginal(float(v)) for v in s])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


def test_inverse_marginal_array_domain_errors():
    u = ExpUtility(gamma=0.7)
    with pytest.raises(DomainError, match="> 0"):
        u.inverse_marginal(np.array([0.5, 0.0, 0.3]))
    with pytest.raises(DomainError, match="exceeds"):
        u.inverse_marginal(np.array([0.5, 0.8]))


# Every utility x type-distribution family, with mu = 0 alpha-fair
# utilities whose non-subscriber segments start at theta = 0 and small
# mu > 0 ones whose segments start just above it.
_QUAD_UTILITIES = ALL_UTILITIES + [
    AlphaFairUtility(alpha=0.3, mu=0.0),
    AlphaFairUtility(alpha=0.9, mu=0.0),
    AlphaFairUtility(alpha=0.9, mu=1e-8),
    AlphaFairUtility(alpha=0.7, mu=1e-5),
    AlphaFairUtility(alpha=0.5, mu=1e-3),
]
_QUAD_DISTS = [
    UniformTypes(155.0),
    TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0),
    TruncatedNormalTypes(mean=125.0, sd=30.0, lo=0.0, hi=250.0),
    # support starting above 0: segments from theta3 cross its edge
    TruncatedNormalTypes(mean=75.0, sd=40.0, lo=20.0, hi=150.0),
]


def _quad_params(u, dist, fee: float) -> MarketParams:
    """A market of the given families; the fee is lowered where needed
    to keep theta_max above u'(0) F / (u'(Q) u(Q)), as with small mu."""
    q = 0.8
    if math.isfinite(u.u_prime_zero):
        fee = min(fee, 0.5 * dist.theta_max * u.u_prime(q) * u.u(q) / u.u_prime_zero)
    return MarketParams(N=1e7, F=fee, Q=q, phi=0.3, K=23.0, A=0.6, B=5.0,
                        C=1e9, utility=u, dist=dist)


def _quad_reference(dist, f, lo, hi) -> float:
    quad = pytest.importorskip("scipy.integrate").quad
    # breakpoints independent of the rule's panels: the support's edge,
    # every sd of a normal, and powers of 10 toward theta = 0
    points = [getattr(dist, "lo", 0.0)]
    if isinstance(dist, TruncatedNormalTypes):
        points += [dist.mean + k * dist.sd for k in range(-40, 41)]
    points += [lo * 10.0**k for k in range(1, 20)] if lo > 0.0 else []
    points = sorted({t for t in points if lo < t < hi})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, _ = quad(lambda t: f(t) * dist.pdf(t), lo, hi,
                        points=points or None, epsabs=0.0, epsrel=1e-13,
                        limit=2000)
    return value


def _segment_moments_match_quad(params, w, scheme) -> list:
    part = thresholds(params, w, scheme_aware=scheme is Scheme.SAR)
    segments = [
        (lo, hi, xfun)
        for (lo, hi), xfun in (
            (part.alone_watch, _watch_alone), (part.sub_watch, _watch_subscriber)
        )
        if hi > lo
    ]
    for lo, hi, xfun in segments:
        for k in (1, 2):
            got = integrate(params.dist, lambda t: xfun(params, t, w) ** k, lo, hi)
            want = _quad_reference(
                params.dist, lambda t: xfun(params, t, w) ** k, lo, hi
            )
            # a density below 1e-280 is near the subnormal range, where
            # the normal's pdf itself loses relative precision
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-280, (
                lo, hi, k, got, want)
    return segments


@given(
    u=st.sampled_from(_QUAD_UTILITIES),
    dist=st.one_of(st.sampled_from(_QUAD_DISTS), narrow_normals()),
    scheme=st.sampled_from([Scheme.SAR, Scheme.SUR]),
    w_rel=st.floats(min_value=1e-3, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_segment_moments_match_quad(u, dist, scheme, w_rel):
    p = _quad_params(u, dist, fee=10.0)
    _segment_moments_match_quad(p, w_rel * case_bound_d(p), scheme)


@pytest.mark.parametrize("u", [
    AlphaFairUtility(alpha=0.9, mu=1e-8),
    AlphaFairUtility(alpha=0.7, mu=1e-3),
    ExpUtility(gamma=0.7),
])
@pytest.mark.parametrize("dist", _QUAD_DISTS[:2])
def test_segment_near_zero_matches_quad(u, dist):
    # a small fee puts theta3 orders of magnitude below theta_max, where
    # the watch rate's singularity at theta = 0 is close to the segment
    p = _quad_params(u, dist, fee=0.01)
    starts = []
    for w_rel in (0.5, 1.5):
        segments = _segment_moments_match_quad(p, w_rel * case_bound_d(p), Scheme.SUR)
        starts += [lo / hi for lo, hi, _ in segments]
    assert 0.0 < min(starts) < 1e-3


def test_panel_count_bounded_however_narrow_the_density():
    dist = TruncatedNormalTypes(mean=61.0, sd=1e-9, lo=0.0, hi=150.0)
    # 64 panels cover [mean - 40 sd, mean + 40 sd]; one more from rounding
    assert len(dist.panel_edges(0.0, 150.0)) <= 66
    assert len(UniformTypes(155.0).panel_edges(0.0, 155.0)) == 2


_LAYOUT_DISTS = [
    UniformTypes(155.0),
    TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0),
    TruncatedNormalTypes(mean=125.0, sd=30.0, lo=20.0, hi=250.0),
    TruncatedNormalTypes(mean=61.0, sd=0.75, lo=0.0, hi=150.0),
    TruncatedNormalTypes(mean=61.0, sd=1e-9, lo=0.0, hi=150.0),
]


def _random_segments(dist, n: int = 300):
    """Segments anywhere in and around the support, from 0 and from
    1e-12 to 1e-1 of theta_max, and empty ones."""
    rng = np.random.default_rng(11)
    tm = dist.theta_max
    a, b = rng.uniform(-5.0, tm + 5.0, (2, n))
    lo, hi = np.minimum(a, b).clip(0.0, tm), np.maximum(a, b).clip(0.0, tm)
    near_zero = tm * 10.0 ** rng.uniform(-12.0, -1.0, 40)
    lo = np.concatenate([lo, [0.0, 0.0, 7.0], near_zero])
    hi = np.concatenate([hi, [tm, 0.0, 3.0], np.full(40, tm)])
    return lo, hi


@pytest.mark.parametrize("dist", _LAYOUT_DISTS)
def test_panel_layout_matches_panel_edges(dist):
    lo, hi = _random_segments(dist)
    a, b, n = dist.panel_layout(lo, hi)
    for i in range(len(lo)):
        edges = dist.panel_edges(float(lo[i]), float(hi[i]))
        assert n[i] == max(len(edges) - 1, 0)
        if edges:
            assert (edges[0], edges[-1]) == (a[i], b[i])


@pytest.mark.parametrize("dist", _LAYOUT_DISTS)
def test_integrate_segments_matches_integrate(dist):
    lo, hi = _random_segments(dist)
    shift = np.linspace(0.0, 1.0, len(lo))

    def f(theta, seg):
        return np.array((np.sqrt(theta) + shift[seg], np.log1p(theta)))

    got = integrate_segments(dist, f, lo, hi, 2)
    for i in range(len(lo)):
        if hi[i] <= lo[i]:
            assert (got[:, i] == 0.0).all()
            continue
        want = integrate(
            dist, lambda t: np.array((np.sqrt(t) + shift[i], np.log1p(t))), lo[i], hi[i]
        )
        np.testing.assert_allclose(got[:, i], want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("sd", [1e-3, 0.5, 3.0, 30.0])
def test_integrate_narrow_density_matches_mass(sd):
    dist = TruncatedNormalTypes(mean=61.0, sd=sd, lo=0.0, hi=150.0)
    for lo, hi in ((0.0, 150.0), (0.0, 61.0), (61.0 + sd, 150.0)):
        got = integrate(dist, lambda t: 1.0, lo, hi)
        assert got == pytest.approx(mass(dist, lo, hi), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("dist", _QUAD_DISTS[:2])
def test_segment_from_zero_matches_quad(alpha, dist):
    p = MarketParams(N=1e7, F=10.0, Q=0.8, phi=0.3, K=23.0, A=0.6, B=5.0,
                     C=1e9, utility=AlphaFairUtility(alpha=alpha, mu=0.0),
                     dist=dist)
    for w_rel in (1e-3, 0.1, 0.5, 1.5):
        w = w_rel * case_bound_d(p)
        lo, hi = thresholds(p, w, scheme_aware=False).alone_watch
        assert lo == 0.0 < hi
        assert _segment_moments_match_quad(p, w, Scheme.SUR)


@pytest.mark.parametrize(
    "mean,lo,hi",
    [
        # the parent normal's mass on [0, 150] is about 7.6e-24
        (-100.0, 0.0, 150.0),
        (-100.0, 0.0, 0.5),
        (-100.0, 0.5, 3.0),
        # 8.5 sd and more above the mean: about 1.9e-17
        (0.0, 85.0, 150.0),
        (0.0, 5.0, 85.0),
    ],
)
def test_far_tail_mass_matches_integral(mean, lo, hi):
    dist = TruncatedNormalTypes(mean=mean, sd=10.0, lo=0.0, hi=150.0)
    want = integrate(dist, lambda t: 1.0, lo, hi)
    assert want > 0.0
    assert mass(dist, lo, hi) == pytest.approx(want, rel=1e-12, abs=0.0)


def _mass_draws() -> tuple[np.ndarray, np.ndarray]:
    """Intervals [z_a, z_b] for the normal-mass checks: z_a across
    [-40, 40] with widths log-uniform in [1e-6, 10], intervals that
    straddle the mean, far tails on both sides, and edges at 0."""
    rng = np.random.default_rng(20)
    width = 10.0 ** rng.uniform(-6.0, 1.0, 1000)
    z_a = rng.uniform(-40.0, 40.0, 1000)
    few = width[:200]
    straddle = -few * rng.uniform(0.0, 1.0, 200)
    tails = rng.uniform(8.0, 40.0, 200)
    z_a = np.concatenate([z_a, straddle, tails, -tails - few, [0.0, -1.0]])
    width = np.concatenate([width, few, few, few, [1.0, 1.0]])
    return z_a, z_a + width


def test_normal_mass_matches_mpmath():
    """Against the exact mass of the same doubles at 50 digits: within
    (4 + 2 z^2) 2^-52 (Q(a') + Q(b')), z the larger of |z_a| and |z_b|,
    where Q is the upper tail and a', b' the two tail arguments used;
    rounding z / sqrt 2 alone moves Q by about z^2 2^-52 relative. Where
    the tails are below 2^-1022 they are subnormal doubles, so 4 of
    their units, 2^-1072, are allowed on top."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50

    def q(z: float):
        return mp.erfc(mp.mpf(z) / mp.sqrt(2)) / 2

    z_a, z_b = _mass_draws()
    got = _normal_mass(z_a, z_b)
    for a, b, m in zip(z_a.tolist(), z_b.tolist(), got.tolist()):
        near, far = (a, b) if a > 0.0 else (-b, -a)
        q_near, q_far = q(near), q(far)
        bound = (4 + 2 * max(a * a, b * b)) * mp.mpf(2) ** -52 * (q_near + q_far)
        if q_near + q_far < mp.mpf(2) ** -1022:
            bound += mp.mpf(2) ** -1072
        assert abs(mp.mpf(m) - (q_near - q_far)) <= bound, (a, b, m)


def test_normal_mass_array_equals_scalar_bitwise():
    z_a, z_b = _mass_draws()
    want = [_normal_mass(a, b) for a, b in zip(z_a.tolist(), z_b.tolist())]
    assert np.array_equal(_normal_mass(z_a, z_b), want)
    square = _normal_mass(z_a[:64].reshape(8, 8), z_b[:64].reshape(8, 8))
    assert np.array_equal(square, np.reshape(want[:64], (8, 8)))
    top = np.float64(z_b[0])
    assert np.array_equal(
        _normal_mass(z_a, top), [_normal_mass(a, float(top)) for a in z_a.tolist()]
    )


def test_pdf_positive_inside_zero_outside():
    dist = TruncatedNormalTypes(mean=125.0, sd=30.0, lo=0.0, hi=250.0)
    density = dist.pdf(np.array([0.0, 250.0, -1.0, 251.0]))
    assert (density[:2] > 0.0).all()
    assert (density[2:] == 0.0).all()


def test_distribution_parameter_validation():
    with pytest.raises(ScenarioError):
        UniformTypes(0.0)
    with pytest.raises(ScenarioError):
        TruncatedNormalTypes(mean=0.0, sd=0.0, lo=0.0, hi=1.0)
    with pytest.raises(ScenarioError):
        TruncatedNormalTypes(mean=0.0, sd=1.0, lo=2.0, hi=1.0)


# ---------------------------------------------------------------------------
# market parameters and scenario files
# ---------------------------------------------------------------------------


def _base_doc() -> dict:
    return {
        "N": 1e7, "F": 30.0, "Q": 0.8, "phi": 0.3, "K": 23.0,
        "A": 0.6, "B": 5.0, "C": 1.6e7,
        "utility": {"variant": "logarithmic"},
        "distribution": {"variant": "uniform", "theta_max": 155.0},
    }


def test_zero_wearout_rejected():
    doc = _base_doc()
    doc["A"] = 0.0
    with pytest.raises(ScenarioError, match="A must be > 0"):
        params_from_dict(doc)


def test_too_small_theta_max_rejected():
    doc = _base_doc()
    doc["distribution"]["theta_max"] = 50.0  # below u'(0)F/(u'(Q)u(Q))
    with pytest.raises(ScenarioError, match="theta_max"):
        params_from_dict(doc)


def test_capacity_below_baseline_rejected():
    doc = _base_doc()
    doc["C"] = 1e6  # baseline demand is ~5.37e6
    with pytest.raises(ScenarioError, match="capacity"):
        params_from_dict(doc)


def test_missing_field_reported():
    doc = _base_doc()
    del doc["phi"]
    with pytest.raises(ScenarioError, match="phi"):
        params_from_dict(doc)


def test_unknown_variants_rejected():
    doc = _base_doc()
    doc["utility"] = {"variant": "quadratic"}
    with pytest.raises(ScenarioError, match="utility variant"):
        params_from_dict(doc)
    doc = _base_doc()
    doc["distribution"] = {"variant": "pareto"}
    with pytest.raises(ScenarioError, match="distribution variant"):
        params_from_dict(doc)


def test_variant_of_the_wrong_kind_rejected():
    # each section takes only its own kind of family
    doc = _base_doc()
    doc["utility"] = {"variant": "uniform", "theta_max": 155.0}
    with pytest.raises(ScenarioError, match="unknown utility variant: 'uniform'"):
        params_from_dict(doc)
    doc = _base_doc()
    doc["distribution"] = {"variant": "logarithmic"}
    with pytest.raises(ScenarioError, match="unknown distribution variant"):
        params_from_dict(doc)


@pytest.mark.parametrize("key", ["utility", "distribution"])
@pytest.mark.parametrize("section", ["logarithmic", 3, None, [1.0]])
def test_section_that_is_not_an_object_rejected(key, section):
    # used to escape as an AttributeError from section.get
    doc = _base_doc()
    doc[key] = section
    with pytest.raises(ScenarioError, match=f"{key} must be a JSON object"):
        params_from_dict(doc)


def test_family_fields_with_class_defaults_may_be_left_out():
    doc = _base_doc()
    doc["F"] = 10.0
    doc["utility"] = {"variant": "alpha_fair", "alpha": 0.8}
    doc["distribution"] = {"variant": "truncated_normal", "mean": 75.0,
                           "sd": 40.0, "hi": 155.0}
    params = params_from_dict(doc)
    assert params.utility == AlphaFairUtility(alpha=0.8, mu=0.0)
    assert params.dist == TruncatedNormalTypes(75.0, 40.0, 0.0, 155.0)
    # written back with every field, in the class's field order
    again = params_to_dict(params)
    assert again["utility"] == {"variant": "alpha_fair", "alpha": 0.8, "mu": 0.0}
    assert list(again["distribution"]) == ["variant", "mean", "sd", "lo", "hi"]
    for key, name in (("utility", "alpha"), ("distribution", "sd"),
                      ("distribution", "mean")):
        bad = params_to_dict(params)
        del bad[key][name]
        with pytest.raises(ScenarioError, match=f"missing required field '{name}'"):
            params_from_dict(bad)


def test_missing_truncation_top_named():
    doc = _base_doc()
    doc["distribution"] = {"variant": "truncated_normal", "mean": 75.0, "sd": 40.0}
    with pytest.raises(ScenarioError, match=r"\bhi\b"):
        params_from_dict(doc)


@pytest.mark.parametrize("lo", [None, 0.0, 20.0, -5.0])
def test_missing_truncation_top_named_whatever_lo(lo):
    # with lo < 0 the class default hi = 0.0 used to build a density on
    # [lo, 0], which MarketParams then rejected for its theta_max
    doc = _base_doc()
    doc["distribution"] = {"variant": "truncated_normal", "mean": 75.0, "sd": 40.0}
    if lo is not None:
        doc["distribution"]["lo"] = lo
    with pytest.raises(ScenarioError, match="hi, the top of the truncation range, is required"):
        params_from_dict(doc)


@pytest.mark.parametrize("lo", [-40.0, -1e-300])
def test_negative_truncation_bottom_rejected(lo):
    # the model has no negative valuations: on fig7a's market with
    # lo = -40 the solver's D(0) (over [lo, 150]) was 3 % below the
    # oracle's, which renormalizes over [0, 150]
    with pytest.raises(ScenarioError, match=r"lo must be >= 0, got -"):
        TruncatedNormalTypes(mean=75.0, sd=40.0, lo=lo, hi=150.0)
    doc = params_to_dict(PRESETS["fig7a"].params())
    doc["distribution"]["lo"] = lo
    with pytest.raises(ScenarioError, match=r"\blo\b"):
        params_from_dict(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected_by_name(bad):
    # NaN used to pass every "<= 0" check and fail later inside a solve
    params = params_from_dict(_base_doc())
    fields = ["N", "F", "Q", "phi", "K", "A", "B"] + ([] if bad == math.inf else ["C"])
    for name in fields:
        with pytest.raises(ScenarioError, match=rf"\b{name}\b"):
            dataclasses.replace(params, **{name: bad})
    built = {
        "alpha": lambda x: AlphaFairUtility(alpha=x, mu=0.5),
        "mu": lambda x: AlphaFairUtility(alpha=0.5, mu=x),
        "gamma": lambda x: ExpUtility(gamma=x),
        "theta_max": lambda x: UniformTypes(x),
        "mean": lambda x: TruncatedNormalTypes(mean=x, sd=30.0, lo=0.0, hi=150.0),
        "sd": lambda x: TruncatedNormalTypes(mean=75.0, sd=x, lo=0.0, hi=150.0),
        "lo": lambda x: TruncatedNormalTypes(mean=75.0, sd=30.0, lo=x, hi=150.0),
        "hi": lambda x: TruncatedNormalTypes(mean=75.0, sd=30.0, lo=0.0, hi=x),
    }
    for name, build in built.items():
        with pytest.raises(ScenarioError, match=rf"\b{name}\b"):
            build(bad)


def test_unlimited_capacity_constructs():
    params = dataclasses.replace(params_from_dict(_base_doc()), C=math.inf)
    assert params.C == math.inf


def test_scenario_round_trip(tmp_path):
    params = params_from_dict(_base_doc())
    path = tmp_path / "scenario.json"
    save_scenario(params, str(path))
    again = load_scenario(str(path))
    assert again == params


def test_round_trip_preserves_all_utilities(tmp_path):
    for util in (
        {"variant": "alpha_fair", "alpha": 0.8, "mu": 0.8},
        {"variant": "exponential", "gamma": 0.7},
    ):
        doc = _base_doc()
        doc["utility"] = util
        doc["F"] = 10.0  # keep the type-width assumption satisfied
        params = params_from_dict(doc)
        assert params_from_dict(params_to_dict(params)) == params


def test_malformed_json_raises_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioParseError, match="cannot parse"):
        load_scenario(str(path))


def test_baseline_demand_value(fig5a_params):
    expected = 1e7 * 0.8 * (155.0 - 30.0 / math.log(1.8)) / 155.0
    assert fig5a_params.baseline_demand() == pytest.approx(expected, rel=1e-10)


def test_params_hashable_and_frozen(fig5a_params):
    assert hash(fig5a_params) == hash(
        params_from_dict(params_to_dict(fig5a_params))
    )
    with pytest.raises(AttributeError):
        fig5a_params.N = 1.0


_DERIVED = ("u_q", "up_q", "up0", "theta0", "case_bounds_sar", "case_bounds_sur",
            "root_resolution")


def _derived(params: MarketParams) -> tuple:
    return tuple(getattr(params, name) for name in _DERIVED)


def _constructed(params: MarketParams) -> MarketParams:
    """The same market built afresh from its init fields."""
    return MarketParams(**{f.name: getattr(params, f.name)
                           for f in dataclasses.fields(MarketParams) if f.init})


@pytest.mark.parametrize("name", ["fig5a", "fig5b", "fig7c", "appK"])
def test_derived_market_constants_stay_out_of_identity(name):
    p = PRESETS[name].params()
    derived = [f for f in dataclasses.fields(MarketParams) if not f.init]
    assert tuple(f.name for f in derived) == _DERIVED
    assert not any(f.compare or f.repr for f in derived)
    # == and hash read the init fields alone, as `_solve_unaware_pair`'s
    # cache keys did before the constants were kept
    init = tuple(getattr(p, f.name) for f in dataclasses.fields(MarketParams) if f.init)
    assert hash(p) == hash(init)
    twin = _constructed(p)
    for name_ in _DERIVED:
        object.__setattr__(twin, name_, math.nan)
    assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
    assert not any(name_ in repr(p) for name_ in _DERIVED)
    # scenario files hold the init fields alone, and a round trip through
    # them, like `dataclasses.replace`, derives the constants again
    doc = params_to_dict(p)
    assert set(doc) == {"N", "F", "Q", "phi", "K", "A", "B", "C", "utility", "distribution"}
    assert set(doc["distribution"]) == {"variant", *(
        f.name for f in dataclasses.fields(p.dist))}
    assert _derived(params_from_dict(json.loads(json.dumps(doc)))) == _derived(p)
    for changed in (dataclasses.replace(p, F=0.5 * p.F), dataclasses.replace(p, phi=2.0 * p.phi),
                    dataclasses.replace(p, Q=0.9 * p.Q, C=math.inf)):
        assert _derived(changed) == _derived(_constructed(changed)) != _derived(p)


def test_derived_market_constants_equal_their_definitions():
    for preset in PRESETS.values():
        p = preset.params()
        u, top = p.utility, p.dist.theta_max
        assert p.u_q == u.u(p.Q) and p.up_q == u.u_prime(p.Q) and p.up0 == u.u_prime_zero
        assert p.theta0 == p.F / u.u(p.Q)
        assert p.root_resolution == 1e-10 * top
        assert p.case_bounds_sar == (p.phi / (u.u_prime(p.Q) * top),
                                     p.phi * u.u(p.Q) / (p.F * u.u_prime(p.Q)))
        assert p.case_bounds_sur[2] == math.nextafter(case_bound_d(p), -math.inf)
