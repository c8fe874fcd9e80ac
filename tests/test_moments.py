"""Closed-form watch moments: `basis_moments` of each type density and
the watch moments `admarket._segment_moments` builds from them, against
50-digit mpmath and against the quadrature they replace; and the
quadrature moments of the families without closed forms against
mpmath on segments narrow against their distance from theta = 0."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datarewards import (
    AlphaFairUtility,
    ExpUtility,
    LogUtility,
    MarketParams,
    Scheme,
    TruncatedNormalTypes,
    UniformTypes,
    integrate,
)
from datarewards.admarket import _segment_moments
from datarewards.model import integrate_segments
from datarewards.presets import PRESETS
from datarewards.users import (
    case_bound_a,
    case_bound_b_sar,
    case_bound_b_sur,
    case_bound_d,
    thresholds,
)
from families import narrow_normals

# every family with closed-form moments: all utilities under uniform
# types (alpha-fair with mu > 0, with mu = 0, whose non-subscriber
# segments start at theta = 0, and with mu small enough that they start
# just above it), and log utility under truncated-normal types, one of
# them with sd 1/200 of the support
_UNIFORM_UTILITIES = [
    LogUtility(),
    AlphaFairUtility(alpha=0.8, mu=0.8),
    AlphaFairUtility(alpha=0.5, mu=0.0),
    AlphaFairUtility(alpha=0.3, mu=0.0),
    AlphaFairUtility(alpha=0.9, mu=1e-8),
    AlphaFairUtility(alpha=0.7, mu=1e-3),
    ExpUtility(gamma=0.7),
]
_LOG_NORMALS = [
    TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0),
    TruncatedNormalTypes(mean=75.0, sd=40.0, lo=20.0, hi=150.0),
    TruncatedNormalTypes(mean=75.0, sd=0.75, lo=0.0, hi=150.0),
]


def _market(u, dist, fee: float = 10.0) -> MarketParams:
    """A market of the given families; the fee is lowered where needed
    to keep theta_max above u'(0) F / (u'(Q) u(Q))."""
    q = 0.8
    if math.isfinite(u.u_prime_zero):
        fee = min(fee, 0.5 * dist.theta_max * u.u_prime(q) * u.u(q) / u.u_prime_zero)
    return MarketParams(N=1e7, F=fee, Q=q, phi=0.3, K=23.0, A=0.6, B=5.0,
                        C=1e12, utility=u, dist=dist)


COVERED = [_market(u, UniformTypes(155.0)) for u in _UNIFORM_UTILITIES] + [
    _market(LogUtility(), dist) for dist in _LOG_NORMALS
]


def _id(p: MarketParams) -> str:
    u, d = p.utility, p.dist
    name = type(u).__name__ + (f"{u.alpha}-{u.mu}" if isinstance(u, AlphaFairUtility) else "")
    return f"{name}-{type(d).__name__}" + (f"{d.sd}-{d.lo}" if d.variant != "uniform" else "")


def _reference(mp, p: MarketParams, w: float, z: float, lo: float, hi: float):
    """Mass, int x g and int x^2 g on [lo, hi] in mpmath, where
    x = B(w) (g(theta) - g(z)), from the antiderivatives of
    (g - g(z))^j against the density (a normal's tails as erfc)."""
    u, dist = p.utility, p.dist
    z, w, phi = mp.mpf(z), mp.mpf(w), mp.mpf(p.phi)
    if isinstance(dist, UniformTypes):
        top = mp.mpf(dist.theta_max)
        a, b = mp.mpf(lo), min(mp.mpf(hi), top)
        if isinstance(u, ExpUtility):
            def rises(t):
                ell = mp.log(t / z)
                return t * (ell - 1), t * (ell * ell - 2 * ell + 2)
            scale = 1 / (mp.mpf(u.gamma) * w)
        else:
            k = 1 / mp.mpf(u.alpha) if isinstance(u, AlphaFairUtility) else mp.mpf(1)
            zk = z**k

            def rises(t):
                p1 = t ** (k + 1) / (k + 1)
                return p1 - zk * t, t ** (2 * k + 1) / (2 * k + 1) - 2 * zk * p1 + zk * zk * t
            scale = (w / phi) ** k / w if k != 1 else 1 / phi
        (f1b, f2b), (f1a, f2a) = rises(b), rises(a)
        return (b - a) / top, scale * (f1b - f1a) / top, scale**2 * (f2b - f2a) / top
    with mp.workdps(150):
        # the forms below cancel by up to 40 digits on the narrowest segments
        return _normal_reference(mp, dist, z, lo, hi, phi)


def _normal_reference(mp, dist, z, lo, hi, phi):
    mean, sd = mp.mpf(dist.mean), mp.mpf(dist.sd)
    a, b = max(mp.mpf(lo), mp.mpf(dist.lo)), min(mp.mpf(hi), mp.mpf(dist.hi))
    if b <= a:  # outside the support
        return 0, 0, 0

    def tail(v):  # upper tail of the standard normal
        return mp.erfc(v / mp.sqrt(2)) / 2

    def prob(va, vb):
        return tail(va) - tail(vb) if va > 0 else tail(-vb) - tail(-va)

    def dens(v):
        return mp.exp(-v * v / 2) / mp.sqrt(2 * mp.pi)

    ua, ub, c = (a - mean) / sd, (b - mean) / sd, (z - mean) / sd
    norm = prob((mp.mpf(dist.lo) - mean) / sd, (mp.mpf(dist.hi) - mean) / sd)
    mass = prob(ua, ub)
    m1 = dens(ua) - dens(ub) - c * mass
    m2 = mass * (1 + c * c) + ua * dens(ua) - ub * dens(ub) - 2 * c * (dens(ua) - dens(ub))
    return mass / norm, sd * m1 / norm / phi, sd * sd * m2 / norm / phi**2


def _allowed(p: MarketParams, lo: float, hi: float):
    """1e-13 relative; on a normal also the rounding of its tails,
    (4 + 2 u^2) 2^-52 with u the segment's end nearer the mean in sd
    (see `_normal_mass`), which passes 1e-13 beyond about 15 sd."""
    allowed = 1e-13
    if isinstance(p.dist, TruncatedNormalTypes):
        d = p.dist
        near = max((max(lo, d.lo) - d.mean) / d.sd, (d.mean - min(hi, d.hi)) / d.sd, 0.0)
        allowed += (4.0 + 2.0 * near * near) * 2.0**-52
    return allowed


def _segments(p: MarketParams) -> list:
    """(w, z, lo, hi): the watch segments `thresholds` makes at rewards
    across cases A-D of both schemes (at and just past each case bound,
    and inside each case), and segments that start at z with widths
    from 1e-9 to 10 times z, that start above z and are narrower than
    1e-3 and 1e-6 of their distance from it, that start at theta = 0
    (alpha-fair utility), and, on a normal, far in either tail."""
    top, q = p.dist.theta_max, case_bound_d(p)
    rewards = {0.5 * q, 0.99 * q, q * (1 - 1e-9), 1.2 * q, 1.9 * q}
    for bound in (case_bound_a(p), case_bound_b_sar(p), case_bound_b_sur(p)):
        if bound > 0.0:
            rewards |= {bound * (1 + 1e-9), bound * (1 + 1e-6), 1.5 * bound}
    out = []
    for w in sorted(rewards):
        for aware in (True, False):
            part = thresholds(p, w, aware)
            for z, (lo, hi) in ((part.theta1, part.sub_watch), (part.theta3, part.alone_watch)):
                if hi > lo:
                    out.append((w, z, lo, hi))
    w = 0.5 * q
    for z in (1e-6 * top, 0.01 * top, 0.3 * top):
        for width in (1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0):
            out.append((w, z, z, min(z * (1 + width), top)))
        for gap in (1e-6, 1e-2, 1.0):
            lo = z * (1 + gap)
            for narrow in (1e-3, 1e-6):
                out.append((w, z, lo, lo + narrow * (lo - z)))
    if isinstance(p.utility, AlphaFairUtility):  # theta3 = 0 when mu = 0
        out.append((w, 0.0, 0.0, 0.4 * top))
    if isinstance(p.dist, TruncatedNormalTypes):
        m, sd = p.dist.mean, p.dist.sd
        for lo_sd, hi_sd in ((8.0, 12.0), (3.0, 50.0), (20.0, 20.5), (-30.0, -20.0), (-12.0, -11.99)):
            lo, hi = max(m + lo_sd * sd, 0.0), min(m + hi_sd * sd, top)
            if hi > lo:
                out += [(w, lo, lo, hi), (w, 0.9 * lo, lo, hi)]
    return out


@pytest.mark.parametrize("p", COVERED, ids=_id)
def test_watch_moments_match_mpmath(p):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    segments = _segments(p)
    for w, z, lo, hi in segments:
        got = _segment_moments(p, w, lo, hi, z)
        want = _reference(mp, p, w, z, lo, hi)
        allowed = _allowed(p, lo, hi)
        for g, v in zip((got.mass, got.ex, got.ex2), want):
            # values below 1e-280 are near the subnormal range, where the
            # normal's density itself loses relative precision
            assert abs(mp.mpf(g) - v) <= allowed * abs(v) + mp.mpf(1e-280), (
                w, z, lo, hi, g, v)
    # the array path agrees with the scalar one on the same segments
    w, z, lo, hi = (np.array(v) for v in zip(*segments))
    arr = _segment_moments(p, w, lo, hi, z)
    for i, (wi, zi, loi, hii) in enumerate(segments):
        one = _segment_moments(p, wi, loi, hii, zi)
        for g, v in ((arr.mass[i], one.mass), (arr.ex[i], one.ex), (arr.ex2[i], one.ex2)):
            assert abs(g - v) <= 1e-13 * abs(v), (wi, zi, loi, hii)


def _rise(p: MarketParams, z: float):
    """g(theta) - g(z) of the market's basis, without cancelling for
    theta near z."""
    u = p.utility
    if isinstance(u, LogUtility):
        return lambda t: t - z
    if isinstance(u, ExpUtility):
        return lambda t: np.log1p((t - z) / z)
    k = 1.0 / u.alpha
    if z == 0.0:
        return lambda t: t**k
    return lambda t: z**k * np.expm1(k * np.log1p((t - z) / z))


@given(
    p=st.one_of(
        st.sampled_from(COVERED),
        narrow_normals().map(lambda d: _market(LogUtility(), d)),
    ),
    scheme=st.sampled_from([Scheme.SAR, Scheme.SUR]),
    w_rel=st.floats(min_value=1e-3, max_value=2.0),
)
@settings(max_examples=150, deadline=None)
def test_closed_forms_match_quadrature(p, scheme, w_rel):
    # the closed forms against `integrate` and `integrate_segments` of
    # (g - g(z))^j on the segments of a random reward
    w = w_rel * case_bound_d(p)
    part = thresholds(p, w, scheme is Scheme.SAR)
    k = p.utility.basis_power
    segments = [(z, lo, hi) for z, (lo, hi) in (
        (part.theta1, part.sub_watch), (part.theta3, part.alone_watch)) if hi > lo]
    for z, lo, hi in segments:
        rise = _rise(p, z)
        want = integrate(p.dist, lambda t: np.array((np.ones_like(t), rise(t), rise(t) ** 2)),
                         lo, min(hi, p.dist.theta_max))
        got = p.dist.basis_moments(k, z, lo, hi)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-280)
    if not segments:
        return
    z, lo, hi = (np.array(v) for v in zip(*segments))
    top = np.minimum(hi, p.dist.theta_max)
    rises = [_rise(p, float(zi)) for zi in z]

    def f(theta, seg):
        r = np.array([rises[s](t) for s, t in zip(seg.tolist(), theta.tolist())])
        return np.array((np.ones_like(r), r, r * r))

    want = integrate_segments(p.dist, f, lo, top, 3)
    got = np.array(p.dist.basis_moments(k, z, lo, hi))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-280)


def test_empty_and_zero_reward_segments_give_zero_without_warnings():
    # w = 0 puts theta1 and theta3 at inf with empty segments: the array
    # form must neither divide by them nor warn (warnings are errors)
    for p in COVERED:
        w = np.array([0.0, 0.0, 0.5 * case_bound_d(p)])
        for aware in (True, False):
            part = thresholds(p, w, aware)
            for z, (lo, hi) in ((part.theta1, part.sub_watch), (part.theta3, part.alone_watch)):
                got = _segment_moments(p, w, lo, hi, z)
                assert (got.mass[:2] == 0.0).all() and (got.ex[:2] == 0.0).all()
                assert (got.ex2[:2] == 0.0).all()
        assert p.dist.basis_moments(p.utility.basis_power, 1.0, 2.0, 2.0) == (0.0, 0.0, 0.0)


def _quadrature_reference(mp, p: MarketParams, w: float, z: float, lo: float, hi: float):
    """int x g and int x^2 g on [lo, hi] in mpmath, x = B(w) (g(theta) - g(z)),
    for a family without closed forms: the rises against the truncated
    normal's density by mpmath's own quadrature."""
    u, dist = p.utility, p.dist
    k, z, w = mp.mpf(u.basis_power), mp.mpf(z), mp.mpf(w)
    mean, sd = mp.mpf(dist.mean), mp.mpf(dist.sd)
    norm = (mp.erfc((mp.mpf(dist.lo) - mean) / (sd * mp.sqrt(2)))
            - mp.erfc((mp.mpf(dist.hi) - mean) / (sd * mp.sqrt(2)))) / 2

    def rise(t):
        return mp.log(t / z) if k == 0 else t**k - z**k

    def density(t):
        return mp.exp(-((t - mean) / sd) ** 2 / 2) / (sd * mp.sqrt(2 * mp.pi) * norm)

    scale = 1 / (mp.mpf(u.gamma) * w) if k == 0 else (w / mp.mpf(p.phi)) ** k / w
    a, b = max(mp.mpf(lo), mp.mpf(dist.lo)), min(mp.mpf(hi), mp.mpf(dist.hi))
    return tuple(scale**j * mp.quad(lambda t: rise(t) ** j * density(t), [a, b])
                 for j in (1, 2))


@pytest.mark.parametrize("name,capacity", [("fig7c", 2.6e7), ("fig7b", None)])
def test_quadrature_moments_hold_digits_near_the_segment_start(name, capacity):
    # exponential and alpha-fair (mu > 0) utility under truncated-normal
    # types integrate the rise of their basis: just past case_bound_a the
    # subscribers' segment, and just past case_bound_b_sur the
    # non-subscribers', is narrow against its distance from theta = 0,
    # where integrating the watch maps themselves lost up to 4.5e-9
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    p = PRESETS[name].params(capacity)
    assert p.dist.basis_moments(p.utility.basis_power, 1.0, 2.0, 3.0) is None
    segments = []
    for bound in (case_bound_a(p), case_bound_b_sur(p)):
        for eps in (1e-3, 1e-5, 1e-7):
            w = bound * (1.0 + eps)
            part = thresholds(p, w, False)
            segments += [(kind, w, z, lo, hi) for kind, z, (lo, hi) in (
                ("subscribers", part.theta1, part.sub_watch),
                ("non-subscribers", part.theta3, part.alone_watch)) if hi > lo]
    assert {kind for kind, *_ in segments} == {"subscribers", "non-subscribers"}
    w, z, lo, hi = (np.array(v) for v in list(zip(*segments))[1:])
    arr = _segment_moments(p, w, lo, hi, z)
    for i, (_, wi, zi, loi, hii) in enumerate(segments):
        one = _segment_moments(p, wi, loi, hii, zi)
        want = _quadrature_reference(mp, p, wi, zi, loi, hii)
        for got in ((one.ex, one.ex2), (arr.ex[i], arr.ex2[i])):
            for g, v in zip(got, want):
                assert abs(mp.mpf(g) - v) <= 1e-13 * abs(v), (wi, zi, loi, hii, g, v)


def test_uncovered_families_have_no_closed_form():
    dist = TruncatedNormalTypes(mean=75.0, sd=40.0, lo=0.0, hi=150.0)
    for u in (AlphaFairUtility(alpha=0.8, mu=0.8), ExpUtility(gamma=0.7)):
        assert dist.basis_moments(u.basis_power, 10.0, 20.0, 30.0) is None
