"""Core market model: utility families, user-type distributions,
the full parameter vector, and scenario (de)serialization.

All types are frozen dataclasses; every operation is a pure function,
so instances can be shared freely across threads and parallel sweeps.

u_prime takes a float (stage II asks only for u'(Q)) and a density's
pdf an array of types; u, inverse_marginal and mass take either.

A watcher of type theta tops data up to the level
(u')^{-1}(phi / (w theta)), which is affine in one basis function g of
theta that each utility names by its `basis_power` k: g = theta^k for
k > 0 and g = ln theta for k = 0. The ads watched on a watch segment
are then x = B(w) (g(theta) - g(z)), with B the utility's
`watch_scale` and z the type at which x reaches 0, and a pool's
moments reduce to integrals of (g - g(z))^j against the type density,
which each density takes in closed form where it has one
(`basis_moments`).

Scenario files name each family by its class's `variant`. One table
of the family classes, read through their dataclass fields, serves
both reading (`params_from_dict`) and writing (`params_to_dict`).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError, ScenarioError, ScenarioParseError


class Scheme(Enum):
    """Rewarding scheme: who may watch ads, and how slots are priced.

    SAR  - only subscribers may watch ads for data rewards.
    SUR  - everyone may watch ads; one pooled slot price.
    SURD - SUR with subscriber/non-subscriber slots priced separately.
    """

    SAR = "sar"
    SUR = "sur"
    SURD = "surd"


# ---------------------------------------------------------------------------
# Utility families
# ---------------------------------------------------------------------------


def _argument_error(z) -> DomainError:
    return DomainError(f"utility argument must be >= 0, got {z}")


def _check_arguments(z: np.ndarray) -> None:
    """Raise DomainError unless every entry of z is >= 0."""
    low = z.min(initial=math.inf)
    if low < 0:
        raise _argument_error(low)


def _check_marginal(s, up0: float = math.inf) -> None:
    """Raise DomainError unless 0 < s <= u'(0) (1 + 1e-12), elementwise
    when s is an array."""
    if isinstance(s, np.ndarray):
        lo, hi = s.min(initial=math.inf), s.max(initial=-math.inf)
    else:
        lo = hi = s
    if lo <= 0:
        raise DomainError(f"marginal utility must be > 0, got {lo}")
    if hi > up0 * (1.0 + 1e-12):
        raise DomainError(f"marginal utility {hi} exceeds u'(0) = {up0}")


def _check_positive(name: str, value: float) -> None:
    """Raise ScenarioError naming the parameter unless 0 < value < inf
    (NaN fails too)."""
    if not 0.0 < value < math.inf:
        raise ScenarioError(f"{name} must be > 0 and finite, got {value}")


@dataclass(frozen=True)
class LogUtility:
    """u(z) = ln(1 + z)."""

    variant = "logarithmic"

    def u(self, z):
        """u(z); z may be a float or an array."""
        if isinstance(z, np.ndarray):
            _check_arguments(z)
            return np.log1p(z)
        if z < 0:
            raise _argument_error(z)
        return math.log1p(z)

    def u_prime(self, z: float) -> float:
        """u'(z) at a float z."""
        if z < 0:
            raise _argument_error(z)
        return 1.0 / (1.0 + z)

    @property
    def u_prime_zero(self) -> float:
        return 1.0

    def inverse_marginal(self, s):
        """(u')^{-1}(s); s may be a float or an array."""
        _check_marginal(s)
        return 1.0 / s - 1.0

    # the level is w theta / phi - 1
    basis_power = 1.0

    def watch_scale(self, phi: float, w):
        """B(w) of the ads x = B(w) (g(theta) - g(z)); w may be a float
        or an array of positive rewards."""
        return 1.0 / phi


@dataclass(frozen=True)
class AlphaFairUtility:
    """u(z) = ((z + mu)^(1-alpha) - mu^(1-alpha)) / (1 - alpha).

    alpha in (0, 1), mu >= 0. With mu = 0 the marginal utility blows up
    at z = 0 (u'(0) = +inf), which downstream code treats as an
    extended value.
    """

    alpha: float
    mu: float = 0.0
    variant = "alpha_fair"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ScenarioError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 <= self.mu < math.inf:
            raise ScenarioError(f"mu must be >= 0 and finite, got {self.mu}")

    def u(self, z):
        """u(z); z may be a float or an array."""
        if isinstance(z, np.ndarray):
            _check_arguments(z)
        elif z < 0:
            raise _argument_error(z)
        a, mu = self.alpha, self.mu
        return ((z + mu) ** (1.0 - a) - mu ** (1.0 - a)) / (1.0 - a)

    def u_prime(self, z: float) -> float:
        """u'(z) at a float z, +inf at z + mu = 0."""
        if z < 0:
            raise _argument_error(z)
        if z + self.mu == 0.0:
            return math.inf
        return (z + self.mu) ** (-self.alpha)

    @property
    def u_prime_zero(self) -> float:
        if self.mu == 0.0:
            return math.inf
        return self.mu ** (-self.alpha)

    def inverse_marginal(self, s):
        """(u')^{-1}(s); s may be a float or an array."""
        _check_marginal(s, self.u_prime_zero)
        return s ** (-1.0 / self.alpha) - self.mu

    @property
    def basis_power(self) -> float:
        """The level is (w / phi)^(1/alpha) theta^(1/alpha) - mu."""
        return 1.0 / self.alpha

    def watch_scale(self, phi: float, w):
        """B(w) of the ads x = B(w) (g(theta) - g(z)); w may be a float
        or an array of positive rewards."""
        return (w / phi) ** self.basis_power / w


@dataclass(frozen=True)
class ExpUtility:
    """u(z) = 1 - exp(-gamma * z), gamma > 0."""

    gamma: float
    variant = "exponential"

    def __post_init__(self) -> None:
        _check_positive("gamma", self.gamma)

    def u(self, z):
        """u(z); z may be a float or an array."""
        if isinstance(z, np.ndarray):
            _check_arguments(z)
            return -np.expm1(-self.gamma * z)
        if z < 0:
            raise _argument_error(z)
        return -math.expm1(-self.gamma * z)

    def u_prime(self, z: float) -> float:
        """u'(z) at a float z."""
        if z < 0:
            raise _argument_error(z)
        return self.gamma * math.exp(-self.gamma * z)

    @property
    def u_prime_zero(self) -> float:
        return self.gamma

    def inverse_marginal(self, s):
        """(u')^{-1}(s); s may be a float or an array."""
        _check_marginal(s, self.gamma)
        log = np.log if isinstance(s, np.ndarray) else math.log
        return log(self.gamma / s) / self.gamma

    # the level is (ln theta + ln(gamma w / phi)) / gamma
    basis_power = 0.0

    def watch_scale(self, phi: float, w):
        """B(w) of the ads x = B(w) (g(theta) - g(z)); w may be a float
        or an array of positive rewards."""
        return 1.0 / (self.gamma * w)


UtilityModel = LogUtility | AlphaFairUtility | ExpUtility


# ---------------------------------------------------------------------------
# Type distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformTypes:
    """Uniform user-valuation density on [0, theta_max]."""

    theta_max: float
    variant = "uniform"

    def __post_init__(self) -> None:
        _check_positive("theta_max", self.theta_max)

    def panel_edges(self, lo: float, hi: float) -> list[float]:
        """[lo, hi] within the support as one quadrature panel: the
        density is constant there."""
        hi = min(hi, self.theta_max)
        return [lo, hi] if hi > lo else []

    def panel_layout(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`panel_edges` for arrays of segments: the clipped limits of
        each and its number of equal panels (0 for none)."""
        hi = np.minimum(hi, self.theta_max)
        return lo, hi, (hi > lo).astype(np.int64)

    def pdf(self, theta: np.ndarray) -> np.ndarray:
        """Density at an array of types theta."""
        inside = (theta >= 0.0) & (theta <= self.theta_max)
        return np.where(inside, 1.0 / self.theta_max, 0.0)

    def mass(self, lo, hi):
        """Probability of [lo, hi], the difference of the CDF clipped to
        [0, 1] at its ends; lo and hi may be floats or arrays."""
        a, b = lo / self.theta_max, hi / self.theta_max
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.clip(b, 0.0, 1.0) - np.clip(a, 0.0, 1.0)
        return (0.0 if b <= 0.0 else min(b, 1.0)) - (0.0 if a <= 0.0 else min(a, 1.0))

    def basis_moments(self, power: float, z, lo, hi):
        """Mass of the segment [lo, hi] within the support and the
        integrals of (g - g(z))^j against the density, j = 1, 2, where
        g is the basis of `power` (see the module docstring) and
        z <= lo: floats, or arrays for arrays of segments, 0 for an
        empty one. In closed form for every basis (`_basis_integrals`)."""
        top = self.theta_max
        if isinstance(lo, np.ndarray):
            hi = np.minimum(hi, top)
            full = hi > lo
            # an empty segment, as one at w = 0 with z = inf, is
            # evaluated on [1, 2] from 1 and then dropped
            z, lo, hi = (np.where(full, v, dummy)
                         for v, dummy in ((z, 1.0), (lo, 1.0), (hi, 2.0)))
            i1, i2 = _basis_integrals(power, z, lo, hi)
            return tuple(np.where(full, v / top, 0.0) for v in (hi - lo, i1, i2))
        hi = min(hi, top)
        if hi <= lo:
            return 0.0, 0.0, 0.0
        i1, i2 = _basis_integrals(power, z, lo, hi)
        return (hi - lo) / top, i1 / top, i2 / top


@dataclass(frozen=True)
class TruncatedNormalTypes:
    """Normal(mean, sd) truncated to [lo, hi], 0 <= lo < hi.

    Normalized by the parent's mass on [lo, hi] (`_normal_mass`), so
    the density integrates to 1 however much mass the parent loses to
    truncation. hi is required; its default only lets it follow lo.
    """

    mean: float
    sd: float
    lo: float = 0.0
    hi: float | None = None
    variant = "truncated_normal"

    def __post_init__(self) -> None:
        if self.hi is None:
            raise ScenarioError("hi, the top of the truncation range, is required")
        for name in ("mean", "lo", "hi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ScenarioError(f"{name} must be finite, got {value}")
        _check_positive("sd", self.sd)
        # valuations are not negative: best responses and `integrate`
        # take types theta >= 0
        if self.lo < 0.0:
            raise ScenarioError(f"lo must be >= 0, got {self.lo}")
        if self.hi <= self.lo:
            raise ScenarioError(
                f"truncation needs hi > lo, got [{self.lo}, {self.hi}]"
            )
        mass = _normal_mass(
            (self.lo - self.mean) / self.sd, (self.hi - self.mean) / self.sd
        )
        if mass <= 0.0:
            raise ScenarioError(
                "truncation interval carries no parent-normal mass"
            )
        object.__setattr__(self, "_mass", mass)

    @property
    def theta_max(self) -> float:
        return self.hi

    def panel_edges(self, lo: float, hi: float) -> list[float]:
        """Equal quadrature panels covering [lo, hi] within the support.

        The density jumps to 0 at the truncation points and underflows
        beyond 40 sd, so the panels stay inside both. A panel of half
        width r sd whose farthest point lies z sd from the mean is
        resolved by the 32-node rule to about 1e-14 relative while
        r max(z, 5) <= 25: 10 sd around the mean, narrower in the tails.
        """
        lo = max(lo, self.lo, self.mean - 40.0 * self.sd)
        hi = min(hi, self.hi, self.mean + 40.0 * self.sd)
        if hi <= lo:
            return []
        z_far = max(abs(lo - self.mean), abs(hi - self.mean)) / self.sd
        n = math.ceil(0.5 * (hi - lo) / self.sd * max(z_far, 5.0) / 25.0)
        return [lo + (hi - lo) * i / n for i in range(n)] + [hi]

    def panel_layout(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`panel_edges` for arrays of segments: the clipped limits of
        each and its number of equal panels (0 for none)."""
        lo = np.maximum(np.maximum(lo, self.lo), self.mean - 40.0 * self.sd)
        hi = np.minimum(np.minimum(hi, self.hi), self.mean + 40.0 * self.sd)
        z_far = np.maximum(np.abs(lo - self.mean), np.abs(hi - self.mean)) / self.sd
        n = np.ceil(0.5 * (hi - lo) / self.sd * np.maximum(z_far, 5.0) / 25.0)
        return lo, hi, np.where(hi > lo, n, 0.0).astype(np.int64)

    def pdf(self, theta: np.ndarray) -> np.ndarray:
        """Density at an array of types theta."""
        z = (theta - self.mean) / self.sd
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        density = phi / (self.sd * self._mass)  # type: ignore[attr-defined]
        return np.where((theta >= self.lo) & (theta <= self.hi), density, 0.0)

    def mass(self, lo, hi):
        """Probability of [lo, hi]; lo and hi may be floats or arrays."""
        if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
            lo, hi = np.maximum(lo, self.lo), np.minimum(hi, self.hi)
            z_a, z_b = (lo - self.mean) / self.sd, (hi - self.mean) / self.sd
            mass = _normal_mass(z_a, z_b) / self._mass  # type: ignore[attr-defined]
            # an empty interval, as one from lo = +inf, has no mass
            return np.where(hi > lo, mass, 0.0)
        lo, hi = max(lo, self.lo), min(hi, self.hi)
        if hi <= lo:
            return 0.0
        return _normal_mass(
            (lo - self.mean) / self.sd, (hi - self.mean) / self.sd
        ) / self._mass  # type: ignore[attr-defined]

    def basis_moments(self, power: float, z, lo, hi):
        """`UniformTypes.basis_moments` for the linear basis g = theta
        (power 1, log utility); None for any other basis, which has no
        closed form against a normal.

        The integrals are taken in u = (theta - mean) / sd about the
        segment's start ua, where they are all positive, and shifted
        to z: a segment narrow against its scale, width max(1, |ua|)
        <= 1, by a short Gauss-Legendre rule (`_normal_narrow`), any
        other by the normal's tails and density at its ends
        (`_normal_closed`).
        Where those cancel beyond `_NORMAL_CANCEL`, as on a far-tail
        segment, the integrals of (theta - z)^j are taken by quadrature
        (`integrate`, `integrate_segments`) instead; the mass stays the
        closed form's.
        """
        if power != 1.0:
            return None
        mean, sd = self.mean, self.sd
        if isinstance(lo, np.ndarray):
            a = np.maximum(np.maximum(lo, self.lo), mean - 40.0 * sd)
            b = np.minimum(np.minimum(hi, self.hi), mean + 40.0 * sd)
            full = b > a
            # an empty segment is evaluated on [mean, mean + sd] and dropped
            z, a, b = (np.where(full, v, dummy)
                       for v, dummy in ((z, mean), (a, mean), (b, mean + sd)))
        else:
            a = max(lo, self.lo, mean - 40.0 * sd)
            b = min(hi, self.hi, mean + 40.0 * sd)
            if b <= a:
                return 0.0, 0.0, 0.0
        ua, ub, width = (a - mean) / sd, (b - mean) / sd, (b - a) / sd
        k0, k1, k2 = _by_regime(
            (width <= 1.0) & (width * abs(ua) <= 1.0),
            _normal_narrow, _normal_closed, ua, ub, width,
        )
        # theta - z = sd (u - ua) + p on the segment
        p, norm = a - z, self._mass  # type: ignore[attr-defined]
        moments = (k0 / norm, (sd * k1 + p * k0) / norm,
                   (sd * (sd * k2 + 2.0 * p * k1) + p * p * k0) / norm)
        if not isinstance(lo, np.ndarray):
            if math.isnan(moments[1]):
                rise = integrate(self, lambda t: np.array((t - z, (t - z) ** 2)), a, b)
                return (moments[0], *rise.tolist())
            return moments
        moments = tuple(np.where(full, v, 0.0) for v in moments)
        bad = np.flatnonzero(np.isnan(moments[1]))
        if len(bad):
            z_bad = z[bad]

            def rise(t, seg):
                return np.array((t - z_bad[seg], (t - z_bad[seg]) ** 2))

            moments[1][bad], moments[2][bad] = integrate_segments(
                self, rise, a[bad], b[bad], 2)
        return moments


_SQRT_HALF = math.sqrt(0.5)


def _erfc_array(x: np.ndarray) -> np.ndarray:
    """`math.erfc` of each entry, so that every entry equals the scalar
    call bit for bit."""
    flat = map(math.erfc, x.ravel().tolist())
    return np.fromiter(flat, float, x.size).reshape(x.shape)


def _normal_mass(z_a, z_b):
    """Standard normal probability of [z_a, z_b], elementwise for
    arrays.

    With the upper tail Q(z) = erfc(z / sqrt 2) / 2, the mass is
    Q(z_a) - Q(z_b) above the mean (z_a > 0) and Q(-z_b) - Q(-z_a)
    otherwise, a difference of two tails at their accurate end: the
    lower-tail form 1 - Q cancels above the mean and is 0.0 beyond
    about 8.3 sd. With a' and b' the two tail arguments and z the
    larger of |z_a|, |z_b|, the result is within
    (4 + 2 z^2) 2^-52 (Q(a') + Q(b')) of the exact mass: rounding
    z / sqrt 2 alone moves Q(z) by about z^2 2^-52 relative in the
    tail. Tails below 2^-1022 (beyond about 37.5 sd) are subnormal and
    keep only an absolute accuracy of a few 2^-1074; beyond about
    38.5 sd they are 0.0.
    """
    if isinstance(z_a, np.ndarray) or isinstance(z_b, np.ndarray):
        above = z_a > 0.0
        near = _erfc_array(np.where(above, z_a, -z_b) * _SQRT_HALF)
        far = _erfc_array(np.where(above, z_b, -z_a) * _SQRT_HALF)
        return 0.5 * (near - far)
    if z_a > 0.0:
        return 0.5 * (math.erfc(z_a * _SQRT_HALF) - math.erfc(z_b * _SQRT_HALF))
    return 0.5 * (math.erfc(-z_b * _SQRT_HALF) - math.erfc(-z_a * _SQRT_HALF))


TypeDistribution = UniformTypes | TruncatedNormalTypes


# ---------------------------------------------------------------------------
# Closed-form watch moments
# ---------------------------------------------------------------------------


def _by_regime(cond, first, second, *args) -> tuple:
    """first(*args) where cond holds and second(*args) elsewhere. For
    an array cond each function sees only its own entries of the array
    arguments, so neither meets the other's inputs."""
    if not isinstance(cond, np.ndarray):
        return first(*args) if cond else second(*args)
    out = None
    for mask, fn in ((cond, first), (~cond, second)):
        if mask.any():
            part = fn(*(v[mask] if isinstance(v, np.ndarray) else v for v in args))
            if out is None:
                out = tuple(np.empty(len(cond)) for _ in part)
            for o, v in zip(out, part):
                o[mask] = v
    return second(*args) if out is None else out  # no entries


# 1/n! for n = 18 down to 3, Horner's coefficients of the series of
# (e^x - 1 - x - x^2/2) / x^3
_TAIL_COEFFS = [1.0 / math.factorial(n) for n in range(18, 2, -1)]


def _exp_tails(*xs) -> tuple:
    """e^x - 1 - x - x^2/2 at each x >= 0 of xs, floats or arrays of one
    length (taken in one pass). Below 1, where the difference cancels,
    it is x^3 times the series from 1/3!, whose terms are all positive;
    what the series leaves out is below 2^-55 of it."""
    if isinstance(xs[0], np.ndarray):
        x = np.stack(xs)
        t = np.minimum(x, 1.0)
        series = t * t * t * _horner(_TAIL_COEFFS, t)
        return tuple(np.where(x < 1.0, series, np.expm1(x) - x - 0.5 * x * x))
    return tuple(x * x * x * _horner(_TAIL_COEFFS, x) if x < 1.0
                 else math.expm1(x) - x - 0.5 * x * x for x in xs)


def _horner(coeffs, x):
    value = 0.0
    for c in coeffs:
        value = value * x + c
    return value


def basis_rise(k: float, z, d: np.ndarray) -> np.ndarray:
    """g(z + d) - g(z) for the basis g of power k at an array of d >= 0,
    z >= 0 a float or one per entry, without cancelling for small d:
    ln(1 + d / z) by log1p for g = ln theta (k = 0, where z > 0),
    z^k (e^(k ln(1 + d / z)) - 1) by expm1 for k > 0 and z > 0, and
    d^k at z = 0."""
    if k == 0.0:
        return np.log1p(d / z)
    pos = z > 0.0
    if isinstance(pos, np.ndarray):
        if pos.any() and not pos.all():
            z1 = np.where(pos, z, 1.0)
            return np.where(pos, z1**k * np.expm1(k * np.log1p(d / z1)), d**k)
        # one form for all: a power costs as much as the rest of a node
        pos = pos.all()
    return z**k * np.expm1(k * np.log1p(d / z)) if pos else d**k


def _power_rise(k: float, z, a):
    """a^k - z^k for a >= z >= 0 and k > 0, as z^k (e^(k ln(a / z)) - 1)
    where z > 0, so that it does not cancel for a near z."""
    if isinstance(a, np.ndarray):
        return basis_rise(k, z, a - z)
    if z == 0.0:
        return a**k
    return z**k * math.expm1(k * math.log1p((a - z) / z))


def _basis_integrals(k: float, z, a, b) -> tuple:
    """The integrals of (g - g(z))^j over [a, b], j = 1, 2, for the
    basis g of power k and z <= a < b; floats or arrays.

    The linear basis (k = 1) takes its factored antiderivatives, sums
    of positive terms. Otherwise a segment with b >= 4a takes
    antiderivatives about z (`_about_zero`), which cancel by at most
    a factor of about 20; a narrower one takes its integrals about its
    start (`_near_start`), where antiderivative differences would
    cancel without bound as b/a -> 1."""
    if k == 1.0:
        p, q, d = a - z, b - z, b - a
        return 0.5 * d * (p + q), d * (p * p + p * q + q * q) / 3.0
    return _by_regime(b < 4.0 * a, _near_start, _about_zero, k, z, a, b)


def _about_zero(k: float, z, a, b) -> tuple:
    """`_basis_integrals` from antiderivatives about z: theta (L - 1)
    and theta (L^2 - 2L + 2), L = ln(theta / z), for g = ln theta
    (k = 0); theta^(k+1) / (k+1) and theta^(2k+1) / (2k+1) less
    multiples of z^k otherwise."""
    if k == 0.0:
        xp = np if isinstance(a, np.ndarray) else math
        la, lb = xp.log1p((a - z) / z), xp.log(b / z)
        return (b * (lb - 1.0) - a * (la - 1.0),
                b * (lb * (lb - 2.0) + 2.0) - a * (la * (la - 2.0) + 2.0))
    zk, d = z**k, b - a
    p1 = (b ** (k + 1.0) - a ** (k + 1.0)) / (k + 1.0)
    p2 = (b ** (2.0 * k + 1.0) - a ** (2.0 * k + 1.0)) / (2.0 * k + 1.0)
    return p1 - zk * d, p2 - zk * (2.0 * p1 - zk * d)


def _near_start(k: float, z, a, b) -> tuple:
    """`_basis_integrals` on a segment with b < 4a, in theta = a e^t
    for t in [0, l], l = ln(b / a) < ln 4. There g - g(z) is
    c0 + t for g = ln theta, c0 = ln(a / z), and
    c0 + a^k (e^(kt) - 1) otherwise, c0 = a^k - z^k (`_power_rise`).
    Expanded in powers of c0, the integrals are sums of positive
    terms, each a multiple of e^x - 1 - x - x^2/2 (`_exp_tails`) at
    x = l, (k+1) l and (2k+1) l or a difference of such multiples that
    cancels by a factor of 9 at most."""
    xp = np if isinstance(a, np.ndarray) else math
    r = (b - a) / a
    l = xp.log1p(r)
    if k == 0.0:
        (t1,) = _exp_tails(l)
        c0 = xp.log1p((a - z) / z)
        t2 = t1 + 0.5 * l * l  # e^l - 1 - l
        m1 = l * r - t2  # int t e^t dt over [0, l]
        m2 = l * (l * r - 2.0 * t2) + 2.0 * t1  # int t^2 e^t dt
        return a * (c0 * r + m1), a * (c0 * (c0 * r + 2.0 * m1) + m2)
    c0, c1 = _power_rise(k, z, a), a**k
    k1, k2 = k + 1.0, 2.0 * k + 1.0
    t1, tk1, tk2 = _exp_tails(l, k1 * l, k2 * l)
    # int (e^(kt) - 1) e^t dt and int (e^(kt) - 1)^2 e^t dt over [0, l]
    m1 = 0.5 * k * l * l + (tk1 / k1 - t1)
    m2 = tk2 / k2 - 2.0 * tk1 / k1 + t1
    return a * (c0 * r + c1 * m1), a * (c0 * (c0 * r + 2.0 * c1 * m1) + c1 * c1 * m2)


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# the largest estimated relative error, in units of 2^-52, of the
# closed normal moments; a segment whose estimate exceeds it is
# integrated by quadrature instead. Against 50-digit mpmath the actual
# error stays below a fifth of the estimate: 2e-14 at this limit.
_NORMAL_CANCEL = 512.0


# Gauss-Legendre rules on [-1, 1] by the positive halves of their nodes
# and weights, as numpy.polynomial.legendre.leggauss gives them (its
# rules are symmetric). They are written out so that importing the
# package does not import numpy.polynomial and solve for them, about
# 4 ms of every CLI start; a test checks them against leggauss.
_GL8_HALF = (
    [0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362],
    [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706],
)
_GL32_HALF = (
    [0.048307665687738324, 0.1444719615827965, 0.23928736225213706,
     0.33186860228212767, 0.42135127613063533, 0.5068999089322294,
     0.5877157572407623, 0.6630442669302152, 0.7321821187402897,
     0.7944837959679424, 0.84936761373257, 0.8963211557660521,
     0.9349060759377397, 0.9647622555875064, 0.9856115115452684,
     0.9972638618494816],
    [0.09654008851472766, 0.09563872007927471, 0.09384439908080451,
     0.09117387869576378, 0.08765209300440378, 0.08331192422694671,
     0.07819389578707023, 0.07234579410884834, 0.06582222277636168,
     0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
     0.034273862913021765, 0.025392065309262024, 0.016274394730905743,
     0.007018610009470506],
)


def _unit_rule(half) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of the symmetric rule on [-1, 1]
    whose positive nodes and their weights are `half`."""
    nodes, weights = np.array(half[0]), np.array(half[1])
    nodes = np.concatenate((-nodes[::-1], nodes))
    weights = np.concatenate((weights[::-1], weights))
    return 0.5 * (nodes + 1.0), 0.5 * weights


# 8-node rule on [0, 1] for `_normal_narrow`
_GL8_S, _GL8_V = _unit_rule(_GL8_HALF)
_GL8 = list(zip(_GL8_S.tolist(), _GL8_V.tolist()))


def _normal_narrow(ua, ub, width) -> tuple:
    """The integrals of (u - ua)^j phi(u) over [ua, ub], j = 0, 1, 2,
    for width = ub - ua with width max(1, |ua|) <= 1, by the 8-node
    Gauss-Legendre rule in v = u - ua. The integrands, v^j
    exp(-(ua + v)^2 / 2), are entire, and on so narrow a segment the
    rule, exact to degree 15, is within rounding of them (the mpmath
    tests check it); its nodes and weights are positive, so nothing
    cancels where the closed form of `_normal_closed` would."""
    if isinstance(ua, np.ndarray):
        v = width[:, None] * _GL8_S
        t = ua[:, None] + v
        f = np.exp(-0.5 * t * t) * _GL8_V
        k0, k1, k2 = f.sum(axis=1), (f * v).sum(axis=1), (f * v * v).sum(axis=1)
    else:
        k0 = k1 = k2 = 0.0
        for s, weight in _GL8:
            v = width * s
            f = weight * math.exp(-0.5 * (ua + v) ** 2)
            k0, k1, k2 = k0 + f, k1 + f * v, k2 + f * v * v
    scale = width * _INV_SQRT_2PI
    return scale * k0, scale * k1, scale * k2


def _normal_closed(ua, ub, width) -> tuple:
    """The integrals of `_normal_narrow` from the tails and the density
    at the ends: the mass P (`_normal_mass`), phi(ua) - phi(ub) - ua P
    and P (1 + ua^2) - ua phi(ua) + (ua - width) phi(ub). The last two
    are NaN where they cancel by more than `_NORMAL_CANCEL` allows:
    each term carries up to about (4 + 2 u^2) 2^-52 relative error
    (see `_normal_mass`), u being max(ua, -ub, 0), the end nearer the
    mean, whose tail and density dominate the segment's."""
    array = isinstance(ua, np.ndarray)
    exp = np.exp if array else math.exp
    mass = _normal_mass(ua, ub)
    pa = exp(-0.5 * ua * ua) * _INV_SQRT_2PI
    pb = exp(-0.5 * ub * ub) * _INV_SQRT_2PI
    k1 = pa - pb - ua * mass
    k2 = mass * (1.0 + ua * ua) - ua * pa + (ua - width) * pb
    size1 = pa + pb + abs(ua) * mass
    size2 = mass * (1.0 + ua * ua) + abs(ua) * pa + abs(ua - width) * pb
    # the end nearer the mean carries the larger errors: u = max(ua, -ub, 0)
    near = np.maximum(np.maximum(ua, -ub), 0.0) if array else max(ua, -ub, 0.0)
    limit = _NORMAL_CANCEL / (4.0 + 2.0 * near * near)
    ok = (size1 <= limit * k1) & (size2 <= limit * k2)
    if array:
        return mass, np.where(ok, k1, math.nan), np.where(ok, k2, math.nan)
    return (mass, k1, k2) if ok else (mass, math.nan, math.nan)


# 32-node Gauss-Legendre rule on [0, 1], plain and under theta = s^2
_GL_S, _GL_V = _unit_rule(_GL32_HALF)
_GL_S2 = _GL_S * _GL_S
_GL_V2 = 2.0 * _GL_S * _GL_V

# ratio of consecutive panel edges graded toward theta = 0
_GRADING = 10.0
_GRADING_POWERS = np.array([_GRADING**j for j in range(12)])

# panels per node chunk of `integrate_segments`: 512 x 32 nodes
_CHUNK_PANELS = 512


def _panel_nodes(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Distances of the nodes of the rule on the panel [a, b] from a,
    and their weights. A panel that starts within a tenth of its width
    of theta = 0 is mapped by theta = a + (b - a) s^2, which clusters
    the nodes at a."""
    width = b - a
    if a < 0.1 * width:
        return width * _GL_S2, width * _GL_V2
    return width * _GL_S, width * _GL_V


def integrate(
    dist: TypeDistribution,
    f: Callable[..., np.ndarray | float],
    lo: float,
    hi: float,
    origin: float | None = None,
) -> float | np.ndarray:
    """Weighted integral of f(theta) g(theta) over [lo, hi] by a fixed
    32-node Gauss-Legendre rule on each of a few panels.

    Stage II integrates by it only what has no closed form: the basis
    rises (g - g(z))^j (`basis_rise`) of alpha-fair and exponential
    utility under truncated-normal types, and the (theta - z)^j of a
    normal segment whose closed form would cancel
    (`TruncatedNormalTypes.basis_moments`). Every other family's
    moments come from `basis_moments`.

    f receives the array of nodes of all panels and returns its values
    there; a scalar return broadcasts. If f returns k stacked rows of
    values, the k integrals come back as an array from the same node
    pass. An interval outside the density's support integrates to 0.0.
    Given an `origin`, f(theta, d) also receives d = theta - origin at
    each node, taken from its panel's start: on a segment narrow against
    theta the nodes themselves are rounded to ulp(theta), which moves a
    difference theta - origin near the segment's start by far more than
    its own ulp.

    Callers pass analytic segment endpoints, so the integrand is smooth
    on [lo, hi] apart from theta = 0: kinks of the best-response maps
    sit exactly at the segment boundaries, and the watch rates are
    functions of phi / (w theta), singular at theta = 0 (a fractional
    power for alpha-fair utility, a logarithm for exponential utility).
    The panels are
    - those of the density (`panel_edges`), which resolve a narrow
      truncated normal;
    - the panel nearest 0, graded by factors of 10 toward 0 when it
      starts closer to 0 than a hundredth of its end (at most 10
      levels; 1 when it starts at 0), so that each piece but the
      innermost lies a ninth of its width or more away from the
      singularity;
    - mapped by theta = a + (b - a) s^2 when they start within a tenth
      of their width of 0. A mapped panel resolves the watch rates to
      5e-15 relative down to a start at a hundredth of its width. With
      mu = 0 the watch rate grows like theta^(1/alpha) from theta = 0,
      where the plain rule errs by up to 2.4e-8 relative and the mapped
      one by 2e-13.
    """
    if not 0.0 <= lo <= hi <= dist.theta_max * (1.0 + 1e-12):
        raise DomainError(
            f"integration limits [{lo}, {hi}] outside [0, {dist.theta_max}]"
        )
    edges = dist.panel_edges(lo, hi)
    if not edges:
        return 0.0
    a, b = edges[0], edges[1]
    if a < b / _GRADING**2:
        levels = 1
        while 0.0 < a * _GRADING ** (levels + 1) < b and levels < 10:
            levels += 1
        edges[1:1] = [b / _GRADING**j for j in range(levels, 0, -1)]
    starts = edges[:-1]
    panels = [_panel_nodes(*panel) for panel in zip(starts, edges[1:])]
    theta = np.concatenate([left + step for left, (step, _) in zip(starts, panels)])
    weights = np.concatenate([v for _, v in panels])
    if origin is None:
        values = f(theta)
    else:
        values = f(theta, np.concatenate(
            [(left - origin) + step for left, (step, _) in zip(starts, panels)]))
    # the weights are positive: any non-finite value makes the sum non-finite
    value = np.multiply(values, dist.pdf(theta)) @ weights
    if not np.isfinite(value).all():
        raise NumericalError(f"non-finite integrand on [{lo}, {hi}]")
    return float(value) if value.ndim == 0 else value


def integrate_segments(
    dist: TypeDistribution,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    rows: int,
    origin: np.ndarray | None = None,
) -> np.ndarray:
    """`integrate` on many segments [lo[i], hi[i]] at once.

    The panels are those `integrate` lays out (the density's, graded
    toward 0, s^2-mapped near it), built for all segments with array
    arithmetic. f(theta, seg) receives nodes and the index of each
    node's segment and returns `rows` stacked rows of values there;
    given an `origin` per segment, f(theta, seg, d) also receives
    d = theta - origin[seg] from each panel's start, as `integrate` does.
    Returns the (rows, len(lo)) integrals; an empty segment gives 0.0.
    Nodes are made and evaluated at most _CHUNK_PANELS panels at a
    time, so memory stays bounded however many panels a narrow density
    needs. A segment's integral is bit for bit the same whatever other
    segments share the call.
    """
    a, b, n = dist.panel_layout(lo, hi)
    # edge i of the density's equal panels of segment s, as panel_edges
    # computes it; i = n is the segment's end
    span, n_div = b - a, np.maximum(n, 1)

    def density_edge(s, i):
        return np.where(i >= n[s], b[s], a[s] + span[s] * i / n_div[s])

    # the panel nearest 0 is split at e1 / 10^levels, ..., e1 / 10
    e1 = density_edge(np.arange(len(a)), 1)
    levels = 1 + sum(
        (0.0 < a * _GRADING**j) & (a * _GRADING**j < e1) for j in range(2, 11)
    )
    graded = np.where((n > 0) & (a < e1 / _GRADING**2), levels, 0)
    # panel k of a segment graded g levels: [a, e1 / 10^g] for k = 0,
    # [e1 / 10^(g-k+1), e1 / 10^(g-k)] up to k = g, then the density's
    # panel k - g; with g = 0 simply the density's panel k
    count = np.where(n > 0, n + graded, 0)
    seg = np.repeat(np.arange(len(a)), count)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
    g = graded[seg]
    j = k - g
    e1_seg = e1[seg]
    left = np.where(
        k == 0, a[seg],
        np.where(j >= 1, density_edge(seg, j),
                 e1_seg / _GRADING_POWERS[np.clip(1 - j, 0, 11)]),
    )
    right = np.where(
        j >= 0, density_edge(seg, j + 1),
        e1_seg / _GRADING_POWERS[np.clip(-j, 0, 11)],
    )

    panel = np.empty((rows, len(seg)))
    for start in range(0, len(seg), _CHUNK_PANELS):
        part = slice(start, start + _CHUNK_PANELS)
        lft, width = left[part, None], (right - left)[part, None]
        mapped = lft < 0.1 * width
        step = width * np.where(mapped, _GL_S2, _GL_S)
        theta = (lft + step).ravel()
        weights = (width * np.where(mapped, _GL_V2, _GL_V)).ravel()
        nodes_seg = np.repeat(seg[part], len(_GL_S))
        if origin is None:
            values = f(theta, nodes_seg)
        else:
            d = (lft - origin[seg[part], None]) + step
            values = f(theta, nodes_seg, d.ravel())
        values = np.multiply(values, dist.pdf(theta)) * weights
        panel[:, part] = values.reshape(rows, -1, len(_GL_S)).sum(axis=2)
    # each segment sums its panels in order in one pass, wherever the
    # chunks cut: a segment's integral does not depend on the others
    out = np.stack([np.bincount(seg, weights=panel[r], minlength=len(a))
                    for r in range(rows)])
    bad = ~np.isfinite(out).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(f"non-finite integrand on [{lo[i]}, {hi[i]}]")
    return out


def mass(dist: TypeDistribution, lo, hi):
    """Probability mass of [lo, hi], in closed form; lo and hi may be
    floats or arrays."""
    if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
        return np.where(hi > lo, dist.mass(lo, hi), 0.0)
    if hi <= lo:
        return 0.0
    return dist.mass(lo, hi)


# ---------------------------------------------------------------------------
# Market parameters
# ---------------------------------------------------------------------------

# relative shortfall of the capacity below the zero-reward demand D(0)
# that a market may have: rounding in D(0), not a real excess
CAPACITY_RTOL = 1e-12


@dataclass(frozen=True)
class MarketParams:
    """Full parameter vector of one market scenario.

    N     total user mass
    F     monthly subscription fee
    Q     data-plan quota per subscriber
    phi   per-ad watching cost borne by the user
    K     number of advertisers
    A     wear-out coefficient (quadratic effectiveness decay)
    B     initial ad effectiveness
    C     monthly network capacity
    """

    N: float
    F: float
    Q: float
    phi: float
    K: float
    A: float
    B: float
    C: float
    utility: UtilityModel
    dist: TypeDistribution

    def __post_init__(self) -> None:
        # A = 0 would put a zero in every slot-demand denominator
        for name in ("N", "F", "Q", "phi", "K", "A", "B"):
            _check_positive(name, getattr(self, name))
        # C = inf stands for an unlimited network
        if math.isnan(self.C):
            raise ScenarioError("C must be a number, got nan")

        u = self.utility
        theta_max = self.dist.theta_max
        up0 = u.u_prime_zero
        if math.isinf(up0):
            # The participation-width assumption below is vacuous when
            # marginal utility blows up at zero; only the basic
            # subscription condition remains checkable.
            if theta_max <= self.F / u.u(self.Q):
                raise ScenarioError(
                    "theta_max must exceed F/u(Q) so that some users subscribe"
                )
        else:
            bound = up0 * self.F / (u.u_prime(self.Q) * u.u(self.Q))
            if theta_max <= bound:
                raise ScenarioError(
                    f"theta_max={theta_max} must exceed "
                    f"u'(0)F/(u'(Q)u(Q))={bound:.6g}"
                )

        d0 = self.baseline_demand()
        if self.C < d0 * (1.0 - CAPACITY_RTOL):
            raise ScenarioError(
                f"capacity C={self.C:.6g} below zero-reward demand D(0)={d0:.6g}"
            )

    def baseline_demand(self) -> float:
        """Data demand with no reward: quota times subscriber mass."""
        theta0 = self.F / self.utility.u(self.Q)
        return self.N * self.Q * mass(self.dist, theta0, self.dist.theta_max)


# ---------------------------------------------------------------------------
# Scenario (de)serialization
# ---------------------------------------------------------------------------

# every family by its scenario-file name; a section holds the variant
# and its class's fields, and may leave out a field with a class default
_VARIANTS = {cls.variant: cls for cls in (
    LogUtility, AlphaFairUtility, ExpUtility, UniformTypes, TruncatedNormalTypes)}
_SCALARS = ("N", "F", "Q", "phi", "K", "A", "B", "C")


def _build_family(doc: dict, key: str, family):
    """The member of family (UtilityModel or TypeDistribution) that the
    section doc[key] names by its variant."""
    section = doc[key]
    if not isinstance(section, dict):
        raise ScenarioError(f"{key} must be a JSON object, got {section!r}")
    variant = section.get("variant")
    cls = _VARIANTS.get(variant)
    if cls is None or not issubclass(cls, family):
        raise ScenarioError(f"unknown {key} variant: {variant!r}")
    return cls(**{f.name: float(section[f.name]) for f in fields(cls)
                  if f.name in section or f.default is MISSING})


def params_from_dict(doc: dict) -> MarketParams:
    try:
        return MarketParams(
            **{name: float(doc[name]) for name in _SCALARS},
            utility=_build_family(doc, "utility", UtilityModel),
            dist=_build_family(doc, "distribution", TypeDistribution),
        )
    except KeyError as exc:
        raise ScenarioError(f"scenario missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario value: {exc}") from exc


def params_to_dict(params: MarketParams) -> dict:
    return {
        **{name: getattr(params, name) for name in _SCALARS},
        "utility": {"variant": params.utility.variant, **asdict(params.utility)},
        "distribution": {"variant": params.dist.variant, **asdict(params.dist)},
    }


def load_scenario(path: str) -> MarketParams:
    """Parse and validate a JSON scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ScenarioParseError(f"cannot parse scenario file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario file {path} must hold a mapping")
    return params_from_dict(doc)


def save_scenario(params: MarketParams, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(params), fh, indent=2, sort_keys=True)
        fh.write("\n")
