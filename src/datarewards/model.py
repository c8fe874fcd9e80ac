"""Core market model: utility families, user-type distributions,
the full parameter vector, and scenario (de)serialization.

All types are frozen dataclasses; every operation is a pure function,
so instances can be shared freely across threads and parallel sweeps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, NumericalError, ScenarioError


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

    def u_prime(self, z):
        """u'(z); z may be a float or an array."""
        if isinstance(z, np.ndarray):
            _check_arguments(z)
        elif z < 0:
            raise _argument_error(z)
        return 1.0 / (1.0 + z)

    @property
    def u_prime_zero(self) -> float:
        return 1.0

    def inverse_marginal(self, s):
        """(u')^{-1}(s); s may be a float or an array."""
        _check_marginal(s)
        return 1.0 / s - 1.0


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
        if self.mu < 0.0:
            raise ScenarioError(f"mu must be >= 0, got {self.mu}")

    def u(self, z):
        """u(z); z may be a float or an array."""
        if isinstance(z, np.ndarray):
            _check_arguments(z)
        elif z < 0:
            raise _argument_error(z)
        a, mu = self.alpha, self.mu
        return ((z + mu) ** (1.0 - a) - mu ** (1.0 - a)) / (1.0 - a)

    def u_prime(self, z):
        """u'(z), +inf at z + mu = 0; z may be a float or an array."""
        if isinstance(z, np.ndarray):
            _check_arguments(z)
            with np.errstate(divide="ignore"):
                return (z + self.mu) ** (-self.alpha)
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


@dataclass(frozen=True)
class ExpUtility:
    """u(z) = 1 - exp(-gamma * z), gamma > 0."""

    gamma: float
    variant = "exponential"

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            raise ScenarioError(f"gamma must be > 0, got {self.gamma}")

    def u(self, z):
        """u(z); z may be a float or an array."""
        if isinstance(z, np.ndarray):
            _check_arguments(z)
            return -np.expm1(-self.gamma * z)
        if z < 0:
            raise _argument_error(z)
        return -math.expm1(-self.gamma * z)

    def u_prime(self, z):
        """u'(z); z may be a float or an array."""
        if isinstance(z, np.ndarray):
            _check_arguments(z)
            return self.gamma * np.exp(-self.gamma * z)
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
        if self.theta_max <= 0.0:
            raise ScenarioError(f"theta_max must be > 0, got {self.theta_max}")

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

    def pdf(self, theta):
        """Density at theta; theta may be a float or an array."""
        if isinstance(theta, np.ndarray):
            inside = (theta >= 0.0) & (theta <= self.theta_max)
            return np.where(inside, 1.0 / self.theta_max, 0.0)
        if 0.0 <= theta <= self.theta_max:
            return 1.0 / self.theta_max
        return 0.0

    def cdf(self, theta):
        """CDF at theta; theta may be a float or an array."""
        if isinstance(theta, np.ndarray):
            return np.clip(theta / self.theta_max, 0.0, 1.0)
        if theta <= 0.0:
            return 0.0
        if theta >= self.theta_max:
            return 1.0
        return theta / self.theta_max

    def mass(self, lo, hi):
        """Probability of [lo, hi]; lo and hi may be floats or arrays."""
        return self.cdf(hi) - self.cdf(lo)


@dataclass(frozen=True)
class TruncatedNormalTypes:
    """Normal(mean, sd) truncated to [lo, hi].

    Normalized by the parent's mass on [lo, hi] (`_normal_mass`), so
    the density integrates to 1 however much mass the parent loses to
    truncation.
    """

    mean: float
    sd: float
    lo: float = 0.0
    hi: float = 0.0
    variant = "truncated_normal"

    def __post_init__(self) -> None:
        if self.sd <= 0.0:
            raise ScenarioError(f"sd must be > 0, got {self.sd}")
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

    def pdf(self, theta):
        """Density at theta; theta may be a float or an array."""
        if isinstance(theta, np.ndarray):
            z = (theta - self.mean) / self.sd
            phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            density = phi / (self.sd * self._mass)  # type: ignore[attr-defined]
            return np.where((theta >= self.lo) & (theta <= self.hi), density, 0.0)
        if theta < self.lo or theta > self.hi:
            return 0.0
        z = (theta - self.mean) / self.sd
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return phi / (self.sd * self._mass)  # type: ignore[attr-defined]

    def cdf(self, theta):
        """CDF at theta; theta may be a float or an array."""
        return self.mass(self.lo, theta)

    def mass(self, lo, hi):
        """Probability of [lo, hi]; lo and hi may be floats or arrays."""
        if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
            lo, hi = np.maximum(lo, self.lo), np.minimum(hi, self.hi)
            m = _normal_mass((lo - self.mean) / self.sd, (hi - self.mean) / self.sd)
            return np.where(hi > lo, m / self._mass, 0.0)  # type: ignore[attr-defined]
        lo, hi = max(lo, self.lo), min(hi, self.hi)
        if hi <= lo:
            return 0.0
        return _normal_mass(
            (lo - self.mean) / self.sd, (hi - self.mean) / self.sd
        ) / self._mass  # type: ignore[attr-defined]


def _normal_mass(z_a, z_b):
    """Standard normal probability of [z_a, z_b], elementwise for
    arrays. ndtr evaluates the CDF via erfc, accurately in the lower
    tail; above the mean the mass is taken from the upper tail,
    ndtr(-z_a) - ndtr(-z_b), because ndtr(z_b) - ndtr(z_a) cancels
    there and is 0.0 beyond about 8.3 sd."""
    if isinstance(z_a, np.ndarray):
        return np.where(z_a > 0.0, ndtr(-z_a) - ndtr(-z_b), ndtr(z_b) - ndtr(z_a))
    if z_a > 0.0:
        return float(ndtr(-z_a) - ndtr(-z_b))
    return float(ndtr(z_b) - ndtr(z_a))


TypeDistribution = UniformTypes | TruncatedNormalTypes


# 32-node Gauss-Legendre rule on [0, 1], plain and under theta = s^2
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_S = 0.5 * (_GL_NODES + 1.0)
_GL_V = 0.5 * _GL_WEIGHTS
_GL_S2 = _GL_S * _GL_S
_GL_V2 = 2.0 * _GL_S * _GL_V

# ratio of consecutive panel edges graded toward theta = 0
_GRADING = 10.0
_GRADING_POWERS = np.array([_GRADING**j for j in range(12)])

# panels per node chunk of `integrate_segments`: 512 x 32 nodes
_CHUNK_PANELS = 512


def _panel_nodes(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule on the panel [a, b]. A panel that
    starts within a tenth of its width of theta = 0 is mapped by
    theta = a + (b - a) s^2, which clusters the nodes at a."""
    width = b - a
    if a < 0.1 * width:
        return a + width * _GL_S2, width * _GL_V2
    return a + width * _GL_S, width * _GL_V


def integrate(
    dist: TypeDistribution,
    f: Callable[[np.ndarray], np.ndarray | float],
    lo: float,
    hi: float,
) -> float | np.ndarray:
    """Weighted integral of f(theta) g(theta) over [lo, hi] by a fixed
    32-node Gauss-Legendre rule on each of a few panels.

    f receives the array of nodes of all panels and returns its values
    there; a scalar return broadcasts. If f returns k stacked rows of
    values, the k integrals come back as an array from the same node
    pass. An interval outside the density's support integrates to 0.0.

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
    if len(edges) == 2:
        theta, weights = _panel_nodes(a, b)
    else:
        panels = [_panel_nodes(*panel) for panel in zip(edges, edges[1:])]
        theta = np.concatenate([t for t, _ in panels])
        weights = np.concatenate([v for _, v in panels])
    # the weights are positive: any non-finite value makes the sum non-finite
    value = np.multiply(f(theta), dist.pdf(theta)) @ weights
    if not np.isfinite(value).all():
        raise NumericalError(f"non-finite integrand on [{lo}, {hi}]")
    return float(value) if value.ndim == 0 else value


def integrate_segments(
    dist: TypeDistribution,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    rows: int,
) -> np.ndarray:
    """`integrate` on many segments [lo[i], hi[i]] at once.

    The panels are those `integrate` lays out (the density's, graded
    toward 0, s^2-mapped near it), built for all segments with array
    arithmetic. f(theta, seg) receives nodes and the index of each
    node's segment and returns `rows` stacked rows of values there.
    Returns the (rows, len(lo)) integrals; an empty segment gives 0.0.
    Nodes are made and evaluated at most _CHUNK_PANELS panels at a
    time, so memory stays bounded however many panels a narrow density
    needs.
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

    out = np.zeros((rows, len(a)))
    for start in range(0, len(seg), _CHUNK_PANELS):
        part = slice(start, start + _CHUNK_PANELS)
        lft, width, s = left[part, None], (right - left)[part, None], seg[part]
        mapped = lft < 0.1 * width
        theta = (lft + width * np.where(mapped, _GL_S2, _GL_S)).ravel()
        weights = (width * np.where(mapped, _GL_V2, _GL_V)).ravel()
        nodes_seg = np.repeat(s, len(_GL_S))
        values = np.multiply(f(theta, nodes_seg), dist.pdf(theta)) * weights
        panel = values.reshape(rows, -1, len(_GL_S)).sum(axis=2)
        for r in range(rows):
            out[r] += np.bincount(s, weights=panel[r], minlength=len(a))
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
        for name in ("N", "F", "Q", "phi", "K", "B"):
            if getattr(self, name) <= 0.0:
                raise ScenarioError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.A <= 0.0:
            # A = 0 would put a zero in every slot-demand denominator.
            raise ScenarioError(f"A must be > 0, got {self.A}")

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

_UTILITY_KEYS = {
    "logarithmic": (),
    "alpha_fair": ("alpha", "mu"),
    "exponential": ("gamma",),
}


def _build_utility(section: dict) -> UtilityModel:
    variant = section.get("variant")
    if variant == "logarithmic":
        return LogUtility()
    if variant == "alpha_fair":
        return AlphaFairUtility(alpha=float(section["alpha"]),
                                mu=float(section.get("mu", 0.0)))
    if variant == "exponential":
        return ExpUtility(gamma=float(section["gamma"]))
    raise ScenarioError(f"unknown utility variant: {variant!r}")


def _build_distribution(section: dict) -> TypeDistribution:
    variant = section.get("variant")
    if variant == "uniform":
        return UniformTypes(theta_max=float(section["theta_max"]))
    if variant == "truncated_normal":
        return TruncatedNormalTypes(
            mean=float(section["mean"]),
            sd=float(section["sd"]),
            lo=float(section.get("lo", 0.0)),
            hi=float(section["hi"]),
        )
    raise ScenarioError(f"unknown distribution variant: {variant!r}")


def params_from_dict(doc: dict) -> MarketParams:
    try:
        return MarketParams(
            N=float(doc["N"]),
            F=float(doc["F"]),
            Q=float(doc["Q"]),
            phi=float(doc["phi"]),
            K=float(doc["K"]),
            A=float(doc["A"]),
            B=float(doc["B"]),
            C=float(doc["C"]),
            utility=_build_utility(doc["utility"]),
            dist=_build_distribution(doc["distribution"]),
        )
    except KeyError as exc:
        raise ScenarioError(f"scenario missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario value: {exc}") from exc


def params_to_dict(params: MarketParams) -> dict:
    util: dict = {"variant": params.utility.variant}
    for key in _UTILITY_KEYS[params.utility.variant]:
        util[key] = getattr(params.utility, key)
    dist: dict
    if isinstance(params.dist, UniformTypes):
        dist = {"variant": "uniform", "theta_max": params.dist.theta_max}
    else:
        dist = {
            "variant": "truncated_normal",
            "mean": params.dist.mean,
            "sd": params.dist.sd,
            "lo": params.dist.lo,
            "hi": params.dist.hi,
        }
    return {
        "N": params.N, "F": params.F, "Q": params.Q, "phi": params.phi,
        "K": params.K, "A": params.A, "B": params.B, "C": params.C,
        "utility": util, "distribution": dist,
    }


def load_scenario(path: str) -> MarketParams:
    """Parse and validate a JSON scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"cannot parse scenario file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario file {path} must hold a mapping")
    return params_from_dict(doc)


def save_scenario(params: MarketParams, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(params), fh, indent=2, sort_keys=True)
        fh.write("\n")
