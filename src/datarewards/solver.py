"""Stage-I optimization: the operator's choice of unit data reward and
slot price(s) under a network capacity constraint.

The aware scheme has a single feasible reward interval [0, D^-1(C)]
because demand only grows with the reward. The unaware schemes can
have a fragmented feasible set (demand may dip when higher rewards
push users off their data plans), so the solver scans demand, refines
the interval endpoints, and optimizes revenue per interval with a
dense grid followed by golden-section refinement. Revenue is
discontinuous at the reward level phi*Q/F where subscribing stops
paying at all, so that point always splits intervals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .admarket import (
    AdSideOutcome,
    Scheme,
    WatchMoments,
    ad_side,
    ad_stats,
    watch_moments,
)
from .errors import InternalConsistencyError, UnboundedSearchError
from .model import CAPACITY_RTOL, MarketParams, mass
from .numerics import golden_max
from .users import (
    SarCase,
    SurCase,
    Thresholds,
    case_bound_a,
    case_bound_b_sar,
    case_bound_b_sur,
    case_bound_d,
    classify_sar,
    classify_sur,
    thresholds,
)


@dataclass(frozen=True)
class SolverConfig:
    """Tunable search resolutions; defaults keep sweep outputs stable
    to at least four significant digits."""

    grid_points: int = 2000  # revenue grid per feasible interval
    scan_points: int = 600  # demand feasibility scan resolution
    golden_tol: float = 1e-6  # relative reward tolerance of refinement
    max_doublings: int = 60


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class OperatorOutcome:
    scheme: Scheme
    omega_star: float
    p_star: float | None
    p_star_i: float | None
    p_star_ii: float | None
    r_data: float
    r_ad: float
    r_total: float
    demand: float
    case_label: str
    capacity_binding: bool

    def to_record(self) -> dict:
        return {
            "scheme": self.scheme.value.upper(),
            "omega_star": self.omega_star,
            "p_star": self.p_star,
            "p_star_I": self.p_star_i,
            "p_star_II": self.p_star_ii,
            "r_data": self.r_data,
            "r_ad": self.r_ad,
            "r_total": self.r_total,
            "demand": self.demand,
            "case": self.case_label,
            "capacity_binding": self.capacity_binding,
        }


@dataclass(frozen=True)
class FeasibleRegion:
    """Reward intervals on which demand stays within capacity."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for (a, b) in self.intervals:
            if b < a:
                raise InternalConsistencyError(f"inverted interval [{a}, {b}]")
        if len(self.intervals) > 3:
            warnings.warn(
                f"feasible region has {len(self.intervals)} intervals; "
                "more than three is unusual",
                stacklevel=2,
            )


# ---------------------------------------------------------------------------
# Demand and data revenue
# ---------------------------------------------------------------------------


def _subscriber_mass(
    params: MarketParams, w: float, scheme: Scheme, thr: Thresholds | None
) -> float:
    """Type mass of the users who subscribe at reward w."""
    theta_max = params.dist.theta_max
    cutoff = params.F / params.utility.u(params.Q)
    if w > 0.0:
        if scheme is Scheme.SAR:
            if classify_sar(params, w) is SarCase.C:
                assert thr is not None and thr.theta2 is not None
                cutoff = thr.theta2
        else:
            case = classify_sur(params, w)
            if case is SurCase.D:
                return 0.0
            if case is SurCase.C:
                assert thr is not None and thr.theta4 is not None
                cutoff = thr.theta4
    return mass(params.dist, cutoff, theta_max)


def demand(
    params: MarketParams,
    w: float,
    scheme: Scheme,
    thr: Thresholds | None = None,
    moments: list[WatchMoments] | None = None,
) -> float:
    """Total data requested per month at reward w: the quota of every
    subscriber plus the rewarded data of every watcher.

    `thr` and `moments` (from `thresholds` and `watch_moments` at the
    same w) skip recomputing them.
    """
    if w > 0.0 and thr is None:
        thr = thresholds(params, w, scheme_aware=scheme is Scheme.SAR)
    if moments is None:
        moments = watch_moments(params, w, scheme, thr)
    quota = params.N * params.Q * _subscriber_mass(params, w, scheme, thr)
    return quota + params.N * w * sum(m.ex for m in moments)


def data_revenue(
    params: MarketParams,
    w: float,
    scheme: Scheme,
    thr: Thresholds | None = None,
) -> float:
    """Subscription revenue at reward w: fee times subscriber mass."""
    if w > 0.0 and thr is None:
        thr = thresholds(params, w, scheme_aware=scheme is Scheme.SAR)
    return params.N * params.F * _subscriber_mass(params, w, scheme, thr)


@dataclass(frozen=True)
class PointEval:
    """Everything the operator cares about at one reward level."""

    w: float
    case_label: str
    demand: float
    r_data: float
    ad: AdSideOutcome

    @property
    def r_total(self) -> float:
        return self.r_data + self.ad.revenue


def evaluate_point(params: MarketParams, w: float, scheme: Scheme) -> PointEval:
    aware = scheme is Scheme.SAR
    if aware:
        label = classify_sar(params, w).value if w > 0 else SarCase.A.value
    else:
        label = classify_sur(params, w).value if w > 0 else SurCase.A.value
    thr = thresholds(params, w, scheme_aware=aware) if w > 0 else None
    moments = watch_moments(params, w, scheme, thr)
    d = demand(params, w, scheme, thr, moments)
    rd = data_revenue(params, w, scheme, thr)
    ad = ad_side(params, w, scheme, thr, moments)
    return PointEval(w=w, case_label=label, demand=d, r_data=rd, ad=ad)


def _outcome(
    params: MarketParams, scheme: Scheme, pe: PointEval
) -> OperatorOutcome:
    binding = abs(pe.demand - params.C) <= 1e-4 * params.C
    return OperatorOutcome(
        scheme=scheme,
        omega_star=pe.w,
        p_star=pe.ad.p_star,
        p_star_i=pe.ad.p_star_i,
        p_star_ii=pe.ad.p_star_ii,
        r_data=pe.r_data,
        r_ad=pe.ad.revenue,
        r_total=pe.r_total,
        demand=pe.demand,
        case_label=pe.case_label,
        capacity_binding=binding,
    )


# ---------------------------------------------------------------------------
# Demand inversion (aware scheme)
# ---------------------------------------------------------------------------


def demand_inverse(
    params: MarketParams,
    capacity: float | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> float:
    """Reward at which aware-scheme demand exactly meets capacity.

    Demand is flat at its zero-reward level until the reward becomes
    attractive to the highest type, then strictly increases, so the
    inverse is unique above that knee.
    """
    c = params.C if capacity is None else capacity
    lo = case_bound_a(params)
    d_lo = demand(params, lo, Scheme.SAR)
    if c <= d_lo * (1.0 + 1e-12):
        return lo
    hi = lo
    for _ in range(config.max_doublings):
        hi *= 2.0
        if demand(params, hi, Scheme.SAR) > c:
            break
    else:
        raise UnboundedSearchError(
            f"demand never reached capacity {c:.6g} after "
            f"{config.max_doublings} doublings from {lo:.6g}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d_mid = demand(params, mid, Scheme.SAR)
        if abs(d_mid - c) <= 1e-6 * c:
            return mid
        if d_mid < c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Aware-scheme solve
# ---------------------------------------------------------------------------


def _grid_with_breakpoints(a: float, b: float, n: int, breaks: list[float]) -> np.ndarray:
    grid = np.linspace(a, b, n)
    extra = [x for x in breaks if a < x < b]
    if extra:
        grid = np.unique(np.concatenate([grid, np.asarray(extra)]))
    return grid


def solve_sar(
    params: MarketParams, config: SolverConfig = DEFAULT_CONFIG
) -> OperatorOutcome:
    """Revenue-maximizing reward for the aware scheme.

    Dense grid over [0, D^-1(C)] then golden-section refinement around
    the best cell; revenue is empirically unimodal, and the grid pass
    protects against surprises in any case.
    """
    w_hi = demand_inverse(params, config=config)
    breaks = [case_bound_a(params), case_bound_b_sar(params)]
    grid = _grid_with_breakpoints(0.0, w_hi, config.grid_points, breaks)
    evals = [evaluate_point(params, float(w), Scheme.SAR) for w in grid]
    best_i = max(range(len(evals)), key=lambda i: evals[i].r_total)

    lo = float(grid[max(best_i - 1, 0)])
    hi = float(grid[min(best_i + 1, len(grid) - 1)])
    best = evals[best_i]
    if hi > lo:
        w_ref, _ = golden_max(
            lambda w: evaluate_point(params, w, Scheme.SAR).r_total,
            lo, hi, rel_tol=config.golden_tol,
        )
        cand = evaluate_point(params, w_ref, Scheme.SAR)
        if cand.r_total > best.r_total:
            best = cand
    return _outcome(params, Scheme.SAR, best)


# ---------------------------------------------------------------------------
# Unaware-scheme feasible region and solve
# ---------------------------------------------------------------------------


def _omega_cap(params: MarketParams, config: SolverConfig) -> float:
    """Upper end of the reward search: smallest power-of-two multiple
    of phi*Q/F whose demand exceeds twice the capacity."""
    q = case_bound_d(params)
    cap = q
    for _ in range(config.max_doublings):
        if demand(params, cap, Scheme.SUR) > 2.0 * params.C:
            return cap
        cap *= 2.0
    return cap


def feasible_region(
    params: MarketParams, config: SolverConfig = DEFAULT_CONFIG
) -> FeasibleRegion:
    """Reward intervals where unaware-scheme demand fits the capacity.

    Scans demand on a dense grid, then sharpens every feasibility flip
    by bisection, keeping the feasible side of each boundary.
    """
    cap = _omega_cap(params, config)
    breaks = [case_bound_a(params), case_bound_b_sur(params), case_bound_d(params)]
    grid = _grid_with_breakpoints(0.0, cap, config.scan_points, breaks)
    demands = np.array([demand(params, w, Scheme.SUR) for w in grid])
    # the zero reward is feasible within the tolerance MarketParams
    # grants the capacity below D(0)
    if demands[0] * (1.0 - CAPACITY_RTOL) > params.C:
        raise InternalConsistencyError(
            "zero reward infeasible despite capacity covering baseline demand"
        )
    feas = demands <= params.C
    feas[0] = True

    def refine(w_feas: float, w_infeas: float) -> float:
        # returns a feasible reward adjacent to the boundary
        for _ in range(80):
            mid = 0.5 * (w_feas + w_infeas)
            if abs(w_infeas - w_feas) <= 1e-10 * max(cap, 1.0):
                break
            if demand(params, mid, Scheme.SUR) <= params.C:
                w_feas = mid
            else:
                w_infeas = mid
        return w_feas

    intervals: list[tuple[float, float]] = []
    i = 0
    n = len(grid)
    while i < n:
        if not feas[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and feas[j + 1]:
            j += 1
        lo = grid[i]
        hi = grid[j]
        if i > 0:
            lo = refine(grid[i], grid[i - 1])
        if j + 1 < n:
            hi = refine(grid[j], grid[j + 1])
        intervals.append((float(lo), float(hi)))
        i = j + 1
    return FeasibleRegion(intervals=tuple(intervals))


def _check_band_monotone(evals: list[tuple[float, float]]) -> None:
    """The non-subscriber band's upper edge must grow with the reward."""
    for (w_a, t4_a), (w_b, t4_b) in zip(evals, evals[1:]):
        if w_b > w_a and t4_b < t4_a * (1.0 - 1e-9):
            raise InternalConsistencyError(
                f"subscription cutoff decreased from {t4_a:.8g} (w={w_a:.8g}) "
                f"to {t4_b:.8g} (w={w_b:.8g})"
            )


@dataclass(frozen=True)
class _UnawarePoint:
    pe_sur: PointEval
    ad_surd: AdSideOutcome
    theta4: float | None

    @property
    def r_total_sur(self) -> float:
        return self.pe_sur.r_total

    @property
    def r_total_surd(self) -> float:
        return self.pe_sur.r_data + self.ad_surd.revenue


def _eval_unaware(params: MarketParams, w: float) -> _UnawarePoint:
    """One reward level evaluated for both unaware schemes at once."""
    thr = thresholds(params, w, scheme_aware=False) if w > 0 else None
    case = classify_sur(params, w)
    moments = watch_moments(params, w, Scheme.SUR, thr)
    d = demand(params, w, Scheme.SUR, thr, moments)
    rd = data_revenue(params, w, Scheme.SUR, thr)
    ad_sur = ad_side(params, w, Scheme.SUR, thr, moments)
    if case is SurCase.C:
        ad_surd = ad_side(params, w, Scheme.SURD, thr, moments)
    else:
        ad_surd = ad_sur
    pe = PointEval(
        w=w, case_label=case.value, demand=d, r_data=rd, ad=ad_sur
    )
    return _UnawarePoint(
        pe_sur=pe, ad_surd=ad_surd,
        theta4=thr.theta4 if thr is not None else None,
    )


def _split_at_discontinuity(
    intervals: tuple[tuple[float, float], ...], q: float
) -> list[tuple[float, float]]:
    """Split intervals at the subscription-collapse reward q = phi*Q/F.

    Revenue jumps there; the high-reward-side formulas apply at the
    point itself, so the left piece stops just short of q.
    """
    out: list[tuple[float, float]] = []
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


@lru_cache(maxsize=32)
def _solve_unaware_pair(
    params: MarketParams, config: SolverConfig
) -> tuple[OperatorOutcome, OperatorOutcome]:
    """Solve the pooled and differentiated unaware schemes together.

    Both objectives share demand, thresholds and the feasible region;
    evaluating them on identical grids also makes the differentiated
    scheme's dominance over the pooled one hold point-by-point.
    """
    region = feasible_region(params, config)
    q = case_bound_d(params)
    pieces = _split_at_discontinuity(region.intervals, q)
    breaks = [case_bound_a(params), case_bound_b_sur(params)]

    best_sur: _UnawarePoint | None = None
    best_surd: _UnawarePoint | None = None

    def consider(pt: _UnawarePoint) -> None:
        nonlocal best_sur, best_surd
        if best_sur is None or pt.r_total_sur > best_sur.r_total_sur:
            best_sur = pt
        if best_surd is None or pt.r_total_surd > best_surd.r_total_surd:
            best_surd = pt

    for a, b in pieces:
        if b < a:
            continue
        n = config.grid_points if b > a else 1
        grid = _grid_with_breakpoints(a, b, max(n, 2), breaks) if b > a else np.array([a])
        evals = [_eval_unaware(params, float(w)) for w in grid]
        band = [
            (e.pe_sur.w, e.theta4)
            for e in evals
            if e.theta4 is not None
        ]
        _check_band_monotone([(w, t4) for w, t4 in band])

        for scheme_key in ("sur", "surd"):
            objective = (
                (lambda e: e.r_total_sur)
                if scheme_key == "sur"
                else (lambda e: e.r_total_surd)
            )
            best_i = max(range(len(evals)), key=lambda i: objective(evals[i]))
            consider(evals[best_i])
            lo = float(grid[max(best_i - 1, 0)])
            hi = float(grid[min(best_i + 1, len(grid) - 1)])
            if hi > lo:
                w_ref, _ = golden_max(
                    lambda w: objective(_eval_unaware(params, w)),
                    lo, hi, rel_tol=config.golden_tol,
                )
                consider(_eval_unaware(params, w_ref))

    assert best_sur is not None and best_surd is not None
    # The differentiated optimum must also dominate at the pooled
    # scheme's refined argmax; evaluate there explicitly.
    consider(_eval_unaware(params, best_sur.pe_sur.w))

    sur_outcome = _outcome(params, Scheme.SUR, best_sur.pe_sur)
    surd_pe = PointEval(
        w=best_surd.pe_sur.w,
        case_label=best_surd.pe_sur.case_label,
        demand=best_surd.pe_sur.demand,
        r_data=best_surd.pe_sur.r_data,
        ad=best_surd.ad_surd,
    )
    surd_outcome = _outcome(params, Scheme.SURD, surd_pe)
    return sur_outcome, surd_outcome


def solve_sur(
    params: MarketParams, config: SolverConfig = DEFAULT_CONFIG
) -> OperatorOutcome:
    """Revenue-maximizing reward with one pooled slot price."""
    return _solve_unaware_pair(params, config)[0]


def solve_surd(
    params: MarketParams, config: SolverConfig = DEFAULT_CONFIG
) -> OperatorOutcome:
    """Revenue-maximizing reward with class-differentiated slot prices."""
    return _solve_unaware_pair(params, config)[1]


def solve(
    params: MarketParams, scheme: Scheme, config: SolverConfig = DEFAULT_CONFIG
) -> OperatorOutcome:
    if scheme is Scheme.SAR:
        return solve_sar(params, config)
    if scheme is Scheme.SUR:
        return solve_sur(params, config)
    return solve_surd(params, config)


# ---------------------------------------------------------------------------
# Condition checkers and the large-capacity limit
# ---------------------------------------------------------------------------


def check_theorem2(
    params: MarketParams,
    omega_grid: np.ndarray | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> tuple[bool, float | None]:
    """Monotonicity of the two watcher aggregates that guarantee
    capacity exhaustion under the aware scheme.

    Checks that (E[y])^2/E[y^2] * N_ad and E[y] * N_ad both grow with
    the reward on a log-spaced grid; returns (holds, first bad reward).
    """
    if omega_grid is None:
        lo = case_bound_a(params) * (1.0 + 1e-9)
        hi = _omega_cap(params, config)
        omega_grid = np.geomspace(lo, hi, 80)
    prev_a = prev_b = -math.inf
    for w in omega_grid:
        stats = ad_stats(params, float(w), Scheme.SAR)
        a = (stats.ey**2 / stats.ey2 * stats.n_ad) if stats.ey2 > 0 else 0.0
        b = stats.ey * stats.n_ad
        scale = max(abs(prev_a), abs(prev_b), 1.0)
        if a < prev_a - 1e-9 * scale or b < prev_b - 1e-9 * scale:
            return False, float(w)
        prev_a, prev_b = a, b
    return True, None


def check_theorem3(params: MarketParams) -> tuple[bool, bool]:
    """Conditions under which the unaware scheme never exhausts capacity.

    Returns (capacity condition, wear-out condition); when both hold,
    the pooled unaware solve must report capacity_binding = False.
    """
    u = params.utility
    theta_max = params.dist.theta_max
    cap_cond = params.C > params.N * u.inverse_marginal(
        params.F / (theta_max * params.Q)
    )
    t0 = params.F / u.u(params.Q)
    subscriber_mass = mass(params.dist, t0, theta_max)
    wear_cond = params.A > params.B**2 * params.K / (8.0 * params.F * subscriber_mass)
    return cap_cond, wear_cond


def theorem5_limit(params: MarketParams) -> float:
    """Aware-scheme revenue in the infinite-capacity limit.

    Closed form for logarithmic utility with uniform types: every user
    ends up subscribing, the watcher moments converge, and the ad side
    contributes a fixed price-times-slots term.
    """
    from .model import LogUtility, UniformTypes

    if not isinstance(params.utility, LogUtility) or not isinstance(
        params.dist, UniformTypes
    ):
        raise InternalConsistencyError(
            "large-capacity closed form only exists for logarithmic "
            "utility with uniform types"
        )
    theta_max = params.dist.theta_max
    q = max(
        params.B - (4.0 * params.A / (3.0 * params.K)) * (theta_max / params.phi),
        params.B / 2.0,
    )
    return params.N * params.F + q * (params.B - q) * (
        3.0 * params.K / (8.0 * params.A)
    ) * params.N
