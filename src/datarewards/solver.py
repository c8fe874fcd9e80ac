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
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .admarket import (
    AdSideOutcome,
    Scheme,
    WatchMoments,
    ad_side,
    ad_stats,
    grid_stats,
    pool_revenue,
    watch_moments,
)
from .errors import InternalConsistencyError, UnboundedSearchError
from .model import CAPACITY_RTOL, MarketParams, integrate_segments, mass
from .numerics import golden_max
from .users import (
    SarCase,
    SurCase,
    Thresholds,
    case_bound_a,
    case_bound_b_sar,
    case_bound_b_sur,
    case_bound_d,
    case_index,
    root_resolution,
    solve_theta2,
    solve_theta4,
    theta0,
    theta1,
    theta3,
    thresholds,
    x_watch_alone,
    x_watch_subscriber,
)


@dataclass(frozen=True)
class SolverConfig:
    """Tunable search resolutions; defaults keep sweep outputs stable
    to at least four significant digits."""

    grid_points: int = 2000  # revenue grid per feasible interval
    scan_points: int = 600  # demand feasibility scan resolution
    # refinement stops at a bracket narrower than golden_tol * max(|a|,
    # |b|, 1): an absolute reward tolerance for rewards below 1
    golden_tol: float = 1e-6
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


def _subscriber_mass(params: MarketParams, thr: Thresholds) -> float:
    """Type mass of the users who subscribe at the reward of thr."""
    case = thr.case
    if case is SurCase.D:
        return 0.0
    cutoff = thr.theta0
    if case is SarCase.C:
        cutoff = thr.theta2
    elif case is SurCase.C:
        cutoff = thr.theta4
    return mass(params.dist, cutoff, params.dist.theta_max)


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
    if thr is None:
        thr = thresholds(params, w, scheme_aware=scheme is Scheme.SAR)
    if moments is None:
        moments = watch_moments(params, w, scheme, thr)
    quota = params.N * params.Q * _subscriber_mass(params, thr)
    return quota + params.N * w * sum(m.ex for m in moments)


def data_revenue(
    params: MarketParams,
    w: float,
    scheme: Scheme,
    thr: Thresholds | None = None,
) -> float:
    """Subscription revenue at reward w: fee times subscriber mass."""
    if thr is None:
        thr = thresholds(params, w, scheme_aware=scheme is Scheme.SAR)
    return params.N * params.F * _subscriber_mass(params, thr)


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
    thr = thresholds(params, w, scheme_aware=scheme is Scheme.SAR)
    moments = watch_moments(params, w, scheme, thr)
    d = demand(params, w, scheme, thr, moments)
    rd = data_revenue(params, w, scheme, thr)
    ad = ad_side(params, w, scheme, thr, moments)
    return PointEval(w=w, case_label=thr.case.value, demand=d, r_data=rd, ad=ad)


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
    thr = thresholds(params, w, scheme_aware=False)
    moments = watch_moments(params, w, Scheme.SUR, thr)
    d = demand(params, w, Scheme.SUR, thr, moments)
    rd = data_revenue(params, w, Scheme.SUR, thr)
    ad_sur = ad_side(params, w, Scheme.SUR, thr, moments)
    if thr.case is SurCase.C:
        ad_surd = ad_side(params, w, Scheme.SURD, thr, moments)
    else:
        ad_surd = ad_sur
    pe = PointEval(
        w=w, case_label=thr.case.value, demand=d, r_data=rd, ad=ad_sur
    )
    return _UnawarePoint(pe_sur=pe, ad_surd=ad_surd, theta4=thr.theta4)


# ---------------------------------------------------------------------------
# Stage II on a reward grid
# ---------------------------------------------------------------------------

_SAR_LABELS = np.array([c.value for c in SarCase])
_SUR_LABELS = np.array([c.value for c in SurCase])


@dataclass(frozen=True)
class GridEval:
    """Stage II at every reward of a grid, from `evaluate_grid`.

    Entry i holds what `evaluate_point` gives at w[i] for SAR or SUR;
    for the unaware schemes also SURD's ad side, which prices the two
    watcher classes apart in case C^ and is SUR's elsewhere. NaN marks
    an absent value: theta4 outside case C^, a split price outside it.
    """

    w: np.ndarray
    case: np.ndarray  # case labels
    demand: np.ndarray
    r_data: np.ndarray
    theta4: np.ndarray
    r_ad: np.ndarray
    p_star: np.ndarray
    r_ad_surd: np.ndarray | None = None
    p_star_i: np.ndarray | None = None
    p_star_ii: np.ndarray | None = None

    @property
    def r_total(self) -> np.ndarray:
        return self.r_data + self.r_ad

    @property
    def r_total_surd(self) -> np.ndarray:
        assert self.r_ad_surd is not None
        return self.r_data + self.r_ad_surd

    def point(self, i: int) -> PointEval:
        """Entry i as `evaluate_point` returns it (SAR or SUR)."""
        return PointEval(
            w=float(self.w[i]), case_label=str(self.case[i]),
            demand=float(self.demand[i]), r_data=float(self.r_data[i]),
            ad=AdSideOutcome(float(self.r_ad[i]), float(self.p_star[i]), None, None),
        )

    def unaware_point(self, i: int) -> _UnawarePoint:
        """Entry i as `_eval_unaware` returns it."""
        assert self.r_ad_surd is not None
        assert self.p_star_i is not None and self.p_star_ii is not None
        pe = self.point(i)
        ad_surd = pe.ad
        if pe.case_label == SurCase.C.value:
            ad_surd = AdSideOutcome(
                float(self.r_ad_surd[i]), None,
                float(self.p_star_i[i]), float(self.p_star_ii[i]),
            )
        t4 = float(self.theta4[i])
        return _UnawarePoint(pe, ad_surd, None if math.isnan(t4) else t4)


def _moments(params: MarketParams, w: np.ndarray, lo, hi, xfun):
    """Mass, int x g and int x^2 g of one watch segment [lo, hi] per
    reward, with x = xfun; zero where the segment holds no mass."""
    seg_mass = mass(params.dist, lo, hi)
    hi = np.where(seg_mass > 0.0, hi, lo)

    def x_and_x2(theta, seg):
        x = xfun(params, theta, w[seg])
        return np.array((x, x * x))

    ex, ex2 = integrate_segments(params.dist, x_and_x2, lo, hi, 2)
    return seg_mass, ex, ex2


def evaluate_grid(params: MarketParams, ws: np.ndarray, scheme: Scheme) -> GridEval:
    """`evaluate_point` at every reward of the array ws in one array
    pass; under SUR or SURD, `_eval_unaware`, both unaware schemes.

    The rewards are classified at once, the case-C thresholds found by
    array bisection, the watch segments' moments taken from one batched
    node pass per kind of watcher (`integrate_segments`), and the ad
    side priced elementwise. One reward is cheaper on the scalar path.
    """
    w = np.asarray(ws, dtype=float)
    aware = scheme is Scheme.SAR
    # indices in SarCase and SurCase alike: A 0, B 1, C 2, D 3
    case = case_index(params, w, aware)
    in_c, in_d = case == 2, case == 3
    theta_max = params.dist.theta_max
    top = np.full(len(w), theta_max)
    t1, t3 = theta1(params, w), theta3(params, w)
    cutoff = np.full(len(w), theta0(params))  # subscribers: [cutoff, top]
    sub_lo = np.where((case == 1) | in_c, t1, top)  # they watch on [sub_lo, top]
    theta4 = np.full(len(w), math.nan)
    if in_c.any():
        if aware:
            sub_lo[in_c] = cutoff[in_c] = solve_theta2(params, w[in_c])
        else:
            theta4[in_c] = cutoff[in_c] = solve_theta4(params, w[in_c])
    cutoff[in_d] = theta_max  # case D^: nobody subscribes
    # non-subscribers watch on [theta3, min(theta4, theta_max)] in case
    # C^ and on [theta3, theta_max] in case D^
    alone = np.zeros(len(w), dtype=bool) if aware else in_c | in_d
    alone_lo = np.where(alone, t3, 0.0)
    alone_hi = np.where(alone, np.fmin(theta4, theta_max), 0.0)
    sub_mass = mass(params.dist, cutoff, top)
    m_sub, ex_sub, ex2_sub = _moments(params, w, sub_lo, top, x_watch_subscriber)
    m_alone, ex_alone, ex2_alone = _moments(params, w, alone_lo, alone_hi, x_watch_alone)

    ex = ex_alone + ex_sub
    r_ad, p_star = pool_revenue(
        grid_stats(params, m_alone + m_sub, ex, ex2_alone + ex2_sub), params
    )
    out = GridEval(
        w=w, case=(_SAR_LABELS if aware else _SUR_LABELS)[case],
        demand=params.N * params.Q * sub_mass + params.N * w * ex,
        r_data=params.N * params.F * sub_mass,
        theta4=theta4, r_ad=r_ad, p_star=p_star,
    )
    if aware:
        return out
    rev_i, p_i = pool_revenue(grid_stats(params, m_sub, ex_sub, ex2_sub), params)
    rev_ii, p_ii = pool_revenue(grid_stats(params, m_alone, ex_alone, ex2_alone), params)
    return replace(
        out,
        r_ad_surd=np.where(in_c, rev_i + rev_ii, r_ad),
        p_star_i=np.where(in_c, p_i, math.nan),
        p_star_ii=np.where(in_c, p_ii, math.nan),
    )


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
    evals = evaluate_grid(params, grid, Scheme.SAR)
    best_i = int(np.argmax(evals.r_total))

    lo = float(grid[max(best_i - 1, 0)])
    hi = float(grid[min(best_i + 1, len(grid) - 1)])
    best = evals.point(best_i)
    if hi > lo:
        evaluated: dict[float, PointEval] = {}

        def at(w: float) -> PointEval:
            evaluated[w] = evaluate_point(params, w, Scheme.SAR)
            return evaluated[w]

        w_ref, _ = golden_max(
            lambda w: at(w).r_total, lo, hi, rel_tol=config.golden_tol,
        )
        cand = evaluated[w_ref]
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
    demands = evaluate_grid(params, grid, Scheme.SUR).demand
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


def _check_band_monotone(
    params: MarketParams, w: np.ndarray, theta4: np.ndarray
) -> None:
    """The non-subscriber band's upper edge must grow with the reward, up
    to the resolution of its bisected roots; theta4 is NaN at the
    rewards without a band."""
    band = ~np.isnan(theta4)
    w, t4 = w[band], theta4[band]
    slack = root_resolution(params)
    bad = (w[1:] > w[:-1]) & (t4[1:] < t4[:-1] * (1.0 - 1e-9) - slack)
    if bad.any():
        i = int(np.argmax(bad))
        raise InternalConsistencyError(
            f"subscription cutoff decreased from {t4[i]:.8g} (w={w[i]:.8g}) "
            f"to {t4[i + 1]:.8g} (w={w[i + 1]:.8g})"
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

    evaluated: dict[float, _UnawarePoint] = {}

    def at(w: float) -> _UnawarePoint:
        # the SUR and SURD refinements of one cell share most rewards
        if w not in evaluated:
            evaluated[w] = _eval_unaware(params, w)
        return evaluated[w]

    grids = [
        _grid_with_breakpoints(a, b, max(config.grid_points, 2), breaks)
        if b > a else np.array([a])
        for a, b in pieces if b >= a
    ]
    evals = evaluate_grid(params, np.concatenate(grids), Scheme.SUR)
    start = 0
    for grid in grids:
        piece = slice(start, start + len(grid))
        _check_band_monotone(params, grid, evals.theta4[piece])
        for objective, values in (
            (lambda e: e.r_total_sur, evals.r_total[piece]),
            (lambda e: e.r_total_surd, evals.r_total_surd[piece]),
        ):
            best_i = int(np.argmax(values))
            consider(evals.unaware_point(start + best_i))
            lo = float(grid[max(best_i - 1, 0)])
            hi = float(grid[min(best_i + 1, len(grid) - 1)])
            if hi > lo:
                w_ref, _ = golden_max(
                    lambda w: objective(at(w)), lo, hi, rel_tol=config.golden_tol,
                )
                consider(at(w_ref))
        start += len(grid)

    assert best_sur is not None and best_surd is not None
    # The differentiated optimum must also dominate at the pooled
    # scheme's refined argmax; evaluate there explicitly.
    consider(at(best_sur.pe_sur.w))

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
