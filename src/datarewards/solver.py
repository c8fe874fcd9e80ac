"""Stage-I optimization: the operator's choice of unit data reward and
slot price(s) under a network capacity constraint.

The aware scheme has a single feasible reward interval [0, D^-1(C)]
because demand only grows with the reward. The unaware schemes can
have a fragmented feasible set (demand may dip when higher rewards
push users off their data plans). `_unaware_pieces` finds its pieces
with one split step, applied to a demand scan and then to the pieces'
revenue grids, which can show demand above the capacity inside a piece
where the scan stepped over it. Revenue is discontinuous at the reward
q = phi*Q/F where subscribing stops paying at all, so the step also
cuts the pieces there.

One search (`_solve_family`) serves every scheme: it takes each
market's feasible reward pieces, the aware [0, D^-1(C)] or the unaware
pieces, and maximizes each scheme's revenue over them with a dense
grid followed by golden-section refinement of the best cell. A best
piece end into which revenue rises is not refined: where revenue is
unimodal on the cell, as golden section assumes, it is the optimum. It
solves one scheme family at a time, SAR alone or SUR and SURD together,
since those two share demand, thresholds and feasible region.

D^-1(C) and each boundary of the unaware feasible region are found by
bisection: D^-1(C) by halving [case_bound_a, the first doubling whose
demand exceeds C] until a midpoint has |D - C| <= 1e-6 C, a boundary by
halving its scan (or grid) cell to 1e-10 max(grid end, 1), keeping
the feasible end. `numerics.monotone_bisect` takes the midpoints of
those plain loops and returns their answer, but evaluates demand at
few of them: a midpoint between two evaluated rewards on one side of C
is decided without an evaluation, and Illinois steps toward C place
the evaluations. The answers equal plain bisection wherever demand is
monotone between the rewards evaluated. Aware demand always is;
unaware demand is where it crosses C once within the scan cell, but
near a tangency with C (as at C = D(0) on markets whose demand dips)
it wobbles by about 1e-10 relative, the resolution of theta4, and a
boundary can then move (by up to 3e-8 relative on 261 drawn markets),
still to a reward whose demand was evaluated within C.

`solve_capacities` is the one stage-I path (`solve` is its call at one
capacity). Over a block of capacities it makes one array call of
`evaluate_point` per phase (`_grids`: aware grids, unaware scans,
unaware piece grids and the pieces of the second split, each pass at
most `_PASS_REWARDS` rewards); inversion, bisection and refinement stay
per capacity, sharing a memo of scalar demand and stage II, which do
not depend on C. The outcomes equal those of solving each capacity
alone, bit for bit: every decision is the per-capacity one, and an
array evaluation gives every reward the same bits however the rewards
are batched.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from operator import attrgetter

import numpy as np

from .admarket import AdSideOutcome, Scheme, ad_sides, ad_stats, watch_moments
from .errors import InternalConsistencyError, ScenarioError, UnboundedSearchError
from .model import CAPACITY_RTOL, MarketParams, mass
from .numerics import check_count, golden_max, monotone_bisect
from .users import (
    SarCase,
    SurCase,
    Thresholds,
    case_bound_a,
    case_bound_b_sar,
    case_bound_b_sur,
    case_bound_d,
    root_resolution,
    thresholds,
)


@dataclass(frozen=True)
class SolverConfig:
    """Tunable search resolutions; defaults keep sweep outputs stable
    to at least four significant digits. Each is an int of at least 2,
    so that a grid holds both ends of its interval."""

    grid_points: int = 2000  # revenue grid per feasible interval
    scan_points: int = 600  # demand feasibility scan resolution

    def __post_init__(self) -> None:
        for name in ("grid_points", "scan_points"):
            check_count(f"SolverConfig.{name}", getattr(self, name), 2)


DEFAULT_CONFIG = SolverConfig()

# Golden-section refinement stops at a bracket narrower than
# GOLDEN_TOL * max(|a|, |b|, 1) (`numerics.golden_max`): an absolute
# reward tolerance, since every preset's rewards lie below 1. Where
# revenue is flat at an interior optimum, omega* is resolved less well
# than that: on appK SAR (C = 2.15e7, capacity not binding) a root error
# within `root_resolution`/2 moves r_total by about 1e-10 relative, and
# golden section's comparisons with it, so omega* lands anywhere within
# about 3e-5 relative of the optimum while r_total stays within about
# 1e-10 of its value there.
GOLDEN_TOL = 1e-6
# `_rises_into_end`'s inward step, in cells; golden section tries no nearer point
CORNER_STEP = 1e-7
# the unaware piece below q = phi*Q/F, where revenue jumps, ends at q * COLLAPSE_CUT
COLLAPSE_CUT = 1.0 - 1e-9
# doublings of a reward before a search for more demand gives up
MAX_DOUBLINGS = 60


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


# ---------------------------------------------------------------------------
# Stage II at one reward or at a reward array
# ---------------------------------------------------------------------------


def _demand(params: MarketParams, part: Thresholds, moments, array: bool):
    """Demand, the quota of every subscriber plus the rewarded data of
    every watcher, and the subscribers' type mass (array: w is an array)."""
    (sub, alone), dist, top = moments, params.dist, params.dist.theta_max
    sub_mass = mass(dist, part.cutoff, top) if array else (
        0.0 if top <= part.cutoff else dist.mass(part.cutoff, top))  # `mass` at floats
    return params.N * params.Q * sub_mass + params.N * part.w * (sub.ex + alone.ex), sub_mass


def demand(params: MarketParams, w: float, scheme: Scheme) -> float:
    """Total data requested per month at reward w."""
    part = thresholds(params, w, scheme_aware=scheme is Scheme.SAR)
    return _demand(params, part, watch_moments(params, part), isinstance(w, np.ndarray))[0]


_SAR_LABELS = np.array([c.value for c in SarCase])
_SUR_LABELS = np.array([c.value for c in SurCase])


@dataclass(frozen=True)
class PointEval:
    """Everything the operator cares about at one reward level, or at
    every reward of an array (from `evaluate_point` at an array; the
    fields are then arrays, and `entry` picks one).

    `ad` is the scheme's ad side. Under the unaware schemes `ad_surd`
    is SURD's, which prices the two watcher classes apart in case C^
    and is SUR's elsewhere, so one evaluation serves SUR and SURD.
    theta4 is None (NaN in arrays) outside case C^.
    """

    w: float
    case_label: str
    demand: float
    r_data: float
    theta4: float | None
    ad: AdSideOutcome
    ad_surd: AdSideOutcome | None = None

    @property
    def r_total(self) -> float:
        return self.r_data + self.ad.revenue

    @property
    def r_total_surd(self) -> float:
        assert self.ad_surd is not None
        return self.r_data + self.ad_surd.revenue

    def entry(self, i: int) -> PointEval:
        """Entry i of an evaluation at a reward array."""

        def value(values):
            return None if values is None or math.isnan(values[i]) else float(values[i])

        return self._map(value, str(self.case_label[i]))

    def part(self, rows: slice) -> PointEval:
        """Entries `rows` of an evaluation at a reward array, as one."""
        return self._map(lambda v: None if v is None else v[rows], self.case_label[rows])

    def _map(self, fn, case_label) -> PointEval:
        """This evaluation with fn applied to every numeric field."""

        def side(ad):
            return None if ad is None else AdSideOutcome(
                *(fn(v) for v in (ad.revenue, ad.p_star, ad.p_star_i, ad.p_star_ii))
            )

        return PointEval(
            w=fn(self.w), case_label=case_label,
            demand=fn(self.demand), r_data=fn(self.r_data),
            theta4=fn(self.theta4), ad=side(self.ad), ad_surd=side(self.ad_surd),
        )


def evaluate_point(params: MarketParams, w, scheme: Scheme) -> PointEval:
    """Stage II at reward w: one root solve for the partition, and the
    moments of each watch segment, in closed form or from one
    quadrature pass (`admarket.watch_moments`).

    An array w is evaluated in one array pass: the rewards are
    classified at once, the case-C thresholds found together by
    `newton_roots` (each reward takes the steps of its scalar root
    solve), the watch segments' moments taken elementwise or from one
    batched node pass per kind of watcher (`integrate_segments`), and
    the ad side priced elementwise. One reward is cheaper on the
    scalar path.
    """
    part = thresholds(params, w, scheme is Scheme.SAR)
    moments, array = watch_moments(params, part), isinstance(w, np.ndarray)
    total, sub_mass = _demand(params, part, moments, array)
    pooled, split = ad_sides(params, part, moments, scheme)
    if array:
        label = (_SAR_LABELS if scheme is Scheme.SAR else _SUR_LABELS)[part.case]
    else:
        label = part.case._value_  # .value is a property, and costs two calls
    return PointEval(
        w=w, case_label=label, demand=total,
        r_data=params.N * params.F * sub_mass, theta4=part.theta4,
        ad=split if scheme is Scheme.SURD else pooled, ad_surd=split,
    )


def _outcome(
    params: MarketParams, scheme: Scheme, pe: PointEval
) -> OperatorOutcome:
    ad = pe.ad_surd if scheme is Scheme.SURD else pe.ad
    binding = abs(pe.demand - params.C) <= 1e-4 * params.C
    return OperatorOutcome(
        scheme=scheme,
        omega_star=pe.w,
        p_star=ad.p_star,
        p_star_i=ad.p_star_i,
        p_star_ii=ad.p_star_ii,
        r_data=pe.r_data,
        r_ad=ad.revenue,
        r_total=pe.r_data + ad.revenue,
        demand=pe.demand,
        case_label=pe.case_label,
        capacity_binding=binding,
    )


# ---------------------------------------------------------------------------
# Shared stage II of a block of capacities
# ---------------------------------------------------------------------------

# rewards that one array pass of `solve_capacities` holds at most; a
# grid longer than that is a pass of its own
_PASS_REWARDS = 1 << 14


def _demand_at(params: MarketParams, scheme: Scheme):
    """Scalar demand of the scheme's family, memoized by reward. Demand
    does not depend on the capacity, so a block's capacities share it."""
    return cache(lambda w: demand(params, w, scheme))


def _evaluate_grids(
    params: MarketParams, grids: list[np.ndarray], scheme: Scheme
) -> list[PointEval]:
    """`evaluate_point` at each grid, in array passes of whole grids
    that hold at most _PASS_REWARDS rewards. An array evaluation is bit
    for bit the same however its rewards are batched, so each grid
    comes out as from a call of its own."""
    sizes = [len(g) for g in grids]
    out: list[PointEval] = []
    i = 0
    while i < len(grids):
        j, total = i + 1, sizes[i]
        while j < len(grids) and total + sizes[j] <= _PASS_REWARDS:
            total += sizes[j]
            j += 1
        evals = evaluate_point(params, np.concatenate(grids[i:j]), scheme)
        ends = np.cumsum(sizes[i:j])
        out += [evals.part(slice(e - n, e)) for n, e in zip(sizes[i:j], ends)]
        i = j
    return out


# ---------------------------------------------------------------------------
# Feasible rewards: demand inversion and the unaware feasible region
# ---------------------------------------------------------------------------


def _double_until(demand_at, start: float, level: float) -> float:
    """The first of the rewards start, 2 start, 4 start, ... whose
    demand exceeds level; raises after MAX_DOUBLINGS of them. Every
    search for a reward above the capacity starts here, so this is
    where an unlimited capacity (C = inf), which gives no search end,
    is rejected."""
    if math.isinf(level):
        raise ScenarioError(
            "solving needs a finite capacity C: no reward search ends at C = inf"
        )
    w = start
    for _ in range(MAX_DOUBLINGS):
        if demand_at(w) > level:
            return w
        w *= 2.0
    raise UnboundedSearchError(
        f"demand never exceeded {level:.6g} at {MAX_DOUBLINGS} doublings "
        f"of the reward from {start:.6g}"
    )


def _demand_inverse(params: MarketParams, c: float, sar_demand) -> float:
    """The first midpoint of a bisection of [case_bound_a, the first
    doubling whose demand exceeds c] at which |D - c| <= 1e-6 c; raises
    when 200 halvings find none, as when demand jumps across that band."""
    lo = case_bound_a(params)
    d_lo = sar_demand(lo)
    if c <= d_lo * (1.0 + 1e-12):
        return lo
    hi = _double_until(sar_demand, 2.0 * lo, c)
    lo, hi, hit = monotone_bisect(
        sar_demand, lo, hi, d_lo, sar_demand(hi), c, band=1e-6 * c, max_iter=200
    )
    if not hit:
        raise InternalConsistencyError(
            f"demand inversion found no reward with demand within 1e-6 of "
            f"C={c!r} after 200 halvings: D({lo!r})={sar_demand(lo)!r}, "
            f"D({hi!r})={sar_demand(hi)!r}"
        )
    return lo


def demand_inverse(params: MarketParams) -> float:
    """Reward at which aware-scheme demand exactly meets the capacity
    params.C (which MarketParams keeps at or above D(0)).

    Demand is flat at its zero-reward level until the reward becomes
    attractive to the highest type, then strictly increases, so the
    inverse is unique above that knee. The answer is the first midpoint
    of a bisection at which demand is within 1e-6 of the capacity;
    InternalConsistencyError is raised when 200 halvings find none.
    """
    return _demand_inverse(params, params.C, _demand_at(params, Scheme.SAR))


def _omega_cap(params: MarketParams, capacity: float, sur_demand) -> float:
    """Upper end of the unaware reward search: smallest power-of-two
    multiple of phi*Q/F whose demand exceeds twice the capacity."""
    return _double_until(sur_demand, case_bound_d(params), 2.0 * capacity)


def _grid_with_breakpoints(a: float, b: float, n: int, breaks: list[float]) -> np.ndarray:
    grid = np.linspace(a, b, n)
    extra = [x for x in breaks if a < x < b]
    if extra:
        grid = np.unique(np.concatenate([grid, np.asarray(extra)]))
    return grid


def _intervals(
    c: float, grid: np.ndarray, demands: np.ndarray, feas: np.ndarray, sur_demand
) -> tuple[tuple[float, float], ...]:
    """The feasible reward intervals at capacity c on a grid of rewards
    with their demands: each run of feasible grid points (flags `feas`),
    its ends moved to the boundaries in the neighbouring grid cells."""

    def refine(i_feas: int, i_infeas: int) -> float:
        # a feasible reward within 1e-10 max(grid end, 1) of the boundary
        # in the grid cell; the grid's demands only aim the first step
        w_feas, _, _ = monotone_bisect(
            sur_demand, grid[i_feas], grid[i_infeas], demands[i_feas],
            demands[i_infeas], c, xtol=1e-10 * max(grid[-1], 1.0), max_iter=80,
        )
        return w_feas

    # each run of feasible grid points starts where the flags rise and
    # ends before they fall
    flips = np.diff(np.concatenate(([0], feas, [0])))
    intervals = []
    for i, j in zip(np.flatnonzero(flips > 0), np.flatnonzero(flips < 0) - 1):
        lo = refine(i, i - 1) if i > 0 else grid[i]
        hi = refine(j, j + 1) if j + 1 < len(grid) else grid[j]
        if hi < lo:
            raise InternalConsistencyError(f"inverted interval [{lo}, {hi}]")
        intervals.append((float(lo), float(hi)))
    return tuple(intervals)


def _grids(
    params: MarketParams, pieces: list[list[tuple[float, float]]], n: int,
    breaks: list[float], scheme: Scheme,
) -> tuple[list[list[np.ndarray]], list[list[PointEval]]]:
    """Each market's piece grids, n rewards per piece with the breaks
    inside it added (a point piece is its one reward), and their
    evaluations under the scheme, all in shared array passes."""
    grids = [
        [_grid_with_breakpoints(a, b, n, breaks) if b > a else np.array([a])
         for a, b in market_pieces]
        for market_pieces in pieces
    ]
    evals = iter(_evaluate_grids(params, [g for gs in grids for g in gs], scheme))
    return grids, [[next(evals) for _ in gs] for gs in grids]


def _unaware_pieces(
    params: MarketParams, markets: list[MarketParams], config: SolverConfig
) -> tuple[list[list[tuple[float, float]]], list[list[np.ndarray]], list[list[PointEval]]]:
    """Each market's unaware reward pieces, their grids and their SUR
    evaluations, from one split step applied twice.

    `split` turns a market's grids into runs of feasible points,
    refines the run ends in the neighbouring grid cells (`_intervals`),
    and cuts each run at q = phi*Q/F, where revenue jumps: one with
    a < q <= b becomes [a, q * COLLAPSE_CUT] and [q, b], since the
    high-reward side's formulas apply at q itself, and a piece the cut
    leaves empty is dropped. It splits first the demand scan of [0, the
    search end], whose zero reward counts as feasible. The scan can step
    over a stretch of demand above C narrower than its cells, and a piece
    then spans it; so a market whose piece grids hold an interior reward
    with demand above C has them split again, every piece end counting
    as feasible (each is a refined boundary, the zero reward or the cut
    at q), and its new pieces gridded again. q is a breakpoint of every
    grid, but lies strictly inside none but the scan's."""
    sur_demand = _demand_at(params, Scheme.SUR)
    q = case_bound_d(params)
    breaks = [case_bound_a(params), case_bound_b_sur(params), q]

    def split(c: float, grids, evals, ends: list[int]) -> list[tuple[float, float]]:
        pieces = []
        for grid, e in zip(grids, evals):
            feas = e.demand <= c
            feas[ends] = True
            for a, b in _intervals(c, grid, e.demand, feas, sur_demand):
                cut = [(a, q * COLLAPSE_CUT), (q, b)] if a < q <= b else [(a, b)]
                pieces += [(lo, hi) for lo, hi in cut if hi >= lo]
        return pieces

    # one scan per distinct search end, shared by the capacities with it
    caps = [_omega_cap(params, m.C, sur_demand) for m in markets]
    scan_caps = list(dict.fromkeys(caps))
    scan_grids, scan_evals = _grids(
        params, [[(0.0, cap)] for cap in scan_caps], config.scan_points, breaks, Scheme.SUR
    )
    scans = dict(zip(scan_caps, zip(scan_grids, scan_evals)))
    pieces = []
    for m, cap in zip(markets, caps):
        grids, evals = scans[cap]
        # the zero reward is feasible within the tolerance MarketParams
        # grants the capacity below D(0)
        if evals[0].demand[0] * (1.0 - CAPACITY_RTOL) > m.C:
            raise InternalConsistencyError(
                "zero reward infeasible despite capacity covering baseline demand"
            )
        pieces.append(split(m.C, grids, evals, [0]))
    grids, evals = _grids(params, pieces, config.grid_points, breaks, Scheme.SUR)
    redo = [k for k, m in enumerate(markets)
            if any((e.demand[1:-1] > m.C).any() for e in evals[k])]
    for k in redo:
        pieces[k] = split(markets[k].C, grids[k], evals[k], [0, -1])
    regrids = _grids(
        params, [pieces[k] for k in redo], config.grid_points, breaks, Scheme.SUR
    )
    for k, market_grids, market_evals in zip(redo, *regrids):
        grids[k], evals[k] = market_grids, market_evals
    return pieces, grids, evals


def feasible_region(
    params: MarketParams, config: SolverConfig = DEFAULT_CONFIG
) -> tuple[tuple[float, float], ...]:
    """Reward intervals (lo, hi) where unaware-scheme demand fits the
    capacity, in ascending order.

    Scans demand on a dense grid, sharpens every feasibility flip by
    bisection, keeping the feasible side of each boundary, and confirms
    the intervals on the revenue grids the solver searches: these are
    the pieces `solve` searches (`_unaware_pieces`), rejoined at phi*Q/F.
    """
    pieces, _, _ = _unaware_pieces(params, [params], config)
    # rejoin the pieces that the cut at phi*Q/F split
    q = case_bound_d(params)
    region: list[tuple[float, float]] = []
    for a, b in pieces[0]:
        if region and a == q and region[-1][1] == q * COLLAPSE_CUT:
            region[-1] = (region[-1][0], b)
        else:
            region.append((a, b))
    return tuple(region)


def _check_band_monotone(
    params: MarketParams, w: np.ndarray, theta4: np.ndarray
) -> None:
    """The non-subscriber band's upper edge must grow with the reward, up
    to the resolution of its roots (`root_resolution`); theta4 is NaN at
    the rewards without a band."""
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


# ---------------------------------------------------------------------------
# The stage-I search
# ---------------------------------------------------------------------------

# Scheme families, each solved by one search: the family's first scheme
# is the one its stage II is evaluated under. SUR's evaluation carries
# SURD's ad side too (`PointEval.ad_surd`).
_FAMILIES = ((Scheme.SAR,), (Scheme.SUR, Scheme.SURD))
# the revenue each scheme maximizes, read from its family's evaluation
_OBJECTIVE = {
    Scheme.SAR: attrgetter("r_total"),
    Scheme.SUR: attrgetter("r_total"),
    Scheme.SURD: attrgetter("r_total_surd"),
}


def _rises_into_end(objective, point, lo: float, hi: float, end: float) -> bool:
    """Whether revenue at `end`, an end of the cell [lo, hi], exceeds
    that CORNER_STEP of the cell inward. Both values are scalar: near
    phi*Q/F the array path differs from the scalar one in the last digits."""
    inward = end + CORNER_STEP * (hi - lo) * (1.0 if end == lo else -1.0)
    return objective(point(inward)) < objective(point(end))


def _family_optima(
    market: MarketParams, family: tuple[Scheme, ...], grids: list[np.ndarray],
    evals: list[PointEval], point,
) -> tuple[OperatorOutcome, ...]:
    """Each scheme of the family at its optimum over one market's piece
    grids and their evaluations: per piece and objective, the best grid
    cell and its golden refinement (revenue is empirically unimodal, and
    the grid protects against surprises in any case). A best piece end
    into which revenue rises (`_rises_into_end`) is not refined: on a
    unimodal cell, every point golden section tries earns less."""
    objectives = [_OBJECTIVE[s] for s in family]
    best: list[PointEval | None] = [None] * len(family)

    def consider(pt: PointEval) -> None:
        for k, objective in enumerate(objectives):
            if best[k] is None or objective(pt) > objective(best[k]):
                best[k] = pt

    for grid, piece in zip(grids, evals):
        _check_band_monotone(market, grid, piece.theta4)
        for objective in objectives:
            best_i = int(np.argmax(objective(piece)))
            consider(piece.entry(best_i))
            lo = float(grid[max(best_i - 1, 0)])
            hi = float(grid[min(best_i + 1, len(grid) - 1)])
            if hi > lo and not (best_i in (0, len(grid) - 1) and _rises_into_end(
                    objective, point, lo, hi, float(grid[best_i]))):
                w_ref, _ = golden_max(
                    lambda w: objective(point(w)), lo, hi, rel_tol=GOLDEN_TOL
                )
                consider(point(w_ref))

    if len(family) > 1:
        # The differentiated optimum must also dominate at the pooled
        # scheme's refined argmax; evaluate there explicitly.
        consider(point(best[0].w))
    return tuple(_outcome(market, s, pe) for s, pe in zip(family, best))


def _solve_family(
    params: MarketParams, markets: list[MarketParams], family: tuple[Scheme, ...],
    config: SolverConfig,
) -> list[tuple[OperatorOutcome, ...]]:
    """The optima of the family's schemes at each market.

    Every piece gets a dense grid with the case bounds as breakpoints,
    and all grids are evaluated in shared array passes: SAR's one piece
    [0, D^-1(C)] per market, or the unaware pieces (`_unaware_pieces`).
    SUR and SURD are searched on identical grids, which makes the
    differentiated scheme's dominance over the pooled one hold point by
    point.
    """
    if family[0] is Scheme.SAR:
        sar_demand = _demand_at(params, Scheme.SAR)
        pieces = [[(0.0, _demand_inverse(params, m.C, sar_demand))] for m in markets]
        breaks = [case_bound_a(params), case_bound_b_sar(params)]
        grids, evals = _grids(params, pieces, config.grid_points, breaks, Scheme.SAR)
    else:
        _, grids, evals = _unaware_pieces(params, markets, config)
    point = cache(lambda w: evaluate_point(params, w, family[0]))
    return [_family_optima(m, family, gs, es, point)
            for m, gs, es in zip(markets, grids, evals)]


# ---------------------------------------------------------------------------
# The stage-I engine
# ---------------------------------------------------------------------------


def solve_capacities(
    params: MarketParams,
    capacities: Sequence[float],
    schemes: Sequence[Scheme] = tuple(Scheme),
    config: SolverConfig = DEFAULT_CONFIG,
) -> list[list[OperatorOutcome]]:
    """The market `params` solved at each capacity: one list per
    capacity of the outcomes of `schemes`, in that order.

    Each capacity is validated as `MarketParams` validates C. The
    capacities are solved in blocks whose aware grids (grid_points
    rewards and two case bounds) fill one array pass, and each block
    has its own memo. Within a block every capacity's aware phase runs
    before any unaware phase, so an error is raised by the first failing
    phase of the block; it propagates, and no outcome is returned.
    """
    markets = [replace(params, C=float(c)) for c in capacities]
    families = [f for f in _FAMILIES if any(s in schemes for s in f)]
    block = max(1, _PASS_REWARDS // (config.grid_points + 2))
    solved: list[list[OperatorOutcome]] = []
    for start in range(0, len(markets), block):
        part = markets[start:start + block]
        by_scheme = {}
        for family in families:
            by_scheme.update(zip(family, zip(*_solve_family(params, part, family, config))))
        solved += [[by_scheme[s][k] for s in schemes] for k in range(len(part))]
    return solved


@lru_cache(maxsize=32)
def _solve_unaware_pair(
    params: MarketParams, config: SolverConfig
) -> tuple[OperatorOutcome, OperatorOutcome]:
    """SUR's and SURD's outcomes at the market's own capacity, from one
    engine call, kept for the common call of SUR and then SURD."""
    pair = (Scheme.SUR, Scheme.SURD)
    return tuple(solve_capacities(params, [params.C], pair, config)[0])


def solve(
    params: MarketParams, scheme: Scheme, config: SolverConfig = DEFAULT_CONFIG
) -> OperatorOutcome:
    """The scheme's optimum at the market's own capacity: the one-capacity
    call of `solve_capacities`."""
    if scheme is Scheme.SAR:
        return solve_capacities(params, [params.C], (scheme,), config)[0][0]
    return _solve_unaware_pair(params, config)[scheme is Scheme.SURD]


# ---------------------------------------------------------------------------
# Condition checkers and the large-capacity limit
# ---------------------------------------------------------------------------


def check_theorem2(params: MarketParams) -> tuple[bool, float | None]:
    """Monotonicity of the two watcher aggregates that guarantee
    capacity exhaustion under the aware scheme.

    Checks that (E[y])^2/E[y^2] * N_ad and E[y] * N_ad both grow with
    the reward on a log-spaced grid; returns (holds, first bad reward).
    """
    lo = case_bound_a(params) * (1.0 + 1e-9)
    hi = _omega_cap(params, params.C, _demand_at(params, Scheme.SUR))
    prev_a = prev_b = -math.inf
    for w in np.geomspace(lo, hi, 80):
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
