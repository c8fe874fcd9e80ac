"""Brute-force ground truth on discretized instances.

Everything here rediscovers equilibrium structure from raw payoff
maximization on grids: no threshold solving, no case classification.
Besides the payoff expressions, the oracle relies on two properties
that hold for every utility family, and on nothing else:
- u is concave, so on the uniform x grid each type's payoff
  theta u(Q r + w x) - F r - phi x is concave in the grid index;
- that payoff has increasing differences in (theta, x), so the best
  grid index never decreases with theta (Topkis).
The discretized best responses (`_br_grid`) use the second to place a
small search window for each type and the first to know when the
window holds the type's best: once its edges fall short of its best by
more than rounding can move a payoff, a concave row cannot climb back
beyond them. Their answer is that of the exhaustive scan of the full
payoff table, bit for bit. `oracle_user_br`, the single-user reference
the analytic best responses are checked against, scans exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .admarket import AdMarketStats
from .errors import DomainError
from .model import MarketParams, Scheme
from .solver import OperatorOutcome
from .users import UserDecision


@dataclass(frozen=True)
class DiscretizedMarket:
    """Finite stand-in for the continuum market."""

    theta_grid: np.ndarray  # M valuation samples (midpoints)
    weights: np.ndarray  # g(theta_i) * dtheta, normalized to sum 1
    n_x: int = 2001
    n_omega: int = 400
    n_p: int = 400

    @classmethod
    def build(
        cls,
        params: MarketParams,
        m: int = 2000,
        n_x: int = 2001,
        n_omega: int = 400,
        n_p: int = 400,
    ) -> "DiscretizedMarket":
        theta_max = params.dist.theta_max
        edges = np.linspace(0.0, theta_max, m + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dtheta = theta_max / m
        weights = params.dist.pdf(mids) * dtheta
        weights = weights / weights.sum()
        return cls(theta_grid=mids, weights=weights, n_x=n_x,
                   n_omega=n_omega, n_p=n_p)


def _u_vec(params: MarketParams, z: np.ndarray) -> np.ndarray:
    u = params.utility
    variant = u.variant
    if variant == "logarithmic":
        return np.log1p(z)
    if variant == "alpha_fair":
        a, mu = u.alpha, u.mu
        return ((z + mu) ** (1.0 - a) - mu ** (1.0 - a)) / (1.0 - a)
    return -np.expm1(-u.gamma * z)


def _x_cap(params: MarketParams, theta: float, w: float) -> float:
    """Upper end of the x search grid: 4x the marginal-balance level."""
    if w <= 0.0 or theta <= 0.0:
        return 0.0
    s = params.phi / (w * theta)
    up0 = params.utility.u_prime_zero
    if not math.isinf(up0) and s >= up0:
        return 0.0
    return 4.0 * params.utility.inverse_marginal(s) / w


def oracle_user_br(
    params: MarketParams,
    theta: float,
    w: float,
    scheme: Scheme,
    n_x: int = 2001,
) -> tuple[UserDecision, float]:
    """Exhaustive search over (r, x); returns the argmax and its payoff.

    Under the aware scheme watching requires subscribing (x forced to 0
    when r = 0); the unaware schemes drop that constraint.
    """
    x_hi = max(_x_cap(params, theta, w), 0.0)
    if x_hi > 0.0:
        x_grid = np.linspace(0.0, x_hi, n_x)
    else:
        x_grid = np.array([0.0])

    best_payoff = -math.inf
    best = UserDecision(r=0, x=0.0)
    for r in (0, 1):
        if scheme is Scheme.SAR and r == 0:
            xs = np.array([0.0])
        else:
            xs = x_grid
        payoff = (
            theta * _u_vec(params, params.Q * r + w * xs)
            - params.F * r
            - params.phi * xs
        )
        i = int(np.argmax(payoff))
        if payoff[i] > best_payoff:
            best_payoff = float(payoff[i])
            best = UserDecision(r=r, x=float(xs[i]))
    return best, best_payoff


def user_payoff(
    params: MarketParams, theta: float, r: int, x: float, w: float
) -> float:
    """The raw user payoff both code paths share."""
    return (
        theta * params.utility.u(params.Q * r + w * x)
        - params.F * r
        - params.phi * x
    )


def advertiser_payoff(
    stats: AdMarketStats, params: MarketParams, p: float, m: float
) -> float:
    """Expected campaign value minus slot cost for one advertiser."""
    if stats.n_ad <= 0.0 or stats.ey <= 0.0:
        return -p * m
    wearout = params.A * stats.ey2 / (stats.ey**2 * stats.n_ad)
    return (params.B - p) * m - wearout * m * m


def oracle_adv_br(
    stats: AdMarketStats,
    params: MarketParams,
    p: float,
    n_m: int = 200001,
) -> float:
    """Grid maximization of the advertiser payoff in purchased slots."""
    if stats.n_ad <= 0.0 or p >= params.B:
        return 0.0
    vertex_scale = params.B * stats.n_ad * stats.ey**2 / (
        2.0 * params.A * stats.ey2
    )
    m_grid = np.linspace(0.0, 2.0 * vertex_scale, n_m)
    wearout = params.A * stats.ey2 / (stats.ey**2 * stats.n_ad)
    payoffs = (params.B - p) * m_grid - wearout * m_grid**2
    return float(m_grid[int(np.argmax(payoffs))])


# half-width of the first index window each payoff row is searched in;
# rows not settled there are searched again in one four times as wide
_HALF_WIDTH = 4
# share of a payoff row's scale by which a settled window's edges must
# fall short of the row's best; rounding moves an entry by far less
_ROUNDING_MARGIN = 1e-12


def _windowed_argmax(
    payoff: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n: int,
    guess: np.ndarray,
    margin: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Leftmost argmax over grid indices 0..n-1, and its value, of each
    row of a table whose rows are concave up to rounding.

    `payoff(rows, cand)` returns the entries of those rows at the index
    array `cand` of shape (len(rows), width). Row i is searched in a
    window of indices around `guess[i]` and is settled when every
    window edge inside the grid lies more than `margin[i]` below the
    window's best. If rounding moves no entry by more than half the
    margin from a concave row, no index outside a settled window
    reaches that best. Unsettled rows are searched again in a window
    four times as wide, which ends at the whole grid.
    """
    m = len(guess)
    idx = np.zeros(m, dtype=np.int64)
    val = np.empty(m)
    rows = np.arange(m)
    half = _HALF_WIDTH
    while rows.size:
        width = min(2 * half + 1, n)
        lo = np.clip(guess[rows] - half, 0, n - width)
        cand = lo[:, None] + np.arange(width)
        table = payoff(rows, cand)
        j = np.argmax(table, axis=1)
        best = table[np.arange(rows.size), j]
        floor = best - margin[rows]
        unsettled = ((lo > 0) & (table[:, 0] >= floor)) | (
            (lo + width < n) & (table[:, -1] >= floor)
        )
        done = ~unsettled
        idx[rows[done]] = cand[done, j[done]]
        val[rows[done]] = best[done]
        rows = rows[unsettled]
        half *= 4
    return idx, val


def _br_grid(
    params: MarketParams,
    market: DiscretizedMarket,
    w: float,
    scheme: Scheme,
) -> tuple[np.ndarray, np.ndarray]:
    """Best responses of every discretized user at reward w: for each
    type, the leftmost maximum over r and over a shared x grid (sized
    from the highest type's balance level) of
    theta u(Q r + w x) - F r - phi x.

    The result is that of the exhaustive m x n_x payoff table, bit for
    bit, at O(n_x + m log n_x) cost. For fixed r, type theta's row is
    theta b_k - F r - phi x_k with b_k = u(Q r + w x_k). The grid is
    uniform and u concave, so the row is concave in k and its leftmost
    argmax is the number of breakpoints
    t_k = phi (x_{k+1} - x_k) / (b_{k+1} - b_k) below theta. Increasing
    differences make that count nondecreasing in theta, so one sorted
    array (the running maximum of t, which rounding can leave unsorted)
    places every row. Each row evaluates the table's own payoff
    expression on a window of indices around its count. The count only
    places the window: `_windowed_argmax` widens it until its edges fall
    short of the row's best by 1e-12 of the row's scale
    theta (max|b| + c) + F r + phi x_max, c being the constant the
    alpha-fair utility subtracts. Rounding moves an entry off the
    concave row by a few ulps of that scale, far inside half that
    margin.
    """
    thetas = market.theta_grid
    m = len(thetas)
    x_hi = _x_cap(params, float(thetas[-1]), w)
    if w <= 0.0 or x_hi <= 0.0:
        x_grid = np.array([0.0])
    else:
        x_grid = np.linspace(0.0, x_hi, market.n_x)
    u = params.utility
    offset = (
        u.mu ** (1.0 - u.alpha) / (1.0 - u.alpha)
        if u.variant == "alpha_fair" else 0.0
    )

    best_r = np.zeros(m, dtype=np.int64)
    best_x = np.zeros(m)
    best_payoff = np.full(m, -np.inf)
    for r in (0, 1):
        if scheme is Scheme.SAR and r == 0:
            xs = np.array([0.0])
        else:
            xs = x_grid
        base = _u_vec(params, params.Q * r + w * xs)  # (n_x,)
        with np.errstate(divide="ignore", invalid="ignore"):
            breaks = params.phi * np.diff(xs) / np.diff(base)
        guess = np.searchsorted(np.fmax.accumulate(breaks), thetas)
        scale = (
            thetas * (np.abs(base).max() + offset)
            + params.F * r + params.phi * xs[-1]
        )

        def payoff(rows: np.ndarray, cand: np.ndarray) -> np.ndarray:
            return thetas[rows, None] * base[cand] - params.F * r - params.phi * xs[cand]

        idx, val = _windowed_argmax(payoff, len(xs), guess, _ROUNDING_MARGIN * scale)
        improved = val > best_payoff
        best_payoff = np.where(improved, val, best_payoff)
        best_r = np.where(improved, r, best_r)
        best_x = np.where(improved, xs[idx], best_x)
    return best_r, best_x


def _pool_best_price(
    params: MarketParams,
    p_grid: np.ndarray,
    n_ad: float,
    ey: float,
    ey2: float,
) -> tuple[float, float]:
    """Best (revenue, price) over the price grid for one watcher pool."""
    if n_ad <= 0.0 or ey <= 0.0 or ey2 <= 0.0:
        return 0.0, params.B / 2.0
    m_resp = np.where(
        p_grid < params.B,
        (params.B - p_grid) / (2.0 * params.A) * (ey**2 / ey2) * n_ad,
        0.0,
    )
    revenue = params.K * m_resp * p_grid
    # slot supply constraint enforced by rejection
    feasible = params.K * m_resp <= ey * n_ad * (1.0 + 1e-9)
    revenue = np.where(feasible, revenue, -np.inf)
    i = int(np.argmax(revenue))
    if not np.isfinite(revenue[i]):
        return 0.0, params.B / 2.0
    return float(revenue[i]), float(p_grid[i])


def oracle_stage1(
    params: MarketParams,
    scheme: Scheme,
    market: DiscretizedMarket | None = None,
    refine_rounds: int = 3,
) -> OperatorOutcome:
    """Exhaustive reward/price grid search on the discretized market.

    Demand and slot constraints are enforced by rejection. For the
    differentiated scheme the revenue separates across the two slot
    classes, so the exhaustive 2-D price search reduces to two
    independent 1-D maximizations on the same grid. After the full
    scan, the reward grid is re-run zoomed into the best cell
    (`refine_rounds` times): revenue can climb steeply toward a cell
    edge, and zooming resolves that without any analytic shortcuts.
    """
    if market is None:
        market = DiscretizedMarket.build(params)
    thetas = market.theta_grid
    weights = market.weights

    # reward search range found by doubling the discretized demand
    def disc_demand(w: float) -> float:
        r, x = _br_grid(params, market, w, scheme)
        return float(params.N * np.sum(weights * (params.Q * r + w * x)))

    w_hi = params.phi * params.Q / params.F
    for _ in range(60):
        if disc_demand(w_hi) > 2.0 * params.C:
            break
        w_hi *= 2.0

    p_grid = np.linspace(0.0, params.B, market.n_p + 1)[1:]

    def eval_omega(w: float) -> dict | None:
        r, x = _br_grid(params, market, w, scheme)
        d = float(params.N * np.sum(weights * (params.Q * r + w * x)))
        if d > params.C * (1.0 + 1e-9):
            return None
        r_data = float(params.N * params.F * np.sum(weights * r))

        def pool(mask: np.ndarray) -> tuple[float, float, float]:
            wm = float(np.sum(weights[mask]))
            if wm <= 0.0:
                return 0.0, 0.0, 0.0
            n_ad = params.N * wm
            ey = float(np.sum(weights[mask] * x[mask])) / wm
            ey2 = float(np.sum(weights[mask] * x[mask] ** 2)) / wm
            return n_ad, ey, ey2

        watchers = x > 0.0
        if scheme is Scheme.SURD:
            rev_i, p_i = _pool_best_price(params, p_grid, *pool(watchers & (r == 1)))
            rev_ii, p_ii = _pool_best_price(params, p_grid, *pool(watchers & (r == 0)))
            r_ad = rev_i + rev_ii
            prices = (None, p_i, p_ii)
        else:
            r_ad, p_star = _pool_best_price(params, p_grid, *pool(watchers))
            prices = (p_star, None, None)
        return {
            "w": w, "r_data": r_data, "r_ad": r_ad, "r_total": r_data + r_ad,
            "demand": d, "prices": prices,
        }

    best: dict | None = None

    def scan(lo: float, hi: float) -> None:
        nonlocal best
        for w in np.linspace(lo, hi, market.n_omega):
            res = eval_omega(float(w))
            if res is not None and (best is None or res["r_total"] > best["r_total"]):
                best = res

    scan(0.0, w_hi)
    if best is None:
        raise DomainError("no feasible reward found on the oracle grid")
    step = w_hi / (market.n_omega - 1)
    for _ in range(refine_rounds):
        scan(max(best["w"] - step, 0.0), best["w"] + step)
        step *= 2.0 / (market.n_omega - 1)
    p_star, p_i, p_ii = best["prices"]
    return OperatorOutcome(
        scheme=scheme,
        omega_star=best["w"],
        p_star=p_star,
        p_star_i=p_i,
        p_star_ii=p_ii,
        r_data=best["r_data"],
        r_ad=best["r_ad"],
        r_total=best["r_total"],
        demand=best["demand"],
        case_label="oracle",
        capacity_binding=abs(best["demand"] - params.C) <= 1e-4 * params.C,
    )
