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
from .numerics import check_count
from .solver import OperatorOutcome
from .users import UserDecision


@dataclass(frozen=True)
class DiscretizedMarket:
    """Finite stand-in for the continuum market."""

    theta_grid: np.ndarray  # M valuation samples (midpoints)
    weights: np.ndarray  # g(theta_i) * dtheta, normalized to sum 1
    n_x: int
    n_omega: int
    n_p: int

    @classmethod
    def build(
        cls,
        params: MarketParams,
        m: int = 2000,
        n_x: int = 2001,
        n_omega: int = 400,
        n_p: int = 400,
    ) -> "DiscretizedMarket":
        """m type cells, and n_x watch levels, n_omega rewards and n_p
        prices per search; DomainError names a size that is not an int
        or too small to search (m, n_p >= 1; n_x, n_omega >= 2)."""
        for name, value, least in (("m", m, 1), ("n_x", n_x, 2),
                                   ("n_omega", n_omega, 2), ("n_p", n_p, 1)):
            check_count(f"DiscretizedMarket.{name}", value, least)
        theta_max = params.dist.theta_max
        edges = np.linspace(0.0, theta_max, m + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dtheta = theta_max / m
        weights = params.dist.pdf(mids) * dtheta
        weights = weights / weights.sum()
        return cls(theta_grid=mids, weights=weights, n_x=n_x,
                   n_omega=n_omega, n_p=n_p)


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
            theta * params.utility.u(params.Q * r + w * xs)
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
# payoff table entries evaluated at once (64 KiB of doubles, about 900
# rows of the first window): tables of 128 KiB and more took two to
# three times as long per entry, each temporary being freshly mapped
_BLOCK_ENTRIES = 1 << 13
# (reward, type) rows `oracle_stage1` evaluates in one pass (20 rewards
# of 200 types): a pass's arrays then stay within a core's L2 cache.
# Passes of 16384 rows took up to a tenth longer per solve, and a whole
# scan of the default grid in one pass peaked at 200 MB
_SCAN_ROWS = 1 << 12
# zoomed re-scans of the best reward cell after `oracle_stage1`'s full scan
_REFINE_ROUNDS = 3


def _windowed_argmax(
    payoff: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n: int,
    guess: np.ndarray,
    margin: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Leftmost argmax over grid indices 0..n-1, and its value, of each
    row of a table whose rows are concave up to rounding.

    `payoff(rows, cand)` returns the entries of those rows at the index
    array `cand` of shape (width, len(rows)): window index leading, so
    that every numpy operation runs over a whole block of rows. Row i is
    searched in a window of indices around `guess[i]` and is settled
    when every window edge inside the grid lies more than `margin[i]`
    below the window's best. If rounding moves no entry by more than
    half the margin from a concave row, no index outside a settled
    window reaches that best. Unsettled rows are searched again in a
    window four times as wide, which ends at the whole grid. Rows are
    evaluated in blocks of at most `_BLOCK_ENTRIES` table entries.
    """
    size = len(guess)
    idx = np.zeros(size, dtype=np.int64)
    val = np.empty(size)
    rows = np.arange(size)
    half = _HALF_WIDTH
    while rows.size:
        width = min(2 * half + 1, n)
        offsets = np.arange(width)[:, None]
        lows = np.clip(guess[rows] - half, 0, n - width)
        block = max(1, _BLOCK_ENTRIES // width)
        unsettled = []
        for start in range(0, rows.size, block):
            part, lo = rows[start:start + block], lows[start:start + block]
            table = payoff(part, lo + offsets)
            j = np.argmax(table, axis=0)
            best = table[j, np.arange(len(part))]
            floor = best - margin[part]
            open_ = ((lo > 0) & (table[0] >= floor)) | (
                (lo + width < n) & (table[-1] >= floor)
            )
            # an unsettled row's entries are overwritten when it settles
            idx[part] = lo + j
            val[part] = best
            unsettled.append(part[open_])
        rows = np.concatenate(unsettled)
        half *= 4
    return idx, val


def _br_grid(
    params: MarketParams,
    market: DiscretizedMarket,
    w: float | np.ndarray,
    scheme: Scheme,
) -> tuple[np.ndarray, np.ndarray]:
    """Best responses of every discretized user at reward w: for each
    type, the leftmost maximum over r and over a shared x grid (sized
    from the highest type's balance level) of
    theta u(Q r + w x) - F r - phi x.

    w is one reward, giving (m,) arrays of r and x, or a 1-D array of k
    rewards, giving (k, m) arrays whose rows are what each reward alone
    gives, bit for bit. All rewards' grids, breakpoints and windows are
    laid out together and searched by one `_windowed_argmax` call per r.

    The result is that of the exhaustive m x n_x payoff table, bit for
    bit, at O(n_x + m log n_x) cost per reward. For fixed r, type
    theta's row is theta b_k - F r - phi x_k with b_k = u(Q r + w x_k).
    The grid is uniform and u concave, so the row is concave in k and
    its leftmost argmax is the number of breakpoints
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
    ws = np.atleast_1d(np.asarray(w, dtype=float))
    k = len(ws)
    thetas = market.theta_grid
    m = len(thetas)
    caps = np.array([_x_cap(params, float(thetas[-1]), float(v)) for v in ws])
    spread = caps > 0.0
    # a zero step anywhere makes linspace scale every row another way,
    # so a zero cap gets a stand-in stop and its row is zeroed after;
    # one reward per C-contiguous row
    x_grid = np.linspace(0.0, np.where(spread, caps, 1.0), market.n_x).T.copy()
    x_grid[~spread] = 0.0
    u = params.utility
    offset = (
        u.mu ** (1.0 - u.alpha) / (1.0 - u.alpha)
        if u.variant == "alpha_fair" else 0.0
    )
    # type and reward of each row of the (k m) x n payoff table
    row_theta = np.tile(thetas, k)
    row_reward = np.repeat(np.arange(k), m)

    best_r = np.zeros((k, m), dtype=np.int64)
    best_x = np.zeros((k, m))
    best_payoff = np.full((k, m), -np.inf)
    for r in (0, 1):
        if scheme is Scheme.SAR and r == 0:
            xs = np.zeros((k, 1))
        else:
            xs = x_grid
        n = xs.shape[1]
        base = params.utility.u(params.Q * r + ws[:, None] * xs)  # (k, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            breaks = params.phi * np.diff(xs, axis=1) / np.diff(base, axis=1)
        sorted_breaks = np.fmax.accumulate(breaks, axis=1)
        guess = np.concatenate([np.searchsorted(b, thetas) for b in sorted_breaks])
        scale = (
            thetas * (np.abs(base).max(axis=1)[:, None] + offset)
            + params.F * r + params.phi * xs[:, -1:]
        )
        # a zero cap leaves one distinct x, so every window of such a
        # row holds its best: settle it at once
        margin = np.where(spread[:, None], _ROUNDING_MARGIN * scale, -np.inf)
        row_start = row_reward * n
        flat_base = base.ravel()
        flat_cost = (params.phi * xs).ravel()

        def payoff(rows: np.ndarray, cand: np.ndarray) -> np.ndarray:
            at = cand + row_start[rows]
            return (
                row_theta[rows] * flat_base.take(at)
                - params.F * r - flat_cost.take(at)
            )

        idx, val = _windowed_argmax(payoff, n, guess, margin.ravel())
        val = val.reshape(k, m)
        x = xs.ravel()[idx + row_start].reshape(k, m)
        improved = val > best_payoff
        best_payoff = np.where(improved, val, best_payoff)
        best_r = np.where(improved, r, best_r)
        best_x = np.where(improved, x, best_x)
    if np.ndim(w) == 0:
        return best_r[0], best_x[0]
    return best_r, best_x


def _pool_best_price(
    params: MarketParams,
    p_grid: np.ndarray,
    n_ad: np.ndarray,
    ey: np.ndarray,
    ratio: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best revenue and price over the price grid for each of k watcher
    pools, given as arrays of pool size (0 for a pool without ad
    views), E[y] and E[y]^2 / E[y^2]."""
    m_resp = np.where(
        p_grid < params.B,
        (params.B - p_grid) / (2.0 * params.A) * ratio[:, None] * n_ad[:, None],
        0.0,
    )
    revenue = params.K * m_resp * p_grid
    # slot supply constraint enforced by rejection
    feasible = params.K * m_resp <= (ey * n_ad * (1.0 + 1e-9))[:, None]
    revenue = np.where(feasible, revenue, -np.inf)
    i = np.argmax(revenue, axis=1)
    best = revenue[np.arange(len(i)), i]
    sold = (n_ad > 0.0) & np.isfinite(best)
    return np.where(sold, best, 0.0), np.where(sold, p_grid[i], params.B / 2.0)


def _pool_stats(
    params: MarketParams,
    weights: np.ndarray,
    x: np.ndarray,
    pools: np.ndarray,
    rewards: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Size, E[y] and E[y]^2 / E[y^2] of the watcher pool `pools[i]` at
    each listed reward row i of x; zeros elsewhere and for a pool
    without ad views. Each pool's three sums are those of per-reward
    code, bit for bit: an axis-1 sum of a C-contiguous (3, L) table
    adds each row as `np.sum` adds it alone, while array forms over all
    rewards (`np.add.reduceat`, or zeros in place of the entries
    outside a pool) group the additions differently."""
    k = len(x)
    n_ad, ey, ratio = np.zeros(k), np.zeros(k), np.zeros(k)
    moments = np.stack(
        (np.broadcast_to(weights, x.shape), weights * x, weights * x**2), axis=1
    )
    for i in rewards:
        wm, wx, wx2 = np.ascontiguousarray(moments[i][:, pools[i]]).sum(axis=1).tolist()
        if wm <= 0.0:
            continue
        e1, e2 = wx / wm, wx2 / wm
        if e1 > 0.0 and e2 > 0.0:
            n_ad[i], ey[i], ratio[i] = params.N * wm, e1, e1**2 / e2
    return n_ad, ey, ratio


def oracle_stage1(
    params: MarketParams,
    scheme: Scheme,
    market: DiscretizedMarket,
) -> OperatorOutcome:
    """Exhaustive reward/price grid search on the discretized market.

    Demand and slot constraints are enforced by rejection. For the
    differentiated scheme the revenue separates across the two slot
    classes, so the exhaustive 2-D price search reduces to two
    independent 1-D maximizations on the same grid. After the full
    scan, the reward grid is re-run zoomed into the best cell
    (`_REFINE_ROUNDS` times): revenue can climb steeply toward a cell
    edge, and zooming resolves that without any analytic shortcuts.
    Rewards are evaluated in array passes over consecutive rewards of a
    scan, each holding at most `_SCAN_ROWS` (reward, type) pairs: one
    `_br_grid` call for all the pass's rewards, then demand, data
    revenue and pricing for all of them at once.

    omega* is the first scanned reward whose r_total is strictly the
    largest seen, in scan order. r_total can be flat to the last bit
    across neighbouring rewards, so a rounding of one ulp anywhere can
    move omega* along such a plateau while r_total stays the same:
    compare oracle outcomes by r_total, not by omega*.
    """
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
    # rewards evaluated together: no (rewards x types) array holds more
    # than _SCAN_ROWS entries
    per_pass = max(1, _SCAN_ROWS // len(weights))
    best: dict | None = None

    def evaluate(ws: np.ndarray) -> None:
        nonlocal best
        r, x = _br_grid(params, market, ws, scheme)
        demand = params.N * np.sum(weights * (params.Q * r + ws[:, None] * x), axis=1)
        feasible = demand <= params.C * (1.0 + 1e-9)
        if not feasible.any():
            return
        r_data = params.N * params.F * np.sum(weights * r, axis=1)
        rewards = np.flatnonzero(feasible)
        watchers = x > 0.0
        if scheme is Scheme.SURD:
            pools = (watchers & (r == 1), watchers & (r == 0))
        else:
            pools = (watchers,)
        sales = [
            _pool_best_price(params, p_grid, *_pool_stats(params, weights, x, mask, rewards))
            for mask in pools
        ]
        r_ad = sum(revenue for revenue, _ in sales)
        r_total = r_data + r_ad
        i = int(np.argmax(np.where(feasible, r_total, -np.inf)))
        if best is not None and not r_total[i] > best["r_total"]:
            return
        prices = [float(price[i]) for _, price in sales]
        best = {
            "w": float(ws[i]), "r_data": float(r_data[i]), "r_ad": float(r_ad[i]),
            "r_total": float(r_total[i]), "demand": float(demand[i]),
            "prices": (None, *prices) if scheme is Scheme.SURD else (*prices, None, None),
        }

    def scan(lo: float, hi: float) -> None:
        ws = np.linspace(lo, hi, market.n_omega)
        for start in range(0, len(ws), per_pass):
            evaluate(ws[start:start + per_pass])

    scan(0.0, w_hi)
    if best is None:
        raise DomainError("no feasible reward found on the oracle grid")
    step = w_hi / (market.n_omega - 1)
    for _ in range(_REFINE_ROUNDS):
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
