"""Seeded market generator for the benchmark workloads.

Markets are perturbed copies of the package's 12 presets, plus the two
alpha-fair presets with mu = 0 (no preset has it; the model supports
it), which together cover the eight utility x type-distribution
families. The generator cycles through these 14 bases in a fixed order
and draws each market's capacity from a rotating quarter of its
feasible range, so every full cycle has the same mix and a run that
serves whole cycles sees the same work for every seed; only the
perturbations differ.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

import datarewards as dr
from datarewards.presets import PRESETS

# (family, preset); "af0" takes an alpha-fair preset and sets mu = 0
BASES: tuple[tuple[str, str], ...] = (
    ("log-uniform", "fig5a"),
    ("af-uniform", "fig5b"),
    ("af0-uniform", "fig5b"),
    ("exp-uniform", "fig5c"),
    ("exp-uniform", "fig5d"),
    ("log-tnormal", "fig7a"),
    ("af-tnormal", "fig7b"),
    ("af0-tnormal", "fig7b"),
    ("exp-tnormal", "fig7c"),
    ("exp-tnormal", "fig7d"),
    ("log-uniform", "appR-a"),
    ("log-uniform", "appR-b"),
    ("log-uniform", "appR-c"),
    ("exp-tnormal", "appK"),
)
CYCLE = len(BASES)
FAMILIES = tuple(dict.fromkeys(f for f, _ in BASES))
# bases whose preset defines a capacity sweep (appK is a single capacity)
SWEEP_BASES = tuple(b for b in BASES if PRESETS[b[1]].sweep_to is not None)

# relative half-width of the log-uniform parameter perturbation
SPREAD = 0.1
# the capacity of a market lies in one of this many equal parts of
# [D(0), top of the preset's range]; the part rotates with the cycle
STRATA = 4


@dataclass(frozen=True)
class Market:
    family: str
    preset: str
    params: dr.MarketParams  # C is a random feasible capacity
    c_hi: float  # top of the preset's capacity range, rescaled


class MarketGenerator:
    """Deterministic stream of distinct markets for one seed.

    A perturbation that `MarketParams` rejects is redrawn; `redraws`
    counts those, separately from any request failure. Every market
    handed out is remembered, and a repeat raises: the unaware solver
    caches whole-market results, so a repeated market would measure
    the cache instead of the solver.
    """

    def __init__(self, seed: int, stream: int = 0, bases=BASES):
        self._rng = np.random.default_rng([seed, stream])
        self._bases = bases
        self._turn = 0
        self._seen: set = set()
        self.redraws = 0
        self.families: Counter = Counter()

    def next(self) -> Market:
        k = self._turn
        self._turn += 1
        n = len(self._bases)
        family, preset = self._bases[k % n]
        stratum = (k // n + k) % STRATA
        while True:
            try:
                market = self._draw(family, preset, stratum)
            except dr.ScenarioError:
                self.redraws += 1
                continue
            break
        if market.params in self._seen:
            raise RuntimeError(f"market generator repeated a market: {market}")
        self._seen.add(market.params)
        self.families[family] += 1
        return market

    def family_shares(self) -> dict[str, float]:
        total = sum(self.families.values())
        return {f: self.families[f] / total for f in FAMILIES if f in self.families}

    def _scale(self) -> float:
        return math.exp(self._rng.uniform(-SPREAD, SPREAD))

    def _draw(self, family: str, preset_name: str, stratum: int) -> Market:
        pre = PRESETS[preset_name]
        s = self._scale
        util = pre.utility
        if isinstance(util, dr.AlphaFairUtility):
            alpha = min(util.alpha * s(), 0.95)
            mu = 0.0 if family.startswith("af0") else util.mu * s()
            util = dr.AlphaFairUtility(alpha=alpha, mu=mu)
        elif isinstance(util, dr.ExpUtility):
            util = dr.ExpUtility(gamma=util.gamma * s())
        dist = pre.dist
        if isinstance(dist, dr.UniformTypes):
            dist = dr.UniformTypes(dist.theta_max * s())
        else:
            hi = dist.hi * s()
            dist = dr.TruncatedNormalTypes(
                mean=dist.mean * s(), sd=dist.sd * s(), lo=dist.lo, hi=hi
            )
        # the capacity range keeps the preset's ratio of its top
        # capacity to its zero-reward demand
        top = pre.sweep_to if pre.sweep_to is not None else pre.fixed_c
        ratio = top / replace(pre.params(), utility=util).baseline_demand()
        base = dr.MarketParams(
            N=pre.N * s(), F=pre.F * s(), Q=pre.Q * s(), phi=pre.phi * s(),
            K=pre.K * s(), A=pre.A * s(), B=pre.B * s(), C=math.inf,
            utility=util, dist=dist,
        )
        d0 = base.baseline_demand()
        c_hi = d0 * max(ratio, 1.05)
        u = (stratum + self._rng.uniform(0.0, 1.0)) / STRATA
        c = d0 + u * (c_hi - d0)
        return Market(family, preset_name, replace(base, C=c), c_hi)
