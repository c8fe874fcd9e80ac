"""Markets of every utility x type-distribution family, shared by the
randomized tests."""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import strategies as st

from datarewards import (
    AlphaFairUtility,
    ExpUtility,
    MarketParams,
    TruncatedNormalTypes,
    UniformTypes,
)
from datarewards.presets import PRESETS

# the 12 presets and the two alpha-fair ones with mu = 0: together they
# cover the eight utility x type-distribution families
FAMILY_BASES = [(name, False) for name in PRESETS] + [("fig5b", True), ("fig7b", True)]


def perturbed(name: str, mu0: bool, scales, share: float, dist=None) -> MarketParams:
    """The preset's market with each parameter scaled by the next factor
    of `scales`, at capacity D(0) + share (top - D(0)); top keeps the
    preset's ratio of its top capacity to D(0), at least 1.05. A given
    `dist` replaces the preset's type distribution, unscaled."""
    pre = PRESETS[name]
    s = iter(scales)
    utility = pre.utility
    if isinstance(utility, AlphaFairUtility):
        alpha = min(utility.alpha * next(s), 0.95)
        mu = 0.0 if mu0 else utility.mu * next(s)
        utility = AlphaFairUtility(alpha=alpha, mu=mu)
    elif isinstance(utility, ExpUtility):
        utility = ExpUtility(gamma=utility.gamma * next(s))
    if dist is None:
        dist = pre.dist
        if isinstance(dist, UniformTypes):
            dist = UniformTypes(dist.theta_max * next(s))
        else:
            dist = TruncatedNormalTypes(
                mean=dist.mean * next(s), sd=dist.sd * next(s), lo=dist.lo,
                hi=dist.hi * next(s),
            )
    top = pre.sweep_to if pre.sweep_to is not None else pre.fixed_c
    ratio = top / replace(pre.params(), utility=utility).baseline_demand()
    base = MarketParams(
        N=pre.N * next(s), F=pre.F * next(s), Q=pre.Q * next(s), phi=pre.phi * next(s),
        K=pre.K * next(s), A=pre.A * next(s), B=pre.B * next(s), C=math.inf,
        utility=utility, dist=dist,
    )
    d0 = base.baseline_demand()
    return replace(base, C=d0 + share * (max(ratio, 1.05) - 1.0) * d0)


@st.composite
def narrow_normals(draw) -> TruncatedNormalTypes:
    """Truncated normals on [lo, 150] with sd from 1/200 to 1/10 of the
    support's width and the mean within 5 sd of the support."""
    lo = draw(st.sampled_from([0.0, 20.0]))
    width = 150.0 - lo
    sd = width * 10.0 ** draw(st.floats(min_value=-2.3, max_value=-1.0))
    shift = draw(st.floats(min_value=0.0, max_value=1.0))
    return TruncatedNormalTypes(
        mean=lo - 5.0 * sd + shift * (width + 10.0 * sd), sd=sd, lo=lo, hi=150.0
    )
