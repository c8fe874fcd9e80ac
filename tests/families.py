"""Markets shared by the tests: those of every utility x
type-distribution family for the randomized tests, and fixed markets
that once broke the solver."""

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


# Two exp-tnormal markets, perturbed from fig7c, whose SUR demand rises
# above C on a stretch narrower than one cell of a 120-point scan (in
# the first, 1.45e-3 wide against cells 1.73e-3 wide): the scan stepped
# over it, and the SUR optimum landed in it, 1.8e-3 and 3.6e-4 above C
NARROW_EXCESS_MARKETS = {
    "seed18-960": MarketParams(
        N=9494596.282709276, F=38.14605872431253, Q=2.085206767705456,
        phi=0.4718740326086377, K=16.477517589581463, A=0.9867700629326472,
        B=4.930713452698614, C=20738040.31466688,
        utility=ExpUtility(gamma=0.7155270464776303),
        dist=TruncatedNormalTypes(mean=126.13906539074645, sd=31.55217226182432,
                                  lo=0.0, hi=231.82204799883573),
    ),
    "seed67-848": MarketParams(
        N=10596579.976785382, F=40.502332692580474, Q=2.1801465629189436,
        phi=0.5521249888796578, K=15.174761410346825, A=0.962189581979657,
        B=5.210523998541829, C=24212357.072879046,
        utility=ExpUtility(gamma=0.6538960416416004),
        dist=TruncatedNormalTypes(mean=129.9816876480236, sd=31.09496572673009,
                                  lo=0.0, hi=240.48001881163003),
    ),
}


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
