"""Equilibrium solver for mobile-data-rewarding markets.

An operator sells a data plan, grants data for watched ads at a unit
reward, and sells the resulting ad slots to advertisers subject to a
wear-out effect. The package computes user and advertiser best
responses, the operator's optimal reward and slot price(s) under three
rewarding schemes, and reproduces capacity-sweep comparisons.
"""

__version__ = "0.1.0"

from .admarket import (
    AdMarketStats,
    AdSideOutcome,
    UserClass,
    ad_side,
    ad_stats,
    advertiser_best_response,
    optimal_price,
)
from .errors import (
    DataRewardsError,
    DomainError,
    InternalConsistencyError,
    NumericalError,
    ScenarioError,
    UnboundedSearchError,
)
from .model import (
    AlphaFairUtility,
    ExpUtility,
    LogUtility,
    MarketParams,
    Scheme,
    TruncatedNormalTypes,
    TypeDistribution,
    UniformTypes,
    UtilityModel,
    integrate,
    load_scenario,
    params_from_dict,
    params_to_dict,
    save_scenario,
)
from .oracle import (
    DiscretizedMarket,
    oracle_adv_br,
    oracle_stage1,
    oracle_user_br,
)
from .solver import (
    FeasibleRegion,
    OperatorOutcome,
    SolverConfig,
    check_theorem2,
    check_theorem3,
    data_revenue,
    demand,
    demand_inverse,
    evaluate_point,
    feasible_region,
    solve,
    solve_sar,
    solve_sur,
    solve_surd,
    theorem5_limit,
)
from .users import (
    SarCase,
    SurCase,
    Thresholds,
    UserDecision,
    best_response_sar,
    best_response_sur,
    classify_sar,
    classify_sur,
    solve_theta2,
    solve_theta4,
    thresholds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
