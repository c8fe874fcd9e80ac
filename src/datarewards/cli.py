"""Command-line interface: scenario solving, capacity sweeps,
verification against the brute-force oracle, preset reproduction, and
threshold dumps.

Exit codes: 0 success, 2 missing input file, 3 parse error,
4 scenario/model invariant violation or a flag value out of its range,
1 verification failure.

Each output record is a dict whose keys, in order, are its CSV columns.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .admarket import (
    ad_stats,
    advertiser_best_response,
    optimal_price,
)
from .errors import DataRewardsError, ScenarioError, ScenarioParseError
from .model import MarketParams, Scheme, load_scenario
from .oracle import oracle_adv_br, oracle_user_br, user_payoff
from .presets import PRESETS
from .solver import (
    DEFAULT_CONFIG,
    SolverConfig,
    solve,
    solve_capacities,
)
from .users import (
    best_response_sar,
    best_response_sur,
    thresholds,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MISSING_FILE = 2
EXIT_PARSE_ERROR = 3
EXIT_INVARIANT = 4


class FlagError(DataRewardsError, ValueError):
    """A command-line flag value the command cannot use; exit code 4,
    reported without the `invalid scenario` label of a ScenarioError."""


def fmt_value(x) -> str:
    """Diff-stable CSV formatting: 10 significant digits, scientific
    notation for magnitudes of a million and up."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    v = float(x)
    if v == 0.0:
        return "0"
    if abs(v) >= 1e6:
        return f"{v:.9e}"
    return f"{v:.10g}"


def emit_records(records: list[dict], fmt: str) -> None:
    """Print non-empty records that share their keys, as JSON or as CSV
    whose header is those keys in order."""
    if fmt == "json":
        print(json.dumps(records, indent=2))
        return
    print(",".join(records[0]))
    for rec in records:
        print(",".join(map(fmt_value, rec.values())))


def _parse_scheme(text: str) -> Scheme:
    try:
        return Scheme(text.lower())
    except ValueError:
        raise FlagError(f"unknown scheme {text!r}; expected sar, sur, or surd")


def _config(args) -> SolverConfig:
    if args.grid is None:
        return DEFAULT_CONFIG
    return SolverConfig(
        grid_points=args.grid,
        scan_points=min(DEFAULT_CONFIG.scan_points, max(args.grid, 50)),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    params = load_scenario(args.scenario)
    scheme = _parse_scheme(args.scheme)
    outcome = solve(params, scheme, _config(args))
    emit_records([outcome.to_record()], args.format)
    return EXIT_OK


def _capacity_records(
    params: MarketParams, capacities: list[float], schemes: list[Scheme],
    config: SolverConfig,
) -> list[dict]:
    """One solved record per capacity and scheme, led by its capacity,
    from one engine call for the market."""
    solved = solve_capacities(params, capacities, schemes, config)
    return [
        {"C": c, **outcome.to_record()}
        for c, outcomes in zip(capacities, solved)
        for outcome in outcomes
    ]


def cmd_sweep(args) -> int:
    params = load_scenario(args.scenario)
    if not args.from_ < args.to:
        raise FlagError("sweep needs --from < --to")
    # the chosen schemes, in the enum's order whatever the flags' order
    chosen = [_parse_scheme(s) for s in args.scheme or ()]
    schemes = [s for s in Scheme if s in chosen or not chosen]
    capacities = [float(c) for c in np.linspace(args.from_, args.to, args.steps)]
    records = _capacity_records(params, capacities, schemes, _config(args))
    emit_records(records, args.format)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    preset = PRESETS.get(args.figure)
    if preset is None:
        raise FlagError(
            f"unknown figure id {args.figure!r}; choose from "
            + ", ".join(sorted(PRESETS))
        )
    params = preset.params()
    capacities = [params.C]
    if preset.sweep_to is not None:
        capacities = [
            float(c)
            for c in np.linspace(preset.sweep_from(), preset.sweep_to, preset.sweep_steps)
        ]
    records = _capacity_records(params, capacities, tuple(Scheme), _config(args))
    emit_records(records, args.format)
    return EXIT_OK


def cmd_thresholds(args) -> int:
    params = load_scenario(args.scenario)
    scheme = _parse_scheme(args.scheme)
    aware = scheme is Scheme.SAR
    records = []
    if args.responses_at is not None:
        br = best_response_sar if aware else best_response_sur
        for theta in map(float, np.linspace(0.0, params.dist.theta_max, args.steps)):
            dec = br(params, theta, args.responses_at)
            records.append({"theta": theta, "r": dec.r, "x": dec.x})
    elif not args.from_ < args.to:
        raise FlagError("threshold dump needs --from < --to")
    else:
        for w in map(float, np.linspace(args.from_, args.to, args.steps)):
            thr = thresholds(params, w, scheme_aware=aware)
            records.append({"omega": w, "theta0": thr.theta0, "theta1": thr.theta1,
                            "theta2": thr.theta2, "theta3": thr.theta3,
                            "theta4": thr.theta4})
    emit_records(records, args.format)
    return EXIT_OK


def _verify_user_br(params: MarketParams, scheme: Scheme, rng, n: int) -> tuple[bool, str]:
    w_hi = 2.0 * params.phi * params.Q / params.F
    worst = 0.0
    br = best_response_sar if scheme is Scheme.SAR else best_response_sur
    for _ in range(n):
        theta = rng.uniform(0.0, params.dist.theta_max)
        w = rng.uniform(0.0, w_hi)
        analytic = br(params, theta, w)
        _, oracle_payoff = oracle_user_br(params, theta, w, scheme)
        mine = user_payoff(params, theta, analytic.r, analytic.x, w)
        scale = max(abs(oracle_payoff), abs(mine), 1.0)
        worst = max(worst, (oracle_payoff - mine) / scale)
    return worst <= 1e-8, f"worst relative payoff gap {worst:.3e}"


def _verify_ad_side(params: MarketParams, rng) -> list[tuple[str, tuple[bool, str]]]:
    """The advertiser best response at a random price and the optimal
    slot price against grid searches, both on the watchers of one probe
    reward under SUR; vacuous when nobody watches there."""
    names = ("advertiser best response", "optimal slot price")
    stats = ad_stats(params, 0.9 * params.phi * params.Q / params.F, Scheme.SUR)
    if stats.n_ad <= 0:
        return [(name, (True, "no watchers at probe reward (vacuous)")) for name in names]
    p = rng.uniform(0.1 * params.B, 0.9 * params.B)
    grid_m = oracle_adv_br(stats, params, p, n_m=100001)
    closed_m = advertiser_best_response(stats, params, p)
    step = 2.0 * params.B * stats.n_ad * stats.ey**2 / (
        2.0 * params.A * stats.ey2
    ) / 100000
    p_grid = np.linspace(params.B / 2000, params.B, 2000)
    revs = [
        params.K * advertiser_best_response(stats, params, float(p)) * p
        for p in p_grid
    ]
    grid_p = float(p_grid[int(np.argmax(revs))])
    closed_p = optimal_price(stats, params)
    return list(zip(names, [
        (abs(grid_m - closed_m) <= step * 1.5,
         f"grid {grid_m:.6g} vs closed form {closed_m:.6g}"),
        (abs(grid_p - closed_p) <= params.B / 1000,
         f"grid price {grid_p:.6g} vs closed form {closed_p:.6g}"),
    ]))


def _verify_dominance(params: MarketParams) -> tuple[bool, str]:
    config = SolverConfig(grid_points=250, scan_points=200)
    pooled, split = solve_capacities(
        params, [params.C], (Scheme.SUR, Scheme.SURD), config
    )[0]
    ok = split.r_total >= pooled.r_total * (1.0 - 1e-6)
    return ok, (
        f"differentiated {split.r_total:.6g} vs pooled {pooled.r_total:.6g}"
    )


def cmd_verify(args) -> int:
    if args.scenario:
        params = load_scenario(args.scenario)
    else:
        params = PRESETS["fig5a"].params(1.6e7)
    rng = np.random.default_rng(args.seed)
    checks = [
        ("user best response (aware)",
         _verify_user_br(params, Scheme.SAR, rng, args.draws)),
        ("user best response (unaware)",
         _verify_user_br(params, Scheme.SUR, rng, args.draws)),
        *_verify_ad_side(params, rng),
        ("differentiation dominance", _verify_dominance(params)),
    ]
    failed = 0
    for name, (ok, detail) in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail}")
        if not ok:
            failed += 1
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datarewards",
        description="Equilibrium solver for mobile-data-rewarding markets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_checked(p, flag, ok, requirement, **kwargs):
        # a flag whose value `main` checks with ok before the command
        # runs; a failing value is reported as "FLAG must <requirement>"
        dest = p.add_argument(flag, **kwargs).dest
        checks = p.get_default("checks") or ()
        p.set_defaults(checks=[*checks, (flag, dest, ok, requirement)])

    def add_count(p, flag, lo, hi=math.inf, **kwargs):
        # an int flag that must lie in [lo, hi]
        add_checked(p, flag, lambda v: lo <= v <= hi, f"lie in [{lo}, {hi}]",
                    type=int, **kwargs)

    def add_real(p, flag, what, **kwargs):
        # a float flag that must be finite (argparse takes nan and inf)
        add_checked(p, flag, math.isfinite, f"be a finite {what}", type=float, **kwargs)

    def add_grid(p):
        # a grid longer than solver._PASS_REWARDS is an array pass of
        # its own, whose memory grows with the grid
        add_count(p, "--grid", 2, 100_000, default=None, help="solver grid override")

    def add_common(p):
        p.add_argument("--scenario", required=True,
                       help="path to a JSON scenario file")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p_solve = sub.add_parser("solve", help="solve one scenario for one scheme")
    add_common(p_solve)
    add_grid(p_solve)
    p_solve.add_argument("--scheme", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="capacity sweep")
    add_common(p_sweep)
    add_grid(p_sweep)
    p_sweep.add_argument("--scheme", action="append", default=None)
    add_real(p_sweep, "--from", "capacity", dest="from_", required=True)
    add_real(p_sweep, "--to", "capacity", required=True)
    add_count(p_sweep, "--steps", 2, 100_000, required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="run a built-in preset sweep")
    p_rep.add_argument("figure", help="preset id, e.g. fig5a or appK")
    p_rep.add_argument("--format", choices=["csv", "json"], default="csv")
    add_grid(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    p_thr = sub.add_parser(
        "thresholds", help="dump thresholds vs reward, or user responses"
    )
    add_common(p_thr)
    p_thr.add_argument("--scheme", required=True)
    add_real(p_thr, "--from", "reward", dest="from_", default=0.0)
    add_real(p_thr, "--to", "reward", default=0.0)
    add_count(p_thr, "--steps", 1, 100_000, default=100)
    add_real(
        p_thr, "--responses-at", "reward", default=None, metavar="OMEGA",
        help="dump per-type (theta, r, x) decisions at this reward instead",
    )
    p_thr.set_defaults(func=cmd_thresholds)

    p_ver = sub.add_parser("verify", help="compare against brute-force oracle")
    p_ver.add_argument("--scenario", default=None)
    add_count(p_ver, "--seed", 0, default=0)
    add_count(p_ver, "--draws", 1, 100_000, default=100)
    p_ver.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first `main` call: a
    build costs more than most parses."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        for flag, dest, ok, requirement in args.checks:
            value = getattr(args, dest)
            if value is not None and not ok(value):
                raise FlagError(f"{flag} must {requirement}, got {value}")
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ScenarioError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except DataRewardsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
