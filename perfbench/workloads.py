"""The four benchmark workloads.

Each workload turns a seed into inputs and serves requests one at a
time: a closed loop with a single client, where the caller waits for
each answer as a CLI or library user does. The package receives only
the generated markets.

Interface used by run.py, which serves whole cycles of `cycle` requests
so that every seed sees the same input mix: `prepare(n)` generates the
first n inputs and warms up on other markets; `next_input()` hands out
the next input of the seeded stream; `request(inp)` is the timed call
and returns `(work_units, output)`; `check(inp, out)` validates one
output after the timed span and returns the first failed check or None;
and `reference(table)` compares fixed inputs against reference.json.
Outputs are checked one by one and then dropped, so memory does not
grow with the number of requests a run completes.

A check that meets a defect of the package known when the benchmark
was written (`KNOWN_DEFECTS`) and finds exactly the wrong answer the
package gave then records it with `known_defect` instead of failing:
it counts against `success_rate` and is listed in the detail line, but
does not make the run incorrect. Any other wrong answer still fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import Counter, deque
from dataclasses import dataclass, replace

import numpy as np

import datarewards as dr
from datarewards import cli, oracle
from datarewards.users import case_bound_a, case_bound_b_sur, case_bound_d, theta0

from markets import BASES, CYCLE, SWEEP_BASES, Market, MarketGenerator

SCHEMES = (dr.Scheme.SAR, dr.Scheme.SUR, dr.Scheme.SURD)

# Stage-I resolution of the solver workloads: the acceptance suite's
# reduced grid, so that a run holds enough requests for a tail
# percentile. The sweep passes its grid as `--grid`.
SOLVE_CONFIG = dr.SolverConfig(grid_points=150, scan_points=120)
SWEEP_GRID = 50
SWEEP_STEPS = 4
# Oracle discretization: types, x grid, reward grid, price grid.
ORACLE_GRID = dict(m=200, n_x=201, n_omega=60, n_p=100)

# Tolerances of the output checks.
CAPACITY_RTOL = 1e-6  # the solver's stated feasibility tolerance
ORACLE_CAPACITY_RTOL = 1e-9  # the oracle's own rejection tolerance
DOMINANCE_RTOL = 1e-9  # SURD >= SUR
REFERENCE_RTOL = 1e-9  # r_total against reference.json (ROADMAP item 3)
BR_PAYOFF_RTOL = 1e-8  # analytic best response vs grid oracle (as `verify`)

# Defects of the package known when the benchmark was written, by key.
KNOWN_DEFECTS = {
    "mu0-case-A": (
        "alpha-fair mu = 0 under SUR/SURD at w <= case_bound_a: classify_sur "
        "says A^ (nobody watches) and best_response_sur returns x = 0, but "
        "with u'(0) infinite every non-subscriber with theta > 0 gains from "
        "watching"),
}

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _reference_markets(n: int) -> list[Market]:
    gen = MarketGenerator(0, stream=7)
    return [gen.next() for _ in range(n)]


class Workload:
    name = ""
    unit = ""  # what throughput_per_s counts
    request_is = ""
    bases = BASES  # markets the generator rotates through
    cycle = CYCLE  # requests per full cycle of the input mix
    probe = "quad"  # speed-probe kernel like the workload's hot loop

    def __init__(self, seed: int, workdir: str, round_: int = 0):
        self.seed = seed
        self.workdir = workdir
        self.gen = MarketGenerator(seed, bases=self.bases)
        self.warm = MarketGenerator(seed, stream=1000 + round_, bases=self.bases)
        self.overshoot: float | None = None  # largest (D(w*) - C) / C
        self.known: Counter = Counter()  # requests that met a known defect
        self.known_examples: list[str] = []
        self.observed: Counter = Counter()  # facts reported, not checked
        self._queue: deque = deque()
        self._made = 0

    def prepare(self, n: int) -> None:
        for _ in range(n):
            self._queue.append(self._make())
        self.warm_up()

    def next_input(self):
        return self._queue.popleft() if self._queue else self._make()

    def _make(self):
        self._made += 1
        return self.make_input(self._made - 1)

    def stats(self) -> dict:
        return {"markets": sum(self.gen.families.values()),
                "redraws": self.gen.redraws,
                "family_share": self.gen.family_shares()}

    def known_defect(self, key: str, msg: str) -> None:
        self.known[key] += 1
        if len(self.known_examples) < 5:
            self.known_examples.append(msg)

    def _over(self, value: float) -> None:
        if self.overshoot is None or value > self.overshoot:
            self.overshoot = value

    def check_outcomes(self, params, outs) -> str | None:
        """Every w* re-evaluated with `demand` fits C; SURD >= SUR."""
        msg = None
        for o in outs:
            if not all(math.isfinite(v) for v in (o.omega_star, o.r_total, o.demand)):
                msg = msg or f"{o.scheme.value}: non-finite output"
                continue
            scheme = dr.Scheme.SAR if o.scheme is dr.Scheme.SAR else dr.Scheme.SUR
            d = dr.demand(params, o.omega_star, scheme)
            over = (d - params.C) / params.C
            self._over(over)
            if over > CAPACITY_RTOL:
                msg = msg or f"{o.scheme.value}: D(w*)={d!r} exceeds C={params.C!r}"
        by = {o.scheme: o for o in outs}
        sur, surd = by.get(dr.Scheme.SUR), by.get(dr.Scheme.SURD)
        if sur and surd and surd.r_total < sur.r_total * (1.0 - DOMINANCE_RTOL):
            msg = msg or f"SURD {surd.r_total!r} < SUR {sur.r_total!r}"
        return msg

    # subclass interface
    def make_input(self, i: int): ...
    def warm_up(self) -> None: ...
    def request(self, inp) -> tuple[int, object]: ...
    def check(self, inp, out) -> str | None: ...
    def reference(self, table: dict) -> list[str]: ...


# ---------------------------------------------------------------------------
# cold_solve
# ---------------------------------------------------------------------------


def _solve_three(params: dr.MarketParams) -> list[dr.OperatorOutcome]:
    return [dr.solve(params, s, SOLVE_CONFIG) for s in SCHEMES]


class ColdSolve(Workload):
    name = "cold_solve"
    unit = "solve records"
    request_is = "one new market solved for SAR, SUR and SURD at one capacity"

    def make_input(self, i):
        return self.gen.next()

    def warm_up(self):
        _solve_three(self.warm.next().params)

    def request(self, market):
        return 3, _solve_three(market.params)

    def check(self, market, outs):
        return self.check_outcomes(market.params, outs)

    @staticmethod
    def make_reference(workdir: str) -> list:
        return [{"scenario": dr.params_to_dict(m.params),
                 "r_total": [o.r_total for o in _solve_three(m.params)]}
                for m in _reference_markets(CYCLE)]

    def reference(self, table):
        errors = []
        for row in table[self.name]:
            params = dr.params_from_dict(row["scenario"])
            for o, ref in zip(_solve_three(params), row["r_total"]):
                if rel_gap(o.r_total, ref) > REFERENCE_RTOL:
                    errors.append(f"{o.scheme.value} r_total {o.r_total!r} != {ref!r}")
        return errors


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"datarewards {argv[0]} exited with {code}")
    return buf.getvalue()


@dataclass(frozen=True)
class SweepInput:
    market: Market
    path: str

    def argv(self) -> list[str]:
        d0 = self.market.params.baseline_demand()
        return ["sweep", "--scenario", self.path, "--from", repr(d0),
                "--to", repr(self.market.c_hi), "--steps", str(SWEEP_STEPS),
                "--grid", str(SWEEP_GRID), "--format", "json"]

    def capacities(self) -> np.ndarray:
        return np.linspace(self.market.params.baseline_demand(),
                           self.market.c_hi, SWEEP_STEPS)


def _sweep_input(market: Market, workdir: str, tag: str) -> SweepInput:
    path = os.path.join(workdir, f"{tag}.json")
    dr.save_scenario(market.params, path)
    return SweepInput(market, path)


class Sweep(Workload):
    """Sweeps the 13 bases whose preset defines a capacity sweep. The
    odd count also keeps the median request on one group of similar
    markets instead of in the gap between the cheap and the costly half."""

    name = "sweep"
    unit = "solve records"
    request_is = (f"one in-process `datarewards sweep` call: {SWEEP_STEPS} "
                  "capacities from D(0) up, SAR/SUR/SURD at each")
    bases = SWEEP_BASES
    cycle = len(SWEEP_BASES)

    def make_input(self, i):
        return _sweep_input(self.gen.next(), self.workdir, f"scenario-{i}")

    def warm_up(self):
        _run_cli(_sweep_input(self.warm.next(), self.workdir, "warm-up").argv())

    def request(self, inp):
        return SWEEP_STEPS * len(SCHEMES), _run_cli(inp.argv())

    def check(self, inp, text):
        os.remove(inp.path)
        try:
            records = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"unparseable sweep output: {exc}"
        if len(records) != SWEEP_STEPS * len(SCHEMES):
            return f"{len(records)} records, expected {SWEEP_STEPS * len(SCHEMES)}"
        msg = None
        for k, c in enumerate(inp.capacities()):
            rows = records[3 * k: 3 * k + 3]
            if ([r["scheme"] for r in rows] != ["SAR", "SUR", "SURD"]
                    or any(r["C"] != float(c) for r in rows)):
                return f"records of capacity {float(c)!r} missing or out of order"
            params = replace(inp.market.params, C=float(c))
            msg = msg or self.check_outcomes(params, [_outcome(r) for r in rows])
        return msg

    @staticmethod
    def make_reference(workdir: str) -> list:
        rows = []
        for k, m in enumerate(_reference_markets(2)):
            records = json.loads(_run_cli(_sweep_input(m, workdir, f"ref-{k}").argv()))
            rows.append({"scenario": dr.params_to_dict(m.params), "c_hi": m.c_hi,
                         "r_total": [r["r_total"] for r in records]})
        return rows

    def reference(self, table):
        row = table[self.name][self.seed % len(table[self.name])]
        market = Market("reference", "reference",
                        dr.params_from_dict(row["scenario"]), row["c_hi"])
        records = json.loads(_run_cli(
            _sweep_input(market, self.workdir, "reference").argv()))
        got = [r["r_total"] for r in records]
        if len(got) != len(row["r_total"]):
            return [f"reference sweep gave {len(got)} records"]
        return [f"record {k}: r_total {a!r} != {b!r}"
                for k, (a, b) in enumerate(zip(got, row["r_total"]))
                if rel_gap(a, b) > REFERENCE_RTOL]


def _outcome(rec: dict) -> dr.OperatorOutcome:
    return dr.OperatorOutcome(
        scheme=dr.Scheme(rec["scheme"].lower()), omega_star=rec["omega_star"],
        p_star=rec["p_star"], p_star_i=rec["p_star_I"], p_star_ii=rec["p_star_II"],
        r_data=rec["r_data"], r_ad=rec["r_ad"], r_total=rec["r_total"],
        demand=rec["demand"], case_label=rec["case"],
        capacity_binding=rec["capacity_binding"],
    )


# ---------------------------------------------------------------------------
# point_query
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    params: dr.MarketParams
    scheme: dr.Scheme
    w: float
    theta: float


def _query_stream(gen: MarketGenerator, rng, n_markets: int):
    """Points visit the markets in turn, four points per market, one in
    each unaware case A-D on [0, 2 phi Q / F]; w is uniform inside the
    case (an empty case, like B with mu = 0, passes to the next one)
    and theta uniform on [0, theta_max]. Each point is asked for SAR,
    SUR and SURD in turn, as a caller comparing the schemes would,
    which also lets the check compare SURD with SUR."""
    markets = [gen.next().params for _ in range(n_markets)]
    i = 0
    while True:
        params = markets[(i // 4) % n_markets]
        d = case_bound_d(params)
        edges = [0.0, case_bound_a(params), case_bound_b_sur(params), d, 2.0 * d]
        case = i % 4
        while edges[case + 1] <= edges[case]:
            case = (case + 1) % 4
        w = max(float(rng.uniform(edges[case], edges[case + 1])), 1e-300)
        theta = float(rng.uniform(0.0, params.dist.theta_max))
        for scheme in SCHEMES:
            yield Query(params, scheme, w, theta)
        i += 1


def _mu0_case_a(q: Query, dec: dr.UserDecision, pe) -> bool:
    """Whether a point is the known defect "mu0-case-A" and the package
    gave exactly the answer it gave when the benchmark was written:
    case A^ and the no-watching decision r = [theta >= theta0], x = 0."""
    p = q.params
    return (q.scheme is not dr.Scheme.SAR
            and math.isinf(p.utility.u_prime_zero)
            and q.w <= case_bound_a(p)
            and pe.case_label == dr.SurCase.A.value
            and dec.r == int(q.theta >= theta0(p)) and dec.x == 0.0)


def _point(q: Query):
    br = dr.best_response_sar if q.scheme is dr.Scheme.SAR else dr.best_response_sur
    return br(q.params, q.theta, q.w), dr.evaluate_point(q.params, q.w, q.scheme)


class PointQuery(Workload):
    name = "point_query"
    unit = "queries"
    request_is = ("one best_response_sar/sur call plus one evaluate_point call "
                  "at a (market, w, theta), asked for SAR, SUR, SURD in turn")
    MARKETS = 4 * CYCLE
    cycle = 3 * 4 * MARKETS  # schemes x reward cases x markets

    def __init__(self, seed, workdir, round_=0):
        super().__init__(seed, workdir, round_)
        self._stream = _query_stream(self.gen, np.random.default_rng([seed, 1]),
                                     self.MARKETS)
        self._warm_stream = _query_stream(
            self.warm, np.random.default_rng([seed, 1000 + round_]), 4)
        self._pooled = None  # last SUR query and its result

    def make_input(self, i):
        return next(self._stream)

    def warm_up(self):
        for _ in range(60):
            _point(next(self._warm_stream))

    def request(self, q):
        return 1, _point(q)

    def check(self, q, out):
        dec, pe = out
        values = (dec.x, pe.demand, pe.r_data, pe.ad.revenue)
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            return f"negative or non-finite output {values}"
        classify = dr.classify_sar if q.scheme is dr.Scheme.SAR else dr.classify_sur
        if pe.case_label != classify(q.params, q.w).value:
            return f"case {pe.case_label} at w={q.w!r}"
        # the analytic best response must reach the grid oracle's payoff
        _, best = dr.oracle_user_br(q.params, q.theta, q.w, q.scheme)
        mine = oracle.user_payoff(q.params, q.theta, dec.r, dec.x, q.w)
        if (best - mine) / max(abs(best), abs(mine), 1.0) > BR_PAYOFF_RTOL:
            msg = (f"{q.scheme.value} best response payoff {mine!r} below "
                   f"oracle {best!r} at w={q.w!r}, theta={q.theta!r}")
            if not _mu0_case_a(q, dec, pe):
                return msg
            self.known_defect("mu0-case-A", msg)
        if q.scheme is dr.Scheme.SUR:
            self._pooled = (q, pe)
        elif q.scheme is dr.Scheme.SURD and self._pooled:
            q_sur, pe_sur = self._pooled
            if (q_sur.params, q_sur.w) == (q.params, q.w) and (
                    pe.r_total < pe_sur.r_total * (1.0 - DOMINANCE_RTOL)):
                return f"SURD {pe.r_total!r} < SUR {pe_sur.r_total!r} at w={q.w!r}"
        return None

    @staticmethod
    def make_reference(workdir: str) -> list:
        stream = _query_stream(MarketGenerator(0, stream=7),
                               np.random.default_rng([0, 7]), 8)
        rows = []
        for _ in range(24):
            q = next(stream)
            dec, pe = _point(q)
            rows.append({"scenario": dr.params_to_dict(q.params),
                         "scheme": q.scheme.value, "w": q.w, "theta": q.theta,
                         "r": dec.r, "x": dec.x, "r_total": pe.r_total})
        return rows

    def reference(self, table):
        errors = []
        for k, row in enumerate(table[self.name]):
            q = Query(dr.params_from_dict(row["scenario"]), dr.Scheme(row["scheme"]),
                      row["w"], row["theta"])
            dec, pe = _point(q)
            x_ok = abs(dec.x - row["x"]) <= REFERENCE_RTOL * max(abs(row["x"]), 1e-3)
            if (dec.r != row["r"] or not x_ok
                    or rel_gap(pe.r_total, row["r_total"]) > REFERENCE_RTOL):
                errors.append(f"query {k}: ({dec.r}, {dec.x!r}, {pe.r_total!r}) != "
                              f"({row['r']}, {row['x']!r}, {row['r_total']!r})")
        return errors


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _oracle_solve(params: dr.MarketParams, scheme: dr.Scheme) -> dr.OperatorOutcome:
    market = dr.DiscretizedMarket.build(params, **ORACLE_GRID)
    return dr.oracle_stage1(params, scheme, market)


class Oracle(Workload):
    name = "oracle"
    unit = "oracle solves"
    request_is = ("one oracle_stage1 call, with its DiscretizedMarket.build, "
                  "for SUR and then SURD on each new market")
    cycle = 2 * CYCLE
    probe = "grid"

    def __init__(self, seed, workdir, round_=0):
        super().__init__(seed, workdir, round_)
        self._sur = None  # last SUR input and its outcome

    def make_input(self, i):
        if i % 2 == 0:
            self._market = self.gen.next()
            return self._market, dr.Scheme.SUR
        return self._market, dr.Scheme.SURD

    def warm_up(self):
        self.request((self.warm.next(), dr.Scheme.SURD))

    def request(self, inp):
        market, scheme = inp
        try:
            return 1, _oracle_solve(market.params, scheme)
        except dr.DomainError as exc:
            # the oracle's answer for a capacity below the zero-reward
            # demand of its grid, which the midpoint types can put
            # above the continuum D(0) that capacities are drawn from
            return 1, exc

    def check(self, inp, out):
        market, scheme = inp
        p = market.params
        if isinstance(out, dr.DomainError):
            # at w = 0 nobody watches; a type subscribes iff that pays
            grid = dr.DiscretizedMarket.build(p, **ORACLE_GRID)
            subs = grid.theta_grid * p.utility.u(p.Q) - p.F > 0.0
            d0 = float(p.N * p.Q * np.sum(grid.weights[subs]))
            if d0 <= p.C * (1.0 + ORACLE_CAPACITY_RTOL):
                return f"oracle {scheme.value}: {out}, but D(0)={d0!r} fits C={p.C!r}"
            self.observed["capacity below D(0) of the oracle grid"] += 1
            return None
        # feasibility on the oracle's own grid, re-evaluated from the
        # grid best responses while that helper exists
        d = out.demand
        br_grid = getattr(oracle, "_br_grid", None)
        if br_grid is not None:
            grid = dr.DiscretizedMarket.build(p, **ORACLE_GRID)
            r, x = br_grid(p, grid, out.omega_star, scheme)
            d = float(p.N * np.sum(grid.weights * (p.Q * r + out.omega_star * x)))
        over = (d - p.C) / p.C
        self._over(over)
        if over > ORACLE_CAPACITY_RTOL:
            return f"oracle {scheme.value} demand {d!r} exceeds C={p.C!r}"
        # SURD >= SUR is observed, not checked: the oracle's discrete
        # price grid does not keep that property of the continuum model
        # (see README.md, "Output checks").
        if scheme is dr.Scheme.SUR:
            self._sur = (market, out)
        elif self._sur and self._sur[0] is market:
            if out.r_total < self._sur[1].r_total * (1.0 - DOMINANCE_RTOL):
                self.observed["oracle SURD < SUR"] += 1
        return None

    @staticmethod
    def make_reference(workdir: str) -> list:
        return [{"scenario": dr.params_to_dict(m.params),
                 "r_total": [_oracle_solve(m.params, s).r_total for s in SCHEMES[1:]]}
                for m in _reference_markets(2)]

    def reference(self, table):
        errors = []
        for row in table[self.name]:
            params = dr.params_from_dict(row["scenario"])
            for s, ref in zip(SCHEMES[1:], row["r_total"]):
                got = _oracle_solve(params, s).r_total
                if rel_gap(got, ref) > REFERENCE_RTOL:
                    errors.append(f"oracle {s.value} r_total {got!r} != {ref!r}")
        return errors


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Sweep, ColdSolve, PointQuery, Oracle)
}
