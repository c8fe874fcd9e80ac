"""Check the outside-in tracer against cProfile, once.

    python3 perfbench/validate_tracer.py

1. Runs the first cold_solve request of seed 0 twice, once under
   cProfile and once traced (the unaware solver's market cache is
   cleared in between), and requires every traced call count, and the
   evaluations counted for bisect_root and golden_max, to equal
   cProfile's exactly.
2. Repeats the profile that ROADMAP.md quotes (a fig7c SUR solve at
   C = 2.07e7, default SolverConfig) and reports quad calls, threshold
   computations per stage-II evaluation and the share of time in
   quad, plus the integrate (quad) calls per solve of every preset at the middle
   of its capacity range.

Prints one JSON object; exits 1 if a count differs.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import datarewards as dr  # noqa: E402
from datarewards import solver  # noqa: E402
from datarewards.presets import PRESETS  # noqa: E402

from tracer import TARGETS, Tracer  # noqa: E402
from workloads import ColdSolve, _solve_three  # noqa: E402


def _clear_cache() -> None:
    clear = getattr(getattr(solver, "_solve_unaware_pair", None), "cache_clear", None)
    if clear is not None:
        clear()


def _code_keys(target) -> list[tuple]:
    mod = sys.modules[f"datarewards.{target.module}"]
    *path, attr = target.attr.split(".")
    owner = mod
    for part in path:
        owner = getattr(owner, part)
    fn = owner.__dict__[attr] if path else getattr(owner, attr)
    fn = getattr(fn, "__func__", fn)
    code = fn.__code__
    return [(code.co_filename, code.co_firstlineno, code.co_name)]


def _profile(call) -> tuple[pstats.Stats, float]:
    prof = cProfile.Profile()
    t0 = perf_counter()
    prof.enable()
    call()
    prof.disable()
    return pstats.Stats(prof), perf_counter() - t0


def _calls(stats: pstats.Stats, keys) -> int:
    return sum(stats.stats[k][1] for k in keys if k in stats.stats)


def _callee_calls(stats: pstats.Stats, caller_keys) -> int:
    """Calls of Python functions made directly from the given callers."""
    total = 0
    for key, (_, _, _, _, callers) in stats.stats.items():
        if key[0] == "~":
            continue
        for ck in caller_keys:
            if ck in callers:
                c = callers[ck]
                total += c[1] if isinstance(c, tuple) else c
    return total


def _quad_key(stats: pstats.Stats):
    return [k for k in stats.stats if k[2] == "quad" and "quadpack" in k[0]]


def _traced(call) -> tuple[Tracer, float]:
    tracer = Tracer()
    tracer.install()
    tracer.begin_request(0)
    t0 = perf_counter()
    try:
        call()
    finally:
        tracer.end_request()
        tracer.uninstall()
    return tracer, perf_counter() - t0


def compare_counts() -> dict:
    market = ColdSolve(0, HERE).next_input()
    call = lambda: _solve_three(market.params)  # noqa: E731
    _clear_cache()
    stats, _ = _profile(call)
    _clear_cache()
    tracer, _ = _traced(call)
    tot = tracer.totals()
    rows, ok = {}, True
    seen = set()
    for t in TARGETS:
        if t.metric in seen:
            continue
        seen.add(t.metric)
        keys = [k for u in TARGETS if u.metric == t.metric for k in _code_keys(u)]
        row = {"traced": tot[t.metric]["calls"], "cprofile": _calls(stats, keys)}
        if t.evals:
            row["traced_evals"] = tot[t.metric]["evals"]
            row["cprofile_evals"] = _callee_calls(stats, keys)
        row["equal"] = (row["traced"] == row["cprofile"]
                        and row.get("traced_evals") == row.get("cprofile_evals"))
        ok &= row["equal"]
        rows[t.metric] = row
    return {"request": {"family": market.family, "preset": market.preset},
            "counts": rows, "all_equal": ok}


def roadmap_profile() -> dict:
    params = PRESETS["fig7c"].params(2.07e7)
    call = lambda: dr.solve(params, dr.Scheme.SUR)  # noqa: E731
    _clear_cache()
    stats, wall = _profile(call)
    qk = _quad_key(stats)
    quad_cum = sum(stats.stats[k][3] for k in qk)
    _clear_cache()
    tracer, traced_wall = _traced(call)
    tot = tracer.totals()
    evals = tot["solver.data_revenue"]["calls"]
    out = {
        "fig7c_sur_2.07e7": {
            "quad_calls": _calls(stats, qk),
            "integrate_calls": tot["model.integrate"]["calls"],
            "thresholds_per_eval": tot["users.thresholds"]["calls"] / evals,
            "quad_share_cprofile": quad_cum / wall,
            "integrate_share_traced": tot["model.integrate"]["total_s"] / traced_wall,
        },
        "integrate_calls_per_solve": {},
    }
    for name, pre in PRESETS.items():
        top = pre.sweep_to if pre.sweep_to is not None else pre.fixed_c
        p = pre.params(0.5 * (pre.sweep_from() + top))
        row = {}
        for scheme in (dr.Scheme.SAR, dr.Scheme.SUR):
            _clear_cache()
            tr, _ = _traced(lambda: dr.solve(p, scheme))  # noqa: B023
            row[scheme.value] = tr.totals()["model.integrate"]["calls"]
        out["integrate_calls_per_solve"][name] = row
    return out


def main() -> int:
    result = {"cprofile_match": compare_counts(), "roadmap": roadmap_profile()}
    print(json.dumps(result, indent=1))
    return 0 if result["cprofile_match"]["all_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
