"""Benchmark of the datarewards package: one workload per run.

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 13 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory. With `--trace 0` the last stdout line carries the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics
of an outside-in trace (every second request traced, the others timed
plain to give the tracing overhead). The line before it holds details:
raw wall times, sample counts, the tail percentile, the input mix,
check results and machine info. Throughput and latencies are in
reference seconds (CPU time scaled by probe.py), `setup_s` in wall
seconds. Exit code 2 means the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_ROUNDS = 3
FIRST_INPUTS = 16  # inputs generated during set-up; later ones on demand
TAIL_BEYOND = 10  # requests that must lie beyond the tail percentile
WALL_CAP = 2.0  # a run stops at this many times --seconds of wall time

# Per-layer metrics: (name, source, statistic, unit, better). Values
# are per traced request. "source" names a tracer target.
PER_LAYER = [
    ("model.integrate.calls", "model.integrate", "calls", "count", "lower"),
    ("model.integrate.self_s", "model.integrate", "self_s", "s", "lower"),
    ("model.inverse_marginal.calls", "model.inverse_marginal", "calls", "count", "lower"),
    ("model.mass.calls", "model.mass", "calls", "count", "lower"),
    ("model.load_scenario.self_s", "model.load_scenario", "self_s", "s", "lower"),
    ("users.thresholds.calls", "users.thresholds", "calls", "count", "lower"),
    ("users.thresholds.self_s", "users.thresholds", "self_s", "s", "lower"),
    ("users.solve_theta2.calls", "users.solve_theta2", "calls", "count", "lower"),
    ("users.solve_theta2.self_s", "users.solve_theta2", "self_s", "s", "lower"),
    ("users.solve_theta4.calls", "users.solve_theta4", "calls", "count", "lower"),
    ("users.solve_theta4.self_s", "users.solve_theta4", "self_s", "s", "lower"),
    ("numerics.bisect_root.calls", "numerics.bisect_root", "calls", "count", "lower"),
    ("numerics.bisect_root.evals", "numerics.bisect_root", "evals", "count", "lower"),
    ("numerics.golden_max.calls", "numerics.golden_max", "calls", "count", "lower"),
    ("numerics.golden_max.evals", "numerics.golden_max", "evals", "count", "lower"),
    ("numerics.golden_max.total_s", "numerics.golden_max", "total_s", "s", "lower"),
    ("admarket.ad_stats.calls", "admarket.ad_stats", "calls", "count", "lower"),
    ("admarket.ad_stats.self_s", "admarket.ad_stats", "self_s", "s", "lower"),
    ("admarket.ad_side.calls", "admarket.ad_side", "calls", "count", "lower"),
    ("admarket.ad_side.self_s", "admarket.ad_side", "self_s", "s", "lower"),
    ("solver.solve.calls", "solver.solve", "calls", "count", "lower"),
    ("solver.solve.self_s", "solver.solve", "self_s", "s", "lower"),
    ("solver.demand.calls", "solver.demand", "calls", "count", "lower"),
    ("solver.demand.self_s", "solver.demand", "self_s", "s", "lower"),
    ("solver.data_revenue.calls", "solver.data_revenue", "calls", "count", "lower"),
    ("solver.feasible_region.calls", "solver.feasible_region", "calls", "count", "lower"),
    ("solver.feasible_region.total_s", "solver.feasible_region", "total_s", "s", "lower"),
    ("solver.feasible_region.intervals", "solver.feasible_region", "intervals", "count", "lower"),
    ("solver.demand_inverse.calls", "solver.demand_inverse", "calls", "count", "lower"),
    ("solver.demand_inverse.total_s", "solver.demand_inverse", "total_s", "s", "lower"),
    ("oracle.oracle_stage1.self_s", "oracle.oracle_stage1", "self_s", "s", "lower"),
    ("oracle.DiscretizedMarket.build.self_s", "oracle.DiscretizedMarket.build", "self_s", "s", "lower"),
    ("oracle.oracle_user_br.calls", "oracle.oracle_user_br", "calls", "count", "lower"),
    ("oracle.oracle_user_br.self_s", "oracle.oracle_user_br", "self_s", "s", "lower"),
    ("cli.main.self_s", "cli.main", "self_s", "s", "lower"),
    ("cli.emit_records.self_s", "cli.emit_records", "self_s", "s", "lower"),
    ("bench.request.self_s", "request", "self_s", "s", "lower"),
]


def percentile_tail(lat) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND requests beyond it:
    (value, percentile, requests beyond). With too few requests the
    smallest latency is returned."""
    xs = sorted(lat)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def child_cpu_s() -> float:
    t = os.times()
    return t.children_user + t.children_system


def machine_info() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


IMPORT = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "import datarewards, datarewards.cli, datarewards.oracle, datarewards.presets")


def set_up(wl_cls, seed: int, workdir: str):
    """SETUP_ROUNDS set-ups, each a fresh interpreter that imports the
    package (with numpy and scipy), as a CLI user pays it, plus a new
    workload object that generates its first inputs and warms up on
    other markets; the last object serves the run. Returns it and the
    round times in wall seconds: the import runs in a child process,
    which the speed probe cannot follow."""
    wall = []
    for r in range(SETUP_ROUNDS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT, SRC], timeout=120, check=True)
        wl = wl_cls(seed, workdir, r)
        wl.prepare(FIRST_INPUTS)
        wall.append(perf_counter() - t0)
    return wl, wall


def run_loop(wl, seconds: float, tracer, scale):
    """Closed loop with one client until `seconds` of request time in
    reference seconds, finishing the cycle of the input mix in progress.
    Counting reference seconds keeps the number of requests, and with
    it the percentile the tail lands on, independent of the host's
    load; WALL_CAP bounds the wall-clock request time on a slow host.

    Reference seconds are the request's CPU time (all threads of this
    process) scaled by the speed probe. CPU time leaves out the
    milliseconds for which the host takes the virtual CPU away, which
    otherwise make up the slowest requests of a run.

    Each output is checked right after its request, outside the timed
    span, and dropped. Per-request records are kept in compact arrays
    so that the run's own memory stays small next to the program's.
    Returns (wall latencies, reference latencies, work units, traced
    flags, failures by request index).
    """
    lat, ref, units, traced = array("d"), array("d"), array("q"), array("b")
    failures: dict[int, str] = {}
    busy = busy_ref = 0.0
    i = 0
    while (busy_ref < seconds and busy < WALL_CAP * seconds) or i % wl.cycle:
        inp = wl.next_input()
        on = tracer is not None and i % 2 == 1
        before = scale.probe()
        if on:
            tracer.install()
            tracer.begin_request(i)
        c0, t0 = process_time(), perf_counter()
        try:
            n, out = wl.request(inp)
            err = None
        except Exception as exc:  # a failed request is counted, not fatal
            n, out, err = 0, None, f"{type(exc).__name__}: {exc}"
        dt, cpu = perf_counter() - t0, process_time() - c0
        if on:
            tracer.end_request()
            tracer.uninstall()
        ref.append(scale.scaled(cpu, before, scale.probe()))
        busy_ref += ref[-1]
        if err is None:
            err = wl.check(inp, out)
        busy += dt
        lat.append(dt)
        units.append(n)
        traced.append(on)
        if err:
            failures[i] = err
        i += 1
    return lat, ref, units, traced, failures


def timing(lat, units) -> dict:
    tail, pct, beyond = percentile_tail(lat)
    return {"throughput_per_s": sum(units) / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail, "latency_tail_percentile": pct,
            "latency_tail_beyond": beyond, "latency_samples": len(lat)}


def per_layer(tracer, ref, units, traced, overshoot) -> dict:
    """Per-layer metrics of the traced requests (raw wall seconds),
    and the tracing overhead from the interleaved plain requests."""
    def tput(flag):
        busy = sum(d for d, on in zip(ref, traced) if on == flag)
        done = sum(n for n, on in zip(units, traced) if on == flag)
        return done / busy if busy else 0.0

    n = max(tracer.requests(), 1)
    tot = tracer.totals()
    out = {name: (tot[src][stat] / n, unit) for name, src, stat, unit, _ in PER_LAYER}
    evals = tot["solver.data_revenue"]["calls"]
    out["users.thresholds.per_eval"] = (
        tot["users.thresholds"]["calls"] / evals if evals else 0.0, "ratio")
    for src in sorted({t.metric for t in tracer.targets}):
        out[f"{src}.errors"] = (tot[src]["errors"] / n, "count")
    traced_tput, plain_tput = tput(True), tput(False)
    out["trace.throughput_traced_per_s"] = (traced_tput, "1/s")
    out["trace.throughput_untraced_per_s"] = (plain_tput, "1/s")
    out["trace.overhead_ratio"] = (
        plain_tput / traced_tput if traced_tput else 0.0, "ratio")
    out["checks.capacity_overshoot_max_rel"] = (
        overshoot if overshoot is not None else 0.0, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "datarewards", "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import datarewards
    import datarewards.cli  # noqa: F401
    import datarewards.oracle  # noqa: F401
    import datarewards.presets  # noqa: F401
    import_s = perf_counter() - t0
    if not os.path.abspath(datarewards.__file__).startswith(SRC + os.sep):
        print(f"error: imported {datarewards.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from probe import SpeedScale
    from tracer import Tracer
    from workloads import KNOWN_DEFECTS, WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2

    scale = SpeedScale(WORKLOADS[args.workload].probe)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl, rounds = set_up(WORKLOADS[args.workload], args.seed, workdir)
        tracer = Tracer() if args.trace else None
        child0 = child_cpu_s()
        lat, ref, units, traced, failures = run_loop(wl, args.seconds, tracer, scale)
        # request times count this process only; work moved to child
        # processes would go unmeasured, so such a run is not valid
        offloaded = child_cpu_s() > child0 or bool(multiprocessing.active_children())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref_errors = wl.reference(load_reference())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(lat)
    n_failed = len(failures)
    n_known = sum(wl.known.values())
    scaled = timing(ref, units)
    wall = timing(lat, units)
    setup_s = statistics.median(rounds)
    probes = sorted(scale.samples)
    detail = {
        "workload": args.workload, "seed": args.seed, "request": wl.request_is,
        "unit": wl.unit, "requests": attempted, "work_units": sum(units),
        "reference_seconds": scaled,
        "wall_seconds": wall,
        "setup": {"in_process_import_s": import_s, "rounds_s": rounds},
        "probe_s": {"kind": scale.kind, "reference": scale.reference_s,
                    "samples": len(probes),
                    "min": probes[0], "median": statistics.median(probes),
                    "max": probes[-1]},
        "inputs": wl.stats(),
        "capacity_overshoot_max_rel": wl.overshoot,
        "failures": {str(i): m for i, m in sorted(failures.items())[:10]},
        "known_defects": {"requests": dict(wl.known),
                          "what": {k: KNOWN_DEFECTS[k] for k in wl.known},
                          "examples": wl.known_examples},
        "observed": dict(wl.observed),
        "reference_errors": ref_errors[:10],
        "child_processes_used": offloaded,
        "wait_time": "absent: the program has no queues",
        "machine": machine_info(),
    }

    if args.trace:
        values = per_layer(tracer, ref, units, traced, wl.overshoot)
        detail["trace"] = {"traced_requests": tracer.requests(),
                           "spans": len(tracer.spans), "missing": tracer.missing}
    else:
        values = {
            "throughput_per_s": (scaled["throughput_per_s"], "1/s"),
            "latency_p50_s": (scaled["latency_p50_s"], "s"),
            "latency_tail_s": (scaled["latency_tail_s"], "s"),
            "success_rate": (1.0 - (n_failed + n_known) / attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": n_failed == 0 and not ref_errors and not offloaded,
        "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
