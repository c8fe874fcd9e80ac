"""Outside-in tracer: spans and counters around the package's public
functions, installed by rebinding names, without editing the package.

A traced function is replaced by a wrapper in every module namespace
of the package that binds it (`solver` and `admarket` import
`integrate` and `thresholds` by name, so patching `model` alone would
miss their calls). Methods and class methods are patched on their
class. The wrapper opens a span with the current request id and the
enclosing span as parent; spans stay in memory until the run ends.

Three hot leaves do not get spans of their own. `integrate`, `mass`
and the utilities' `inverse_marginal` run up to a million times per
request, so their calls (and, for `integrate`, their time) are added
to the enclosing span instead. A span's self time is its duration
minus the time of its child spans and of its timed leaves.

A target that no longer exists (say, after a refactor removes a
wrapper function) is reported in `missing` and left out; the run
goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter

SPAN = "span"  # own span; counts calls, errors, self and total time
LEAF_TIMED = "leaf_timed"  # folded into the parent: calls, errors, time
LEAF_COUNT = "leaf_count"  # folded into the parent: calls, errors


@dataclass(frozen=True)
class Target:
    metric: str  # "<layer>.<fn>", the prefix of the reported metrics
    module: str  # module of the package that defines it
    attr: str  # "name" or "Class.name"
    kind: str = SPAN
    evals: bool = False  # count calls of the callable passed as first argument
    intervals: bool = False  # count `.intervals` of the return value


TARGETS: tuple[Target, ...] = (
    Target("model.integrate", "model", "integrate", LEAF_TIMED),
    Target("model.mass", "model", "mass", LEAF_COUNT),
    Target("model.inverse_marginal", "model", "LogUtility.inverse_marginal", LEAF_COUNT),
    Target("model.inverse_marginal", "model", "AlphaFairUtility.inverse_marginal", LEAF_COUNT),
    Target("model.inverse_marginal", "model", "ExpUtility.inverse_marginal", LEAF_COUNT),
    Target("model.load_scenario", "model", "load_scenario"),
    Target("users.thresholds", "users", "thresholds"),
    Target("users.solve_theta2", "users", "solve_theta2"),
    Target("users.solve_theta4", "users", "solve_theta4"),
    Target("users.best_response_sar", "users", "best_response_sar"),
    Target("users.best_response_sur", "users", "best_response_sur"),
    Target("numerics.bisect_root", "numerics", "bisect_root", evals=True),
    Target("numerics.golden_max", "numerics", "golden_max", evals=True),
    Target("admarket.ad_stats", "admarket", "ad_stats"),
    Target("admarket.ad_side", "admarket", "ad_side"),
    Target("solver.solve", "solver", "solve"),
    Target("solver.evaluate_point", "solver", "evaluate_point"),
    Target("solver.demand", "solver", "demand"),
    Target("solver.data_revenue", "solver", "data_revenue"),
    Target("solver.feasible_region", "solver", "feasible_region", intervals=True),
    Target("solver.demand_inverse", "solver", "demand_inverse"),
    Target("oracle.oracle_stage1", "oracle", "oracle_stage1"),
    Target("oracle.DiscretizedMarket.build", "oracle", "DiscretizedMarket.build"),
    Target("oracle.oracle_user_br", "oracle", "oracle_user_br"),
    Target("cli.main", "cli", "main"),
    Target("cli.emit_records", "cli", "emit_records"),
)

PACKAGE = "datarewards"


class Span:
    __slots__ = ("name", "id", "parent", "request", "start", "end",
                 "child_s", "errors", "evals", "intervals", "leaves")

    def __init__(self, name: str, id: int, parent: int, request: int):
        self.name = name
        self.id = id
        self.parent = parent
        self.request = request
        self.start = perf_counter()
        self.end = 0.0
        self.child_s = 0.0
        self.errors = 0
        self.evals = 0
        self.intervals = 0
        self.leaves: dict[str, list] | None = None  # name -> [calls, errors, s]

    def leaf(self, name: str) -> list:
        if self.leaves is None:
            self.leaves = {}
        rec = self.leaves.get(name)
        if rec is None:
            rec = self.leaves[name] = [0, 0, 0.0]
        return rec


class Tracer:
    """Installs wrappers on `install()` and removes them on `uninstall()`.

    Spans are recorded only between `begin_request` and `end_request`;
    a wrapped call outside a request runs untraced.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._request = -1
        self._wrappers = self._build()

    # -- requests -------------------------------------------------------

    def begin_request(self, request: int) -> None:
        self._request = request
        self._stack = [self._open("request")]

    def end_request(self) -> None:
        root = self._stack.pop()
        self._close(root)
        self._stack = []
        self._request = -1

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        self._next_id += 1
        span = Span(name, self._next_id, parent, self._request)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start
        self.spans.append(span)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, target: Target):
        tracer = self
        name = target.metric

        if target.kind == LEAF_COUNT:
            @functools.wraps(fn)
            def leaf_count(*args, **kwargs):
                stack = tracer._stack
                if not stack:
                    return fn(*args, **kwargs)
                rec = stack[-1].leaf(name)
                rec[0] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    rec[1] += 1
                    raise
            return leaf_count

        if target.kind == LEAF_TIMED:
            @functools.wraps(fn)
            def leaf_timed(*args, **kwargs):
                stack = tracer._stack
                if not stack:
                    return fn(*args, **kwargs)
                parent = stack[-1]
                rec = parent.leaf(name)
                rec[0] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    rec[1] += 1
                    raise
                finally:
                    dt = perf_counter() - t0
                    rec[2] += dt
                    parent.child_s += dt
            return leaf_timed

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            s = tracer._open(name)
            if target.evals and args:
                inner = args[0]

                def counted(*a, **k):
                    s.evals += 1
                    return inner(*a, **k)

                args = (counted,) + args[1:]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.errors += 1
                raise
            finally:
                tracer._close(s)
            if target.intervals:
                s.intervals = len(getattr(result, "intervals", ()))
            return result
        return span

    def _build(self) -> list[tuple[object, str, object, object]]:
        """(owner, attr, original, wrapper) for every binding."""
        out = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for t in self.targets:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{t.module}")
                owner = mod
                *path, attr = t.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            if path:
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, t))
                else:
                    wrapper = self._wrap(raw, t)
                out.append((owner, attr, raw, wrapper))
                continue
            wrapper = self._wrap(raw, t)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        out.append((m, key, raw, wrapper))
        return out

    def install(self) -> None:
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in self._wrappers:
            setattr(owner, attr, raw)

    # -- aggregation ----------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per target: calls, errors, evals, intervals, self_s, total_s,
        summed over every recorded span (leaves over their parents)."""
        out: dict[str, dict[str, float]] = {}

        def rec(name: str) -> dict[str, float]:
            r = out.get(name)
            if r is None:
                r = out[name] = dict(calls=0, errors=0, evals=0, intervals=0,
                                     self_s=0.0, total_s=0.0)
            return r

        for t in self.targets:
            rec(t.metric)
        for s in self.spans:
            dur = s.end - s.start
            r = rec(s.name)
            r["calls"] += 1
            r["errors"] += s.errors
            r["evals"] += s.evals
            r["intervals"] += s.intervals
            r["self_s"] += dur - s.child_s
            r["total_s"] += dur
            if s.leaves:
                for leaf, (calls, errors, secs) in s.leaves.items():
                    lr = rec(leaf)
                    lr["calls"] += calls
                    lr["errors"] += errors
                    lr["self_s"] += secs
                    lr["total_s"] += secs
        return out

    def requests(self) -> int:
        return sum(1 for s in self.spans if s.name == "request")
