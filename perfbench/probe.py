"""Machine-speed probe for the benchmark's throughput and latencies.

On a shared host the same request can take 1.7x longer for tens of
seconds at a time when other tenants load the physical cores (measured
on a shared 2-core x86_64 virtual machine: a fixed SAR solve switched
between about 7 ms and 12 ms in 3 s windows). A run of 10 to 30 s
cannot average that out, so throughput and latencies are rescaled to a
fixed machine speed.

The probe is a fixed kernel owned by the benchmark that does the same
kind of work as the workload's hot loop but shares no code with the
package, so a change to the package does not move it. Load slows
interpreted code and numpy code by different factors, so there are two
kernels: "quad" (scipy `quad` on a Python integrand that goes through a
closure, plain functions and methods of frozen dataclasses, like the
analytic solver) and "grid" (numpy payoff tables and row argmaxes, like
the brute-force oracle). The probe is timed between requests, at most
every `INTERVAL_S`, and a request's wall time is scaled by the kernel's
reference time over the mean of the probe times just before and just
after it. Over 100 s on that machine, the spread of 5 s block means
fell from 28 % to 4 % for a fixed SAR and SUR solve ("quad") and from
16 % to 4 % for a fixed oracle solve ("grid"); the "quad" kernel left
the oracle at 13 %. Raw wall times are reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.integrate import quad

INTERVAL_S = 0.05
REPEATS = 2


@dataclass(frozen=True)
class _Utility:
    alpha: float

    def inverse_marginal(self, s: float) -> float:
        if s <= 0.0:
            raise ValueError(s)
        return s ** (-1.0 / self.alpha) - 0.5


@dataclass(frozen=True)
class _Types:
    hi: float

    def pdf(self, t: float) -> float:
        return 1.0 / self.hi if 0.0 <= t <= self.hi else 0.0


@dataclass(frozen=True)
class _Market:
    utility: _Utility
    types: _Types
    phi: float
    q: float


def _level(m: _Market, t: float, w: float) -> float:
    if t <= 0.0:
        return 0.0
    return max(m.utility.inverse_marginal(m.phi / (w * t)), 0.0)


def _integral(m: _Market, f, lo: float, hi: float) -> float:
    def g(t: float) -> float:
        v = f(t) * m.types.pdf(t)
        if not math.isfinite(v):
            raise ValueError(t)
        return v
    return quad(g, lo, hi, epsrel=1e-9, epsabs=1e-12, limit=200)[0]


def _quad_kernel() -> float:
    s = 0.0
    for k in range(2):
        m = _Market(_Utility(0.6 + 0.02 * k), _Types(150.0), 0.3, 0.8)
        w = 0.01 + 0.001 * k
        s += _integral(m, lambda t: max((_level(m, t, w) - m.q) / w, 0.0),
                       0.25 * m.phi / w, m.types.hi)
    return s


_THETA = np.linspace(0.5, 150.0, 200)
_X = np.linspace(0.0, 50.0, 201)


def _grid_kernel() -> float:
    s = 0.0
    rows = np.arange(len(_THETA))
    for k in range(4):
        r = k % 2
        pay = (_THETA[:, None] * np.log1p(0.8 * r + 0.01 * _X)[None, :]
               - 30.0 * r - 0.3 * _X[None, :])
        s += float(np.sum(pay[rows, np.argmax(pay, axis=1)]))
    return s


# kind -> (kernel, its time on the reference machine: the 2-core x86_64
# virtual machine with Python 3.11, numpy 2.4 and scipy 1.17, unloaded);
# scaled times are seconds at that speed
KERNELS = {"quad": (_quad_kernel, 1.0e-3), "grid": (_grid_kernel, 8.0e-4)}


def probe_seconds(kind: str) -> float:
    """Fastest of REPEATS timings of the kernel (filters interrupts)."""
    kernel = KERNELS[kind][0]
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class SpeedScale:
    """Converts wall seconds into reference seconds."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.reference_s = KERNELS[kind][1]
        KERNELS[kind][0]()  # the first call pays one-time costs
        self.samples: list[float] = []
        self._at = -math.inf
        self._last = self.reference_s

    def probe(self) -> float:
        """Probe time now, re-measured at most every INTERVAL_S."""
        if perf_counter() - self._at >= INTERVAL_S:
            self._last = probe_seconds(self.kind)
            self.samples.append(self._last)
            self._at = perf_counter()
        return self._last

    def scaled(self, wall_s: float, before: float, after: float) -> float:
        """`wall_s` measured between probe times `before` and `after`."""
        return wall_s * self.reference_s / (0.5 * (before + after))
