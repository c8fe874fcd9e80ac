"""The stage-I engine `solve_capacities` against one-capacity solves.

The engine solves a block of capacities in shared array passes; its
outcomes must equal those of solving each capacity on its own, in
every field and bit for bit.

Needs numpy and pytest only, so it also runs where scipy is missing.
"""

import numpy as np
import pytest

from datarewards import (
    Scheme, SolverConfig, demand, save_scenario, solve, solve_capacities,
)
from datarewards import solver as solver_mod
from datarewards.cli import main
from datarewards.presets import PRESETS
from datarewards.solver import _demand_at, _omega_cap

CONFIG = SolverConfig(grid_points=80, scan_points=60)
SCHEMES = (Scheme.SAR, Scheme.SUR, Scheme.SURD)


def _omega_cap_change(params) -> float:
    """A capacity at which the end of the unaware search doubles: half
    the demand at the end chosen for the capacity D(0)."""
    sur_demand = _demand_at(params, Scheme.SUR)
    cap = _omega_cap(params, params.baseline_demand(), sur_demand)
    return 0.5 * demand(params, cap, Scheme.SUR)


def _capacities(preset) -> list[float]:
    params = preset.params()
    d0 = params.baseline_demand()
    c_cap = _omega_cap_change(params)
    caps = [d0, d0 * (1.0 + 1e-9), c_cap * (1.0 - 1e-9), c_cap * (1.0 + 1e-9)]
    if preset.sweep_to is not None:
        caps += list(np.linspace(preset.sweep_from(), preset.sweep_to, 5))
    else:
        caps.append(params.C)
    return sorted(float(c) for c in caps)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_engine_equals_one_capacity_solves(name):
    params = PRESETS[name].params()
    caps = _capacities(PRESETS[name])
    sur_demand = _demand_at(params, Scheme.SUR)
    ends = {_omega_cap(params, c, sur_demand) for c in caps}
    assert len(ends) >= 2  # the capacities cross a change of the search end
    together = solve_capacities(params, caps, SCHEMES, CONFIG)
    alone = [solve_capacities(params, [c], SCHEMES, CONFIG)[0] for c in caps]
    assert together == alone


def test_engine_keeps_the_order_of_the_schemes():
    params = PRESETS["fig5a"].params(1.3e7)
    got = solve_capacities(params, [1.3e7], (Scheme.SURD, Scheme.SAR), CONFIG)
    want = [solve(params, Scheme.SURD, CONFIG), solve(params, Scheme.SAR, CONFIG)]
    assert got == [want]
    assert solve_capacities(params, [], SCHEMES, CONFIG) == []


def test_sweep_passes_hold_a_bounded_number_of_rewards(monkeypatch, capsys, tmp_path):
    # 300 capacities at --grid 150 need about 45 000 aware grid rewards:
    # they are spread over passes of at most _PASS_REWARDS rewards
    params = PRESETS["fig5a"].params()
    path = str(tmp_path / "fig5a.json")
    save_scenario(params, path)
    sizes: list[int] = []
    evaluate = solver_mod.evaluate_point

    def recorded(p, w, scheme):
        if isinstance(w, np.ndarray):
            sizes.append(len(w))
        return evaluate(p, w, scheme)

    monkeypatch.setattr(solver_mod, "evaluate_point", recorded)
    argv = ["sweep", "--scenario", path, "--from", repr(params.baseline_demand()),
            "--to", "2.2e7", "--steps", "300", "--grid", "150"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 300 * 3
    assert max(sizes) <= solver_mod._PASS_REWARDS
    assert sum(sizes) > 2 * solver_mod._PASS_REWARDS  # several passes were needed


# ---------------------------------------------------------------------------
# The corner rule: end cells where revenue rises into the end are not refined
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", [SolverConfig(50, 50), SolverConfig(150, 120)])
def test_corner_rule_leaves_every_preset_sweep_as_refining_does(config, monkeypatch):
    def sweep():
        out = []
        for preset in PRESETS.values():
            params = preset.params()
            caps = ([float(c) for c in np.linspace(
                preset.sweep_from(), preset.sweep_to, preset.sweep_steps)]
                if preset.sweep_to is not None else [params.C])
            out.append(solve_capacities(params, caps, SCHEMES, config))
        return out

    shipped = sweep()
    monkeypatch.setattr(solver_mod, "_rises_into_end", lambda *args: False)
    assert shipped == sweep()


def _evaluation(revenue, w) -> solver_mod.PointEval:
    """A stage-II evaluation at a reward or a reward array whose only
    revenue is revenue(w), as `_family_optima` reads it."""
    array, zero = isinstance(w, np.ndarray), 0.0 * w
    return solver_mod.PointEval(
        w=w, case_label=np.full(w.shape, "A") if array else "A", demand=zero,
        r_data=revenue(w), theta4=np.full(w.shape, np.nan) if array else None,
        ad=solver_mod.AdSideOutcome(zero, None, None, None),
    )


@pytest.mark.parametrize("revenue,peak,refined", [
    (lambda w: w, 1.0, False),  # rises into the right end: a corner optimum
    (lambda w: -w, 0.0, False),  # rises into the left end
    (lambda w: -(w - 0.97) ** 2, 0.97, True),  # peaks inside the right end cell
    (lambda w: -(w - 0.03) ** 2, 0.03, True),  # peaks inside the left end cell
    (lambda w: 0.0 * w, 0.0, True),  # flat: a tie refines, and keeps the end
])
def test_an_end_cell_is_refined_only_where_revenue_falls_into_the_end(
        revenue, peak, refined, monkeypatch):
    calls = []
    golden = solver_mod.golden_max

    def counted(f, a, b, rel_tol):
        calls.append((a, b))
        return golden(f, a, b, rel_tol)

    monkeypatch.setattr(solver_mod, "golden_max", counted)
    grid = np.linspace(0.0, 1.0, 11)
    (out,) = solver_mod._family_optima(
        PRESETS["fig5a"].params(), (Scheme.SAR,), [grid],
        [_evaluation(revenue, grid)], lambda w: _evaluation(revenue, w))
    assert len(calls) == refined
    assert out.omega_star == pytest.approx(peak, abs=1e-6)
