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
