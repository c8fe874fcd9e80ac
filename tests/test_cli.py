import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from datarewards import (
    DomainError, InternalConsistencyError, Scheme, SolverConfig, UnboundedSearchError,
    save_scenario, solve,
)
from datarewards.cli import fmt_value, main
from datarewards.presets import PRESETS


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("scenarios") / "fig5a.json"
    save_scenario(PRESETS["fig5a"].params(1.6e7), str(path))
    return str(path)


def _run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def test_fmt_value_cases():
    assert fmt_value(None) == ""
    assert fmt_value(True) == "true"
    assert fmt_value(False) == "false"
    assert fmt_value(0.0) == "0"
    assert fmt_value(0.0123456789012) == "0.0123456789"
    assert fmt_value(2.5e7) == "2.500000000e+07"
    assert fmt_value("SAR") == "SAR"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_csv(capsys, scenario_file):
    code, out, _ = _run(
        capsys,
        ["solve", "--scenario", scenario_file, "--scheme", "sar", "--grid", "150"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "scheme,omega_star,p_star,p_star_I,p_star_II,"
        "r_data,r_ad,r_total,demand,case,capacity_binding"
    )
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "SAR"
    assert row[-1] in ("true", "false")


def test_solve_json(capsys, scenario_file):
    code, out, _ = _run(
        capsys,
        ["solve", "--scenario", scenario_file, "--scheme", "surd",
         "--grid", "150", "--format", "json"],
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["scheme"] == "SURD"
    assert records[0]["r_total"] == pytest.approx(
        records[0]["r_data"] + records[0]["r_ad"]
    )


def test_solve_deterministic(capsys, scenario_file):
    argv = ["solve", "--scenario", scenario_file, "--scheme", "sur", "--grid", "150"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


# ---------------------------------------------------------------------------
# sweep and reproduce
# ---------------------------------------------------------------------------


def test_sweep_row_order(capsys, scenario_file):
    code, out, _ = _run(
        capsys,
        ["sweep", "--scenario", scenario_file, "--from", "1.2e7",
         "--to", "1.6e7", "--steps", "2", "--grid", "120"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("C,scheme,")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6  # 2 capacities x 3 schemes
    assert [r[1] for r in rows] == ["SAR", "SUR", "SURD"] * 2
    caps = [float(r[0]) for r in rows]
    assert caps == sorted(caps)


def test_sweep_scheme_filter(capsys, scenario_file):
    code, out, _ = _run(
        capsys,
        ["sweep", "--scenario", scenario_file, "--from", "1.2e7",
         "--to", "1.6e7", "--steps", "2", "--grid", "120",
         "--scheme", "surd", "--scheme", "sar"],
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    # canonical scheme order regardless of flag order
    assert [r[1] for r in rows] == ["SAR", "SURD"] * 2


def test_reproduce_fixed_capacity_preset(capsys):
    code, out, _ = _run(capsys, ["reproduce", "appK", "--grid", "150"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["SAR", "SUR", "SURD"]
    assert len({r[0] for r in rows}) == 1  # single capacity


def test_reproduce_scalar_demand_budget(monkeypatch, capsys):
    # the feasible-boundary and D^-1(C) bisections decide most midpoints
    # from earlier evaluations: fig5a at --grid 150 took 2 062 scalar
    # demand calls when every midpoint was evaluated, and takes 931 now
    import datarewards.solver as solver_mod

    orig, calls = solver_mod.demand, []

    def counted(*args):
        calls.append(args[1])
        return orig(*args)

    monkeypatch.setattr(solver_mod, "demand", counted)
    code, _, _ = _run(capsys, ["reproduce", "fig5a", "--grid", "150"])
    assert code == 0
    assert len(calls) <= 1000


def test_argparse_error_leaves_the_parser_reusable(capsys):
    argv = ["reproduce", "appK", "--grid", "150"]
    _, first, _ = _run(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "appK", "--grid", "many"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    _, second, _ = _run(capsys, argv)
    assert second == first


def test_reproduce_unknown_figure(capsys):
    code, _, err = _run(capsys, ["reproduce", "fig99"])
    assert code == 4
    assert "unknown figure" in err


@pytest.mark.parametrize("command", [
    ["solve", "--scheme", "surd", "--grid", "60"],
    ["sweep", "--from", "1.2e7", "--to", "1.6e7", "--steps", "2", "--grid", "60",
     "--scheme", "sur"],
    ["reproduce", "appK", "--grid", "60"],
    ["thresholds", "--scheme", "sur", "--from", "0.001", "--to", "0.01", "--steps", "3"],
    ["thresholds", "--scheme", "sar", "--responses-at", "0.009", "--steps", "3"],
])
def test_csv_header_is_the_record_keys(capsys, scenario_file, command):
    # each record states its own columns: the CSV header is its keys
    argv = command if command[0] == "reproduce" else [
        *command, "--scenario", scenario_file]
    _, csv_out, _ = _run(capsys, argv)
    _, json_out, _ = _run(capsys, [*argv, "--format", "json"])
    records = json.loads(json_out)
    lines = csv_out.splitlines()
    assert lines[0] == ",".join(records[0])
    assert len(lines) == len(records) + 1


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_thresholds_dump(capsys, scenario_file):
    code, out, _ = _run(
        capsys,
        ["thresholds", "--scenario", scenario_file, "--scheme", "sur",
         "--from", "0.001", "--to", "0.01", "--steps", "5"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,theta0,theta1,theta2,theta3,theta4"
    assert len(lines) == 6


def test_responses_dump(capsys, scenario_file):
    code, out, _ = _run(
        capsys,
        ["thresholds", "--scenario", scenario_file, "--scheme", "sar",
         "--responses-at", "0.009", "--steps", "10"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,r,x"
    assert len(lines) == 11
    rows = [line.split(",") for line in lines[1:]]
    assert {r[1] for r in rows} <= {"0", "1"}


@pytest.mark.parametrize("steps", ["-1", "0", "100001"])
@pytest.mark.parametrize("mode", [["--from", "0.001", "--to", "0.01"],
                                  ["--responses-at", "0.009"]])
def test_thresholds_steps_out_of_range_exit_4(capsys, scenario_file, mode, steps):
    # -1 ended in a numpy traceback, 0 printed a header alone
    code, out, err = _run(
        capsys,
        ["thresholds", "--scenario", scenario_file, "--scheme", "sur",
         *mode, "--steps", steps],
    )
    assert code == 4
    assert out == ""
    assert "steps must lie in [1, 100000]" in err


def test_thresholds_has_no_grid_flag(capsys, scenario_file):
    # the dump never read it, and accepted any value
    with pytest.raises(SystemExit) as exc:
        main(["thresholds", "--scenario", scenario_file, "--scheme", "sur",
              "--from", "0.001", "--to", "0.01", "--steps", "5", "--grid", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 5" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["sar", "sur"])
@pytest.mark.parametrize("bad", [["--from", "-0.01", "--to", "0.01"],
                                 ["--responses-at", "nan"]])
def test_thresholds_invalid_reward_exit_4(capsys, scenario_file, scheme, bad):
    code, out, err = _run(
        capsys,
        ["thresholds", "--scenario", scenario_file, "--scheme", scheme,
         *bad, "--steps", "3"],
    )
    assert code == 4
    assert out == ""
    assert "reward" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_missing_file_exit_2(capsys):
    code, _, err = _run(
        capsys, ["solve", "--scenario", "/nonexistent/x.json", "--scheme", "sar"]
    )
    assert code == 2
    assert "not found" in err


def test_parse_error_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = _run(capsys, ["solve", "--scenario", str(bad), "--scheme", "sar"])
    assert code == 3
    assert "cannot parse" in err


def test_undecodable_file_exit_3(capsys, tmp_path):
    bad = tmp_path / "binary.json"
    bad.write_bytes(b"\xff\xfe{")
    code, _, err = _run(capsys, ["solve", "--scenario", str(bad), "--scheme", "sar"])
    assert code == 3
    assert "cannot parse" in err


@pytest.mark.parametrize("value", ["abc", "cannot parse"])
def test_malformed_value_exit_4_whatever_its_text(capsys, tmp_path, scenario_file, value):
    # the exit code follows the error's type, not words in its message
    doc = json.loads(open(scenario_file).read())
    doc["N"] = value
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["solve", "--scenario", str(bad), "--scheme", "sar"])
    assert code == 4
    assert "malformed scenario value" in err


@pytest.mark.parametrize("key", ["utility", "distribution"])
@pytest.mark.parametrize("section", ["uniform", 155.0, None, ["uniform"]])
def test_section_not_an_object_exit_4(capsys, tmp_path, scenario_file, key, section):
    # an AttributeError used to escape main with a traceback
    doc = json.loads(open(scenario_file).read())
    doc[key] = section
    bad = tmp_path / "section.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["solve", "--scenario", str(bad), "--scheme", "sar"])
    assert code == 4
    assert out == ""
    assert f"{key} must be a JSON object" in err and "Traceback" not in err


def test_invalid_scenario_exit_4(capsys, tmp_path, scenario_file):
    doc = json.loads(open(scenario_file).read())
    doc["C"] = 1.0  # below zero-reward demand
    bad = tmp_path / "tight.json"
    bad.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["solve", "--scenario", str(bad), "--scheme", "sar"])
    assert code == 4
    assert "invalid scenario" in err


def test_unlimited_capacity_solve_exit_4(capsys, tmp_path, scenario_file):
    # the file loads (C = inf is an unlimited network), but no search ends
    doc = json.loads(open(scenario_file).read())
    doc["C"] = math.inf
    path = tmp_path / "unlimited.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["solve", "--scenario", str(path), "--scheme", "sur"])
    assert code == 4
    assert out == ""
    assert "invalid scenario: solving needs a finite capacity C" in err


@pytest.mark.parametrize("field", ["A", "sd"])
def test_nan_parameter_exit_4(capsys, tmp_path, scenario_file, field):
    # NaN used to pass validation, and the solve then escaped main with
    # a TypeError (A) or a ValueError (sd)
    doc = json.loads(open(scenario_file).read())
    if field == "sd":
        doc["distribution"] = {"variant": "truncated_normal", "mean": 75.0,
                               "sd": math.nan, "lo": 0.0, "hi": 155.0}
    else:
        doc[field] = math.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(
        capsys, ["solve", "--scenario", str(bad), "--scheme", "sur", "--grid", "50"]
    )
    assert code == 4
    assert out == ""
    assert f"invalid scenario: {field} must be > 0 and finite, got nan" in err
    assert "Traceback" not in err


def test_sweep_below_baseline_exit_4(capsys, scenario_file):
    code, out, err = _run(
        capsys,
        ["sweep", "--scenario", scenario_file, "--from", "1.0",
         "--to", "1.6e7", "--steps", "3", "--grid", "60"],
    )
    assert code == 4
    assert "invalid scenario" in err and "D(0)" in err
    assert out == ""


@pytest.mark.parametrize("phase,c_arg", [("_demand_inverse", 1), ("_intervals", 0)])
def test_sweep_error_at_one_capacity_exit_4(
    monkeypatch, capsys, scenario_file, phase, c_arg
):
    # an aware (demand inversion) or an unaware (feasible intervals)
    # phase fails at the third capacity: the sweep prints no record
    import datarewards.solver as solver_mod

    orig = getattr(solver_mod, phase)
    seen: list[float] = []

    def failing(*args):
        seen.append(args[c_arg])
        if len(seen) == 3:
            raise InternalConsistencyError(f"injected failure at C={args[c_arg]:.6g}")
        return orig(*args)

    monkeypatch.setattr(solver_mod, phase, failing)
    code, out, err = _run(
        capsys,
        ["sweep", "--scenario", scenario_file, "--from", "1.2e7",
         "--to", "1.6e7", "--steps", "4", "--grid", "60"],
    )
    assert code == 4
    assert "injected failure" in err
    assert out == ""


@pytest.mark.parametrize("grid", ["1", "-5"])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_grid_below_two_exit_4(capsys, scenario_file, command, grid):
    # a one-point grid would search the reward 0 alone
    extra = (["--scheme", "sar"] if command == "solve"
             else ["--from", "1.2e7", "--to", "1.6e7", "--steps", "2"])
    code, out, err = _run(
        capsys, [command, "--scenario", scenario_file, *extra, "--grid", grid]
    )
    assert code == 4
    assert out == ""
    assert "--grid must lie in [2, 100000]" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "sweep", "reproduce"])
def test_grid_above_bound_exit_4(capsys, monkeypatch, scenario_file, command):
    # rejected before any solve starts, as sweep --steps is
    import datarewards.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(cli_mod, "solve", no_solve)
    monkeypatch.setattr(cli_mod, "solve_capacities", no_solve)
    extra = {"solve": ["--scenario", scenario_file, "--scheme", "sar"],
             "sweep": ["--scenario", scenario_file, "--from", "1.2e7",
                       "--to", "1.6e7", "--steps", "2"],
             "reproduce": ["appK"]}[command]
    code, out, err = _run(capsys, [command, *extra, "--grid", "100001"])
    assert code == 4
    assert out == ""
    assert "--grid must lie in [2, 100000]" in err and "Traceback" not in err


@pytest.mark.parametrize("field,value", [
    ("grid_points", 2.5), ("scan_points", math.nan), ("scan_points", 60.0),
    ("grid_points", True), ("scan_points", "60"),
])
def test_solver_config_needs_integers(field, value):
    # a float used to construct, and solve then raised TypeError in np.linspace
    with pytest.raises(DomainError, match=rf"SolverConfig\.{field} must be an integer"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("grid_points", 1), ("scan_points", 0)])
def test_solver_config_needs_two_points(field, value):
    with pytest.raises(DomainError, match=field):
        SolverConfig(**{field: value})
    assert SolverConfig(grid_points=2, scan_points=2).grid_points == 2


@pytest.mark.parametrize("scheme", [Scheme.SAR, Scheme.SUR])
def test_demand_search_without_enough_demand_raises(monkeypatch, scheme):
    # demand stuck at half the capacity: the aware search (for demand
    # above C) and the unaware one (above 2C) both run out of doublings
    import datarewards.solver as solver_mod

    monkeypatch.setattr(solver_mod, "_demand_at", lambda params, _: lambda w: 0.5 * params.C)
    solver_mod._solve_unaware_pair.cache_clear()
    params = PRESETS["fig5a"].params(1.6e7)
    with pytest.raises(UnboundedSearchError, match="doublings"):
        solve(params, scheme, SolverConfig(grid_points=60, scan_points=50))


def test_unknown_scheme_exit_4(capsys, scenario_file):
    code, _, err = _run(
        capsys, ["solve", "--scenario", scenario_file, "--scheme", "foo"]
    )
    assert code == 4
    assert "unknown scheme" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes(capsys, scenario_file):
    code, out, _ = _run(
        capsys,
        ["verify", "--scenario", scenario_file, "--draws", "25", "--seed", "3"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_verify_without_draws_exit_4(capsys, scenario_file, draws):
    # no draws reported PASS with a gap of 0 without checking anything
    code, out, err = _run(
        capsys, ["verify", "--scenario", scenario_file, "--draws", draws]
    )
    assert code == 4
    assert out == ""
    assert "--draws must lie in [1, 100000]" in err


def test_verify_negative_seed_exit_4(capsys, scenario_file):
    # numpy's ValueError used to escape main: exit 1, as for a failed check
    code, out, err = _run(
        capsys, ["verify", "--scenario", scenario_file, "--seed", "-1"]
    )
    assert code == 4
    assert out == ""
    assert "--seed must lie in [0, inf], got -1" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--from", "1.2e7", "--to", "1.6e7", "--steps", "1"],
     "--steps must lie in [2, 100000]"),
    (["sweep", "--from", "1.2e7", "--to", "1.6e7", "--steps", "100001"],
     "--steps must lie in [2, 100000]"),
    (["verify", "--draws", "100001"], "--draws must lie in [1, 100000]"),
])
def test_count_flag_out_of_range_exit_4_before_any_work(
    capsys, monkeypatch, scenario_file, argv, message
):
    # --draws had no upper bound, at about 60 us per draw
    import datarewards.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("load_scenario", "solve", "solve_capacities", "_verify_user_br"):
        monkeypatch.setattr(cli_mod, name, no_work)
    code, out, err = _run(capsys, [*argv, "--scenario", scenario_file])
    assert code == 4
    assert out == ""
    assert message in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

_NO_SCIPY = """
import sys
import datarewards, datarewards.cli, datarewards.oracle, datarewards.presets
from datarewards import Scheme, solve
params = datarewards.presets.PRESETS["fig7a"].params()
for scheme in (Scheme.SAR, Scheme.SUR, Scheme.SURD):
    assert solve(params, scheme).r_total > 0.0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_package_runs_without_loading_scipy():
    """A fresh interpreter imports the package and solves a truncated
    normal preset for every scheme with numpy alone."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
