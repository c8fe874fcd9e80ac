"""`reproduce` at --grid 150 against stored outputs.

The files under tests/data were written by `datarewards reproduce
<preset> --grid 150`. Cases, flags and the capacity are compared
exactly, revenues and demand to 1e-9 relative. The reward and the slot
prices get 1e-4 relative: where revenue is flat at the optimum (appK
SAR) last-bit differences between CPUs move omega*, and the prices
with it, while r_total stays put.

Needs numpy and pytest only, so it also runs where scipy is missing.
"""

import csv
import io
from pathlib import Path

import pytest

from datarewards.cli import main

DATA = Path(__file__).parent / "data"
EXACT = ("C", "scheme", "case", "capacity_binding")
REVENUE = ("r_data", "r_ad", "r_total", "demand")
REWARD = ("omega_star", "p_star", "p_star_I", "p_star_II")


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(got: str, want: str, rtol: float) -> bool:
    if want == "" or got == "":
        return got == want
    g, w = float(got), float(want)
    return abs(g - w) <= rtol * max(abs(g), abs(w))


@pytest.mark.parametrize("preset", ["fig5a", "fig7c", "appK"])
def test_reproduce_matches_golden(capsys, preset):
    want_text = (DATA / f"reproduce_{preset}_grid150.csv").read_text()
    assert main(["reproduce", preset, "--grid", "150"]) == 0
    got_text = capsys.readouterr().out
    assert got_text.splitlines()[0] == want_text.splitlines()[0]
    got, want = _rows(got_text), _rows(want_text)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        where = (w["C"], w["scheme"])
        for field in EXACT:
            assert g[field] == w[field], (where, field, g[field], w[field])
        for fields, rtol in ((REVENUE, 1e-9), (REWARD, 1e-4)):
            for field in fields:
                assert _close(g[field], w[field], rtol), (where, field, g[field], w[field])
