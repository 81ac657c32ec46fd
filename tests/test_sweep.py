"""Opt-in sweep over every admissible level with u, v <= 12 (68 levels):
the pipeline, which clears none of the level's tables, the singular vector,
and the oracle's checks of ``typical`` and of E-'s socle.  One more run, at
13/8 over 100 flows, clears the level's label table 38 times and must print
the pinned ``--json`` bytes; a run over as many flows derives each
restriction orbit once between two clears.

Deselected by default; run it with

    PYTHONPATH=src python -m pytest -m slow tests/test_sweep.py
"""

import hashlib
import math

import pytest

from sl2wt import admissible_level
from sl2wt import functors as fn
from sl2wt.cli import main
from sl2wt.pipeline import MAX_FLOWS, run_pipeline
from sl2wt.sl2_oracle import verify_affine_singular

from test_cross_checks import _eminus_socle_disagreements, _typical_disagreements
from test_memo import _orbit, _RecordingTable

SWEEP_LEVELS = [(u, v) for u in range(2, 13) for v in range(2, 13) if math.gcd(u, v) == 1]


def test_sweep_covers_68_levels():
    assert len(SWEEP_LEVELS) == 68


@pytest.mark.slow
@pytest.mark.parametrize("uv", SWEEP_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_level_sweep(uv):
    lv = admissible_level(*uv)
    table = lv.__dict__["a_labels"] = _RecordingTable()
    assert run_pipeline(lv).verdict
    # the label table, whose clear empties every table of the level, never
    # fills on a default run: 11/12 builds 5,380 labels against its 7,040
    assert table.clears == 0
    assert verify_affine_singular(lv)


@pytest.mark.slow
def test_step2_checks_the_catalogued_R_at_every_level(r_middle_up):
    # the middle-layer mutant of R (conftest.r_middle_up) changes R exactly
    # where it has a middle layer, v >= 3
    failed = [uv for uv in SWEEP_LEVELS if not run_pipeline(admissible_level(*uv)).step2.passed]
    assert failed == [uv for uv in SWEEP_LEVELS if uv[1] >= 3]


@pytest.mark.slow
@pytest.mark.parametrize("uv", SWEEP_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_the_oracle_agrees_with_typical_and_e_minus_at_every_level(uv):
    lv = admissible_level(*uv)
    assert _typical_disagreements(lv) == []
    assert _eminus_socle_disagreements(lv) == []


# sha256 of the whole `pipeline --level 13/8 --flows=-50..49 --json` output,
# newline included
THRASH_JSON_SHA256 = "473b5108e779b50600a1b0341333312115a8ed0eec5c50fdf8be0585c69161f0"


@pytest.mark.slow
def test_a_run_that_clears_the_label_table_prints_the_pinned_json(capsys):
    # the label table, and the tables of R's layers, M objects and
    # restrictions and their orbit tables cleared with it, fill 38 times in
    # this run
    code = main(["pipeline", "--level", "13/8", "--flows=-50..49", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == THRASH_JSON_SHA256


@pytest.mark.slow
def test_a_max_flows_run_at_13_8_derives_each_restriction_orbit_once_between_clears(monkeypatch):
    # 36,840 labels restricted: the label table clears 38 times, taking the
    # restriction orbit table with it, and each orbit is derived once
    # between two clears, 1,256 derivations against 486 orbits
    lv = admissible_level(13, 8)
    table = lv.__dict__["a_labels"] = _RecordingTable()
    derived = []
    real = fn._restrict_simple
    monkeypatch.setattr(
        fn, "_restrict_simple", lambda level, y: derived.append((table.clears, _orbit(y))) or real(level, y)
    )
    assert run_pipeline(lv, range(-MAX_FLOWS // 2, MAX_FLOWS // 2)).verdict
    assert table.clears == 38
    assert len(derived) == len(set(derived)) == 1256
    assert len({orbit for _, orbit in derived}) == 486
