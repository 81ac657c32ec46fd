"""Opt-in sweep over every admissible level with u, v <= 12 (68 levels):
the pipeline, the singular vector, and the oracle's checks of ``typical``
and of E-'s socle.  One more run, at 13/8 over 100 flows, clears the level's
label table about 80 times and must print the pinned ``--json`` bytes; a
run over as many flows derives only the 486 restrictions of one flow.

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

SWEEP_LEVELS = [(u, v) for u in range(2, 13) for v in range(2, 13) if math.gcd(u, v) == 1]


def test_sweep_covers_68_levels():
    assert len(SWEEP_LEVELS) == 68


@pytest.mark.slow
@pytest.mark.parametrize("uv", SWEEP_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_level_sweep(uv):
    lv = admissible_level(*uv)
    assert run_pipeline(lv).verdict
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
    # the label table, and the tables of R's layers and M objects and their
    # orbit tables cleared with it, fill about 80 times in this run
    code = main(["pipeline", "--level", "13/8", "--flows=-50..49", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == THRASH_JSON_SHA256


@pytest.mark.slow
def test_a_max_flows_run_at_13_8_derives_each_restriction_orbit_once(monkeypatch):
    # 36,840 labels restricted, 486 orbits under spectral flow derived: as
    # many as at the five flows of a default run
    lv = admissible_level(13, 8)
    derived = []
    real = fn._restrict_simple
    monkeypatch.setattr(fn, "_restrict_simple", lambda level, y: derived.append(y) or real(level, y))
    assert run_pipeline(lv, range(-MAX_FLOWS // 2, MAX_FLOWS // 2)).verdict
    assert len(derived) == len(lv.restriction_orbits) == 486
