"""Opt-in sweep over every admissible level with u, v <= 12 (68 levels).

Deselected by default; run it with

    PYTHONPATH=src python -m pytest -m slow tests/test_sweep.py
"""

import math

import pytest

from sl2wt import admissible_level
from sl2wt.pipeline import run_pipeline
from sl2wt.sl2_oracle import verify_affine_singular

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
