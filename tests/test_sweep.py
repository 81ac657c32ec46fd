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
