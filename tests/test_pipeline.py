import json
from fractions import Fraction as F

import pytest

from sl2wt import OMEGA, admissible_level, wt
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt.pipeline import (
    MultCheck,
    SampleConfig,
    expected_vacuum_factors,
    noncentrality_witness,
    run_pipeline,
)


def test_pipeline_v2():
    report = run_pipeline(admissible_level(3, 2), SampleConfig(flows=(-2, -1, 0, 1, 2)))
    assert report.verdict
    assert report.step1.all_local and report.step1.matches_expected


def test_pipeline_v3_step1_factors():
    lv = admissible_level(2, 3)
    report = run_pipeline(lv)
    assert report.verdict
    got = set(report.step1.factors)
    assert got == {
        lc.unit_a(lv),
        lc.simple_a(lv, 1, 2, 1, wt(F(-1, 3))),
        lc.simple_a(lv, 1, 1, 2, wt(F(-2, 3))),
    }


def test_pipeline_deterministic():
    lv = admissible_level(5, 3)
    a = run_pipeline(lv).to_json()
    b = run_pipeline(lv).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_pipeline_corrupted_fusion_fails_step2(monkeypatch):
    lv = admissible_level(5, 3)

    def corrupted(level, r, s, rp, sp):
        return [(1, 1)]

    monkeypatch.setattr(lc, "vir_fuse", corrupted)
    report = run_pipeline(lv)
    assert not report.verdict
    assert not report.step2.passed
    assert any(not c.passed for c in report.step2.atypical_multiplicity_checks)
    assert "routes disagree" in report.to_text()
    # the JSON record of a check keeps its four keys
    checks = report.to_json()["step2"]["atypical_multiplicity_checks"]
    assert all(set(c) == {"label", "expected", "got", "pass"} for c in checks)


def test_mult_check_names_the_failed_sub_check():
    lv = admissible_level(5, 3)
    x = wc.atypical(lv, 1, 1, 0)
    assert MultCheck(x, 2, 2, True).passed
    assert MultCheck(x, 2, 2, False).failures() == ["routes disagree"]
    assert MultCheck(x, 2, 1, True).failures() == ["multiplicity expected 2, got 1"]
    assert not MultCheck(x, 2, 1, True).passed


def test_omega_always_sampled():
    config = SampleConfig(lambda_samples=(wt(0),))
    assert OMEGA in config.with_omega().lambda_samples
    report = run_pipeline(admissible_level(2, 3), config)
    assert report.verdict


def test_noncentrality_witness_examples():
    lv = admissible_level(5, 3)  # v >= 3: tau(Q) has Pi-flow 1
    z, e = noncentrality_witness(lv, wc.atypical(lv, 1, 1, 1))
    assert z == lc.simple_a(lv, 1, 1, 0, OMEGA)
    assert e == OMEGA
    lv = admissible_level(3, 2)  # v = 2: tau(Q) has Pi-flow 2
    z, e = noncentrality_witness(lv, wc.atypical(lv, 1, 1, 1))
    assert z == lc.simple_a(lv, 1, 1, 0, OMEGA)
    assert e == 2 * OMEGA
    with pytest.raises(ValueError):
        noncentrality_witness(lv, wc.lr0(lv, 1, 0))


def test_expected_vacuum_factors_shapes():
    assert len(expected_vacuum_factors(admissible_level(3, 2))) == 2
    assert len(expected_vacuum_factors(admissible_level(2, 3))) == 3


def test_report_serialization():
    lv = admissible_level(2, 3)
    report = run_pipeline(lv)
    data = report.to_json()
    assert data["verdict"] is True
    assert data["level"] == {"u": 2, "v": 3}
    assert {"step1", "step2", "step3", "step4"} <= set(data)
    json.dumps(data)  # must be plain JSON types
    text = report.to_text()
    assert "verdict: PASS" in text
    assert "step 1" in text and "step 4" in text
    assert "|" in text  # the Loewy diagram of the length-2 summand
