import json
import re
from fractions import Fraction as F

import pytest

from sl2wt import OMEGA, admissible_level, wt
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt import functors as fn
from sl2wt import fusion as fu
from sl2wt import pipeline
from sl2wt.pipeline import (
    FLOWS,
    LAMBDA_SAMPLES,
    MAX_FLOWS,
    MAX_KAC_TABLE,
    MultCheck,
    _typical_samples,
    expected_vacuum_factors,
    noncentrality_witness,
    run_pipeline,
)

from conftest import SAMPLE_LEVELS, TEST_LEVELS, mutant


def test_pipeline_v2():
    report = run_pipeline(admissible_level(3, 2), flows=(-2, -1, 0, 1, 2))
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
    agree, off = wc.GrothC(), wc.GrothC.of(x) - wc.GrothC.of(wc.atypical(lv, 2, 1, 1))
    assert MultCheck(x, 2, 2, agree).passed
    assert MultCheck(x, 2, 2, off).failures() == ["routes disagree: direct - ring = D+(1,1)@0 + -1*D+(2,1)@1"]
    assert MultCheck(x, 2, 1, agree).failures() == ["multiplicity expected 2, got 1"]
    assert not MultCheck(x, 2, 1, agree).passed


def test_step2_failure_prints_the_route_difference(monkeypatch):
    lv = admissible_level(5, 3)
    marker = wc.atypical(lv, 1, 1, 7)
    via_ring = fu.a_tensor_restriction_via_ring

    # the ring route gains one stray copy of marker on every label
    monkeypatch.setattr(fu, "a_tensor_restriction_via_ring",
                        lambda level, y: via_ring(level, y) + wc.GrothC.of(marker))
    report = run_pipeline(lv)
    assert not report.step2.passed
    checks = report.step2.typical_multiplicity_checks + report.step2.atypical_multiplicity_checks
    assert all(c.difference == -1 * wc.GrothC.of(marker) for c in checks)
    assert all(c.got == c.expected for c in checks)  # only the routes disagree
    x = report.step2.atypical_multiplicity_checks[0].label
    assert f"    FAIL {x}: routes disagree: direct - ring = -1*D+(1,1)@7" in report.to_text().splitlines()
    # the JSON record is unchanged: the difference stays out of it
    data = report.to_json()["step2"]["atypical_multiplicity_checks"]
    assert all(set(c) == {"label", "expected", "got", "pass"} for c in data)


def test_step3_failure_prints_both_sides_of_the_square(monkeypatch):
    lv = admissible_level(5, 3)
    honest_text = run_pipeline(lv).to_text()
    assert "F(x')" not in honest_text

    # a rigid dual that dualizes nothing breaks every square whose sides differ
    monkeypatch.setattr(lc, "rigid_dual", lambda level, x: x)
    report = run_pipeline(lv)
    failed = [x for x, ok in report.step3.duality_checks if not ok]
    assert failed and not report.verdict
    lines = report.to_text().splitlines()
    for x in failed:
        at = lines.index(f"    FAIL {x}")
        lhs = lc.loewy_lines(fn.induce_simple(lv, wc.contragredient(lv, x)))
        rhs = lc.loewy_lines(fn.induce_simple(lv, x))
        block = ["      F(x'):", *("        " + ln for ln in lhs), "      F(x)*:", *("        " + ln for ln in rhs)]
        assert lines[at + 1:at + 1 + len(block)] == block
    # the JSON record is unchanged: the layers stay out of it
    data = report.to_json()["step3"]["duality_checks"]
    assert all(set(c) == {"label", "pass"} for c in data)


def test_omega_always_sampled():
    assert OMEGA in LAMBDA_SAMPLES
    lv = admissible_level(2, 3)
    report = run_pipeline(lv, flows=FLOWS)
    assert report.verdict
    # w lies on no atypical coset, so every (r, s, flow) has a typical sample
    for r in range(1, lv.u):
        for s in range(1, lv.v):
            assert all(list(_typical_samples(lv, r, s, flow)) for flow in FLOWS)


@pytest.mark.parametrize("uv", TEST_LEVELS + [(13, 8)], ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_steps_2_and_3_sample_the_same_simples(uv):
    report = run_pipeline(admissible_level(*uv))
    step2 = {c.label for c in report.step2.typical_multiplicity_checks}
    step3 = {x for x, _ in report.step3.duality_checks if x.is_typical}
    assert step2 and step2 == step3


def test_flows_must_be_nonempty_and_bounded():
    lv = admissible_level(5, 3)
    for empty in ((), [], range(5, 1)):
        with pytest.raises(ValueError, match="no flows"):
            run_pipeline(lv, flows=empty)
    # refused before the range is walked, even past sys.maxsize
    for long in (range(MAX_FLOWS + 1), range(-10**30, 10**30)):
        with pytest.raises(ValueError, match=f"at most {MAX_FLOWS} flows"):
            run_pipeline(lv, flows=long)
    assert run_pipeline(admissible_level(3, 2), flows=range(MAX_FLOWS)).verdict


def test_flows_must_be_integers():
    lv = admissible_level(5, 3)
    # each passed or raised TypeError before the check; a bool is no flow,
    # as it is no Kac label entry
    for bad in (0.5, F(1, 2), True, "a"):
        for flows in ((bad,), (0, bad)):
            with pytest.raises(ValueError, match=re.escape(f"flow {bad!r} must be an integer")):
                run_pipeline(lv, flows=flows)


def test_kac_table_is_capped(monkeypatch):
    # refused before any step runs; the cap is on (u-1)(v-1), inclusive
    for u, v in ((1001, 1000), (41, 27), (10**9 + 1, 10**9)):
        with pytest.raises(ValueError, match=f"at most {MAX_KAC_TABLE}"):
            run_pipeline(admissible_level(u, v))
    # every sweep level (u, v <= 12) and the benchmark's 13/8 are far below it
    assert max((u - 1) * (v - 1) for u, v in ((12, 12), (13, 8))) < MAX_KAC_TABLE
    monkeypatch.setattr(pipeline, "MAX_KAC_TABLE", 8)
    assert run_pipeline(admissible_level(5, 3)).verdict  # (5-1)(3-1) = 8
    with pytest.raises(ValueError, match="at most 8"):
        run_pipeline(admissible_level(7, 3))


def test_flow_range_gives_the_tuple_report():
    lv = admissible_level(5, 3)
    by_range, by_tuple = run_pipeline(lv, flows=range(-1, 3)), run_pipeline(lv, flows=(-1, 0, 1, 2))
    assert by_range == by_tuple
    assert by_range.to_json() == by_tuple.to_json()
    assert run_pipeline(lv, flows=range(-2, 3)).to_json() == run_pipeline(lv).to_json()


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


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_step4_fails_when_tau_sends_atypicals_to_flow_0(uv):
    # negative control: with tau(Q) at Pi-flow 0 the fixed witness has an
    # integral exponent, and no other Z may be sought to rescue the step
    lv = admissible_level(*uv)
    with mutant("atypical_tau_flow_0"):
        step4 = run_pipeline(lv).step4
    assert step4.passed is False
    assert step4.witness[1] == wt(0)


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_step2_fails_when_restriction_swaps_its_e_minus_branches(uv):
    # negative control on the derivation that the restriction memo moves
    # along spectral-flow orbits: the shifts carry the wrong E-string to
    # every flow, and every atypical count fails
    lv = admissible_level(*uv)
    with mutant("swapped_eminus_branches"):
        report = run_pipeline(lv)
    atypical = report.step2.atypical_multiplicity_checks
    assert atypical and not any(c.passed for c in atypical)
    assert not report.step2.passed and not report.verdict
    assert len(lv.restriction_orbits) < len(lv.restrictions)  # answers were moved along orbits


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


def _checks(report):
    return report.step2.typical_multiplicity_checks + report.step2.atypical_multiplicity_checks


def test_mult_check_passed_agrees_with_its_failures(monkeypatch):
    lv = admissible_level(5, 3)
    clean = _checks(run_pipeline(lv))
    assert clean and all(c.passed and not c.failures() for c in clean)
    # a wrong expected count alone
    wrong = MultCheck(clean[0].label, clean[0].expected + 1, clean[0].got, clean[0].difference)
    assert not wrong.passed and wrong.failures() == [f"multiplicity expected {wrong.expected}, got {wrong.got}"]

    monkeypatch.setattr(lc, "vir_fuse", lambda level, r, s, rp, sp: [(1, 1)])
    corrupted = _checks(run_pipeline(lv))
    failing = [c for c in corrupted if c.failures()]
    assert failing and all(not c.passed for c in failing)
    assert all(c.passed == (not c.failures()) for c in corrupted)
