"""The per-process memos of the hot path are transparent.

``functors.restrict_simple`` and ``functors.induce_simple`` are memoized, and
``fusion`` keeps the class of F(A) per level.  A memo must give the uncached
answer on a miss and on a hit, the shared F(A) class must survive a pipeline
run unchanged, and no memo may carry a step-2 route's result from one run
into the next.
"""

import pytest

from sl2wt import admissible_level
from sl2wt.arithmetic import nu_rs
from sl2wt import local_cat as lc
from sl2wt import functors as fn
from sl2wt import fusion as fu
from sl2wt.pipeline import expected_vacuum_factors, run_pipeline

from conftest import TEST_LEVELS, random_fraction, random_weight, rng
from test_weight_cat import random_label

MEMO_LEVELS = TEST_LEVELS + [(13, 8)]


def _branch(level, y) -> str:
    """Which case of the restriction table y falls into."""
    if (y.lam - nu_rs(level, y.r, y.s)).is_integral:
        return "atypical nu_rs"
    if (y.lam - nu_rs(level, level.u - y.r, level.v - y.s)).is_integral:
        return "atypical nu_mirror"
    return "typical w-lam" if y.lam.b else "typical rational lam"


def _random_labels(level, seed: int, count: int = 40):
    r = rng(seed)
    out = []
    for _ in range(count):
        rr, ss = r.randint(1, level.u - 1), r.randint(1, level.v - 1)
        flow = r.randint(-3, 3)
        lam = r.choice([
            nu_rs(level, rr, ss) + r.randint(-2, 2),
            nu_rs(level, level.u - rr, level.v - ss) + r.randint(-2, 2),
            random_fraction(r),
            random_weight(r),
        ])
        out.append(lc.simple_a(level, rr, ss, flow, lam))
    return out


@pytest.mark.parametrize("uv", MEMO_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_restrict_memo_is_transparent(uv):
    lv = admissible_level(*uv)
    labels = _random_labels(lv, seed=uv[0] * 100 + uv[1])
    assert {_branch(lv, y) for y in labels} == {
        "atypical nu_rs", "atypical nu_mirror", "typical w-lam", "typical rational lam"
    }
    for y in labels:
        fresh = fn.restrict_simple.__wrapped__(lv, y)
        assert fn.restrict_simple(lv, y) == fresh  # miss or hit
        assert fn.restrict_simple(lv, y) == fresh  # hit


def _induce_branch(x) -> str:
    """Which case of the induction table x falls into."""
    if not x.is_typical:
        return "atypical"
    return "typical w-lam" if x.lam.q else "typical rational lam"


@pytest.mark.parametrize("uv", MEMO_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_induce_memo_is_transparent(uv):
    lv = admissible_level(*uv)
    r = rng(uv[0] * 100 + uv[1] + 1)
    labels = list(dict.fromkeys(random_label(lv, r) for _ in range(40)))
    assert {_induce_branch(x) for x in labels} == {"atypical", "typical w-lam", "typical rational lam"}
    fn.induce_simple.cache_clear()
    for x in labels:
        fresh = fn.induce_simple.__wrapped__(lv, x)
        misses = fn.induce_simple.cache_info().misses
        assert fn.induce_simple(lv, x) == fresh
        assert fn.induce_simple.cache_info().misses == misses + 1
        hits = fn.induce_simple.cache_info().hits
        assert fn.induce_simple(lv, x) == fresh
        assert fn.induce_simple.cache_info().hits == hits + 1


def test_vacuum_class_survives_a_pipeline_run():
    lv = admissible_level(13, 8)
    assert run_pipeline(lv).verdict
    fresh = lc.comp_factors_a(lv, fn.induce_vacuum(lv))
    assert fu._vacuum_class(lv) == fresh
    assert fu._vacuum_class(lv) == lc.a_class(lv, *expected_vacuum_factors(lv))


def test_corrupted_fusion_fails_step2_after_a_warm_run(monkeypatch):
    lv = admissible_level(5, 3)
    assert run_pipeline(lv).verdict
    hits = fn.restrict_simple.cache_info().hits, fu._vacuum_class.cache_info().hits

    def corrupted(level, r, s, rp, sp):
        return [(1, 1)]

    monkeypatch.setattr(lc, "vir_fuse", corrupted)
    report = run_pipeline(lv)
    # the second run did meet warm memos ...
    assert fn.restrict_simple.cache_info().hits > hits[0]
    assert fu._vacuum_class.cache_info().hits > hits[1]
    # ... and still saw the corrupted fusion
    assert not report.step2.passed
    assert not report.verdict
