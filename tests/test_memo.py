"""The memos of the hot path are transparent.

``functors.restrict_simple`` memoizes into a table per level, bounded by the
level's Kac table and cleared when full, ``fusion`` keeps the class of F(A)
in the level's memo, and ``functors.induce_simple`` has a per-process memo.
A memo must give the unmemoized answer on a miss and on a hit, the shared
F(A) class must survive a pipeline run unchanged, one level's table must not
evict another's, a full table must not change a run's output, a copied level
must start with empty tables, and no memo may carry a step-2 route's result
from one run into the next.
"""

import copy
import pickle

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
        fresh = fn._restrict_simple(lv, y)
        assert fn.restrict_simple(lv, y) == fresh  # miss or hit
        assert lv.restrictions[y] == fresh
        assert fn.restrict_simple(lv, y) == fresh  # hit


def _count_misses(monkeypatch, level) -> list:
    """Record the table size before each restriction computed at level."""
    sizes = []
    compute = fn._restrict_simple

    def counted(lv, y):
        if lv is level:
            sizes.append(len(lv.restrictions))
        return compute(lv, y)

    monkeypatch.setattr(fn, "_restrict_simple", counted)
    return sizes


def test_a_13_8_run_restricts_each_label_once(monkeypatch):
    lv = admissible_level(13, 8)
    misses = _count_misses(monkeypatch, lv)
    assert run_pipeline(lv).verdict
    assert len(misses) == len(lv.restrictions) == 2082


def test_interleaved_levels_keep_their_own_tables():
    levels = [admissible_level(5, 3), admissible_level(13, 8)]
    labels = [_random_labels(lv, seed=lv.u * 100 + lv.v + 2, count=200) for lv in levels]
    first = [{}, {}]
    for pair in zip(*labels):
        for i, (lv, y) in enumerate(zip(levels, pair)):
            got = fn.restrict_simple(lv, y)
            assert got == fn._restrict_simple(lv, y)
            assert first[i].setdefault(y, got) is got  # a hit returns the stored object
    for lv, seen in zip(levels, first):
        assert lv.restrictions == seen  # nothing evicted, nothing from the other level


def test_a_copied_level_starts_with_empty_tables():
    lv = admissible_level(5, 3)
    assert run_pipeline(lv).verdict and lv.restrictions and lv.memo
    for twin in (pickle.loads(pickle.dumps(lv)), copy.copy(lv), copy.deepcopy(lv)):
        assert twin == lv and hash(twin) == hash(lv)
        assert not twin.restrictions and not twin.memo


def test_a_run_past_the_bound_keeps_the_table_bounded(monkeypatch):
    flows = range(-40, 40)
    unbounded = admissible_level(5, 3)
    with monkeypatch.context() as m:
        m.setattr(fn, "RESTRICTIONS_PER_KAC_LABEL", 10**9)
        expected = run_pipeline(unbounded, flows).to_json()
    bound = fn.RESTRICTIONS_PER_KAC_LABEL * 4 * 2
    assert len(unbounded.restrictions) > bound  # this run would fill the table
    lv = admissible_level(5, 3)
    sizes = _count_misses(monkeypatch, lv)
    assert run_pipeline(lv, flows).to_json() == expected
    assert max(sizes) < bound and len(lv.restrictions) <= bound
    assert sizes.count(0) > 1  # the table was cleared on the way


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
    hits = {"restrict": 0, "vacuum": 0}
    restrict, vacuum_class = fn.restrict_simple, fu._vacuum_class

    def counted_restrict(level, y):
        hits["restrict"] += y in level.restrictions
        return restrict(level, y)

    def counted_vacuum_class(level):
        hits["vacuum"] += "vacuum_class" in level.memo
        return vacuum_class(level)

    def corrupted(level, r, s, rp, sp):
        return [(1, 1)]

    for module in (fn, fu):
        monkeypatch.setattr(module, "restrict_simple", counted_restrict)
    monkeypatch.setattr(fu, "_vacuum_class", counted_vacuum_class)
    monkeypatch.setattr(lc, "vir_fuse", corrupted)
    report = run_pipeline(lv)
    # the second run did meet warm memos ...
    assert hits["restrict"] > 0
    assert hits["vacuum"] > 0
    # ... and still saw the corrupted fusion
    assert not report.step2.passed
    assert not report.verdict
