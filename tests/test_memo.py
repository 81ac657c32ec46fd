"""The memos of the hot path are transparent.

``local_cat.simple_a`` hands out each simple A-label from a table per level,
and ``functors.restrict_simple`` memoizes into another; both are bounded by
the level's Kac table and cleared when full, the label table with a floor of
1024 labels, so that no clear splits one large fusion product.
``local_cat.vir_fuse`` keeps the Virasoro channels of each ordered pair of
Kac labels in a third table per level, which the Kac table bounds.
``fusion`` keeps the class of F(A) in the level's memo, and
``functors.induce_simple`` has a per-process memo.  A memo must give the
unmemoized answer on a miss and on a hit, the shared F(A) class must survive
a pipeline run unchanged, one level's table must not evict another's or hand
out its labels, a full table must not change a run's output, a copied level
must start with empty tables, a warm label or channel table must still
refuse every argument a cold one refuses, equal labels of one level must
come back as one object, a caller may change the channel list it was given,
and no memo may carry a step-2 route's result from one run into the next.
"""

import copy
import pickle
import re
from fractions import Fraction as F

import pytest

from sl2wt import OMEGA, Weight, admissible_level
from sl2wt.arithmetic import as_weight, check_rs, nu_rs
from sl2wt import local_cat as lc
from sl2wt import functors as fn
from sl2wt import fusion as fu
from sl2wt import weight_cat as wc
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


def _direct_label(level, r, s, flow, lam) -> lc.SimpleALabel:
    """The canonical label built without the level's table."""
    r, s = min((r, s), (level.u - r, level.v - s))
    return lc.SimpleALabel(r, s, flow, as_weight(lam).reduce(1))


def _key(y) -> tuple:
    return (y.r, y.s, y.flow, y.lam.p, y.lam.q, y.lam.d)


@pytest.mark.parametrize("uv", MEMO_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_label_table_is_transparent(uv):
    lv = admissible_level(*uv)
    r = rng(uv[0] * 100 + uv[1] + 3)
    misses = 0
    for _ in range(60):
        rr, ss, flow = r.randint(1, lv.u - 1), r.randint(1, lv.v - 1), r.randint(-3, 3)
        lam = r.choice([r.randint(-3, 3), random_fraction(r), random_weight(r)])
        direct = _direct_label(lv, rr, ss, flow, lam)
        misses += _key(direct) not in lv.a_labels
        got = lc.simple_a(lv, rr, ss, flow, lam)  # miss or hit
        assert got == direct and hash(got) == hash(direct) and str(got) == str(direct)
        assert lv.a_labels[_key(direct)] is got
        assert lc.simple_a(lv, rr, ss, flow, lam) is got  # hit
    assert misses == len(lv.a_labels) > 0


def test_equal_labels_come_back_as_one_object():
    lv = admissible_level(13, 8)
    third = lc.simple_a(lv, 3, 5, 2, F(1, 3))
    zero = lc.simple_a(lv, 3, 5, 2, 0)
    generic = lc.simple_a(lv, 3, 5, 2, OMEGA)
    for r, s in ((3, 5), (10, 3)):  # the Kac label and its mirror
        for lam in (F(1, 3), F(7, 3), F(-2, 3), Weight(F(1, 3)), Weight(F(4, 3))):
            assert lc.simple_a(lv, r, s, 2, lam) is third
        for lam in (0, 4, -1, F(2), Weight(3), Weight(0, 0)):
            assert lc.simple_a(lv, r, s, 2, lam) is zero
        assert lc.simple_a(lv, r, s, 2, OMEGA + 1) is generic
    assert len({id(third), id(zero), id(generic)}) == 3 and len(lv.a_labels) == 3


def test_a_warm_label_table_still_refuses_bad_arguments():
    lv = admissible_level(5, 3)
    assert run_pipeline(lv).verdict
    assert lc.simple_a(lv, 1, 1, 1, 0) in lv.a_labels.values()
    cold = admissible_level(5, 3)
    # True and 1.0 equal 1 and hash as 1, so they would find M(1,1)xPi(1;0)
    for r, s in ((0, 1), (True, 1), (1.0, 1), (1, True), (5, 1), (1, 3), (-4, 1)):
        with pytest.raises(ValueError) as refused:
            check_rs(cold, r, s)
        with pytest.raises(type(refused.value), match=re.escape(str(refused.value))):
            lc.simple_a(lv, r, s, 1, 0)
    for flow in (True, 1.0, 0.5, F(1, 2), "1"):
        with pytest.raises(ValueError, match=re.escape(f"flow {flow!r} must be an integer")):
            lc.simple_a(lv, 1, 1, flow, 0)
    assert not cold.a_labels


class _RecordingTable(dict):
    """A label table that records its largest size and counts its clears."""

    def __init__(self):
        super().__init__()
        self.largest = 0
        self.clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


def test_a_run_past_the_label_bound_keeps_the_table_bounded(monkeypatch):
    flows = range(-40, 40)
    unbounded = admissible_level(5, 3)
    with monkeypatch.context() as m:
        m.setattr(lc, "A_LABELS_PER_KAC_LABEL", 10**9)
        expected = run_pipeline(unbounded, flows).to_json()
    lv = admissible_level(5, 3)
    bound = lc.label_table_bound(lv)
    assert len(unbounded.a_labels) > bound  # this run would fill the table
    table = lv.__dict__["a_labels"] = _RecordingTable()
    assert lv.a_labels is table
    assert run_pipeline(lv, flows).to_json() == expected
    assert 0 < table.largest <= bound
    assert table.clears > 1  # the table was cleared on the way


def test_the_label_bound_has_a_floor(monkeypatch):
    # 32 per Kac label, but never fewer than 1024 labels: of the levels the
    # benchmark fuses at, 5/3 and 7/4 take the floor; both constants are read
    # at call time, so a test may patch either
    bounds = {uv: lc.label_table_bound(admissible_level(*uv)) for uv in ((5, 3), (7, 4), (11, 6), (13, 8))}
    assert bounds == {(5, 3): 1024, (7, 4): 1024, (11, 6): 1600, (13, 8): 2688}
    lv = admissible_level(5, 3)
    monkeypatch.setattr(lc, "A_LABELS_FLOOR", 0)
    assert lc.label_table_bound(lv) == 256
    monkeypatch.setattr(lc, "A_LABELS_PER_KAC_LABEL", 10**9)
    assert lc.label_table_bound(lv) == 8 * 10**9


def test_one_large_product_keeps_its_labels_in_the_table():
    # one 8-label product at 5/3 builds more labels than 32 per Kac label
    # allow there; the floor keeps them all, so no clear splits the product
    # and every label of the result's induced class is the table's instance
    lv = admissible_level(5, 3)
    table = lv.__dict__["a_labels"] = _RecordingTable()
    r = rng(4)  # a product that builds 373 labels
    x, y = (wc.GrothC.of(*(random_label(lv, r) for _ in range(8))) for _ in range(2))
    fn.induce_simple.cache_clear()  # no induced object of another 5/3 level
    got = fu.groth_fuse_C(lv, x, y)
    assert table.clears == 0 and table.largest > lc.A_LABELS_PER_KAC_LABEL * 4 * 2
    assert all(table[_key(z)] is z for z in fn.groth_F(lv, got).support())


def test_interleaved_levels_keep_their_own_label_tables():
    levels = [admissible_level(5, 3), admissible_level(13, 8)]
    units = [lc.unit_a(lv) for lv in levels]
    assert units[0] == units[1] and units[0] is not units[1]
    r = rng(7)
    own = [{_key(y): y} for y in units]
    for _ in range(200):
        for lv, seen in zip(levels, own):
            rr, ss, flow = r.randint(1, lv.u - 1), r.randint(1, lv.v - 1), r.randint(-3, 3)
            got = lc.simple_a(lv, rr, ss, flow, random_weight(r))
            assert seen.setdefault(_key(got), got) is got  # a hit returns the stored object
    for lv, seen in zip(levels, own):
        assert lv.a_labels == seen  # nothing cleared, nothing from the other level
        assert all(lv.a_labels[k] is y for k, y in seen.items())


def test_a_copied_level_starts_with_an_empty_label_table():
    lv = admissible_level(5, 3)
    y = lc.unit_a(lv)
    assert lv.a_labels
    for twin in (pickle.loads(pickle.dumps(lv)), copy.copy(lv), copy.deepcopy(lv)):
        assert twin == lv and not twin.a_labels
        z = lc.unit_a(twin)
        assert z == y and z is not y and list(twin.a_labels.values()) == [z]


def _channels(level, r, s, rp, sp) -> list:
    """The Virasoro fusion channels of (r, s) x (r', s'), computed afresh."""
    u, v = level.u, level.v
    return [
        (a, b)
        for a in range(abs(r - rp) + 1, min(r + rp - 1, 2 * u - r - rp - 1) + 1, 2)
        for b in range(abs(s - sp) + 1, min(s + sp - 1, 2 * v - s - sp - 1) + 1, 2)
    ]


def _kac_pairs(level) -> list:
    table = [(r, s) for r in range(1, level.u) for s in range(1, level.v)]
    return [a + b for a in table for b in table]


@pytest.mark.parametrize("uv", MEMO_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_channel_table_is_transparent(uv):
    lv = admissible_level(*uv)
    pairs = _kac_pairs(lv)
    rng(uv[0] * 100 + uv[1] + 4).shuffle(pairs)
    for key in pairs + pairs:  # a miss, then a hit
        assert lc.vir_fuse(lv, *key) == _channels(lv, *key)
    assert lv.channels == {key: tuple(_channels(lv, *key)) for key in pairs}
    assert len(lv.channels) == ((lv.u - 1) * (lv.v - 1)) ** 2


def test_a_caller_may_change_its_channel_list():
    lv = admissible_level(11, 6)
    first = lc.vir_fuse(lv, 3, 2, 4, 3)
    assert first == _channels(lv, 3, 2, 4, 3) and len(first) > 1
    first.append((1, 1))
    first.reverse()
    second = lc.vir_fuse(lv, 3, 2, 4, 3)
    assert second == _channels(lv, 3, 2, 4, 3) and second is not first


def test_a_warm_channel_table_still_refuses_bad_arguments():
    lv = admissible_level(5, 3)
    assert run_pipeline(lv).verdict
    assert (1, 1, 1, 1) in lv.channels and (1, 1, 1, 2) in lv.channels
    cold = admissible_level(5, 3)
    # True and 1.0 equal 1 and hash as 1, so they would find a warm entry
    for r, s in ((True, 1), (1.0, 1), (1, True), (1, 1.0), (0, 1), (1, 3), (5, 1)):
        with pytest.raises(ValueError) as refused:
            check_rs(cold, r, s)
        for args in ((r, s, 1, 1), (1, 1, r, s), (r, s, 1, 2)):
            with pytest.raises(type(refused.value), match=re.escape(str(refused.value))):
                lc.vir_fuse(lv, *args)
            with pytest.raises(type(refused.value), match=re.escape(str(refused.value))):
                lc.vir_fuse(cold, *args)
    assert not cold.channels


def test_interleaved_levels_keep_their_own_channel_tables():
    levels = [admissible_level(5, 3), admissible_level(13, 8)]
    pairs = _kac_pairs(levels[0])
    assert any(_channels(levels[0], *p) != _channels(levels[1], *p) for p in pairs)
    for key in pairs:
        for lv in levels:
            assert lc.vir_fuse(lv, *key) == _channels(lv, *key)
    for lv in levels:
        assert lv.channels == {key: tuple(_channels(lv, *key)) for key in pairs}


def test_a_copied_level_starts_with_an_empty_channel_table():
    lv = admissible_level(5, 3)
    assert run_pipeline(lv).verdict and lv.channels
    for twin in (pickle.loads(pickle.dumps(lv)), copy.copy(lv), copy.deepcopy(lv)):
        assert twin == lv and not twin.channels
        assert lc.vir_fuse(twin, 2, 1, 2, 1) == [(1, 1), (3, 1)]
        assert twin.channels == {(2, 1, 2, 1): ((1, 1), (3, 1))}


def test_corrupted_channels_fail_step2_after_a_warm_channel_table(monkeypatch):
    lv = admissible_level(5, 3)
    assert run_pipeline(lv).verdict
    warm = dict(lv.channels)
    assert warm
    calls = []

    def corrupted(level, r, s, rp, sp):
        calls.append((r, s, rp, sp))
        return [(1, 1)]

    monkeypatch.setattr(lc, "vir_fuse", corrupted)
    report = run_pipeline(lv)
    # the corruption was met on pairs whose channels the level had kept ...
    assert any(key in warm for key in calls)
    # ... and step 2 saw it
    assert not report.step2.passed
    assert not report.verdict
    assert lv.channels == warm  # the patched function wrote nothing
