"""The memos of the hot path are transparent.

``local_cat.simple_a`` hands out each simple A-label from a table per level,
and ``functors.restrict_simple`` memoizes into another; both are bounded by
the level's Kac table and cleared when full, the label table with a floor of
1024 labels, so that no clear splits one large fusion product.
``local_cat.vir_fuse`` keeps the Virasoro channels of each ordered pair of
Kac labels in a third table per level, which the Kac table bounds.
``local_cat.r_layers`` keeps R's layers under the top label and
``local_cat.build_M`` each M object under (r, s, flow), in two more tables
per level that are cleared with the label table and hold only its instances.
``fusion`` keeps the class of F(A) in the level's memo.  Every memo lives
on its level; ``functors.induce_simple`` keeps none of its own.  A memo
must give the unmemoized answer on a miss and on a hit, the shared F(A)
class must survive a pipeline run unchanged, one level's table must not
evict another's or hand out its labels, a full table must not change a
run's output, a copied level must start with empty tables, a warm label,
channel or M table must still refuse every argument a cold one refuses,
equal labels of one level must come back as one object, a caller may change
the channel list it was given, no memo may carry a step-2 route's result
from one run into the next, and no module of the package may memoize a
function per process.
"""

import ast
import copy
import pickle
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import sl2wt
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
    assert lv.covers and lv.images
    for twin in (pickle.loads(pickle.dumps(lv)), copy.copy(lv), copy.deepcopy(lv)):
        assert twin == lv and hash(twin) == hash(lv)
        assert not twin.restrictions and not twin.memo
        assert not twin.covers and not twin.images


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
    # and every label of the result's induced class is the table's instance;
    # the same product on a second, equal level gets that level's own
    # instances, since no induced object outlives its level
    lv = admissible_level(5, 3)
    table = lv.__dict__["a_labels"] = _RecordingTable()
    r = rng(4)  # a product that builds 373 labels
    x, y = (wc.GrothC.of(*(random_label(lv, r) for _ in range(8))) for _ in range(2))
    got = fu.groth_fuse_C(lv, x, y)
    assert table.clears == 0 and table.largest > lc.A_LABELS_PER_KAC_LABEL * 4 * 2
    assert all(table[_key(z)] is z for z in fn.groth_F(lv, got).support())
    second = admissible_level(5, 3)
    r = rng(4)
    x, y = (wc.GrothC.of(*(random_label(second, r) for _ in range(8))) for _ in range(2))
    got = fu.groth_fuse_C(second, x, y)
    labels = fn.groth_F(second, got).support()
    assert len(labels) == 346
    assert all(second.a_labels[_key(z)] is z for z in labels)


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


def _middle_count(level, y) -> int:
    """How many labels the middle layer of R(y) has: s -+ 1 at 0 or v drops."""
    return sum(0 < s2 < level.v for s2 in (y.s - 1, y.s + 1))


@pytest.mark.parametrize("uv", MEMO_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_cover_table_is_transparent(uv):
    lv = admissible_level(*uv)
    labels = _random_labels(lv, seed=uv[0] * 100 + uv[1] + 5)
    # no middle layer at v = 2, one at s = 1 or v - 1, two in between
    assert {_middle_count(lv, y) for y in labels} == ({0} if lv.v == 2 else {1} if lv.v == 3 else {1, 2})
    for y in labels:
        fresh = lc._r_layers(lv, y)
        got = lc.r_layers(lv, y)  # miss or hit
        assert got == fresh and got[0] == (y,) and lv.covers[y] is got
        assert lc.r_layers(lv, y) is got  # hit
    assert set(lv.covers) == set(labels)


@pytest.mark.parametrize("uv", MEMO_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_image_table_is_transparent(uv):
    lv = admissible_level(*uv)
    r = rng(uv[0] * 100 + uv[1] + 6)
    keys = [(r.randint(1, lv.u - 1), r.randint(1, lv.v), r.randint(-3, 3)) for _ in range(40)]
    # s = 1 and s = v give simples, and 1 < s < v, at v >= 3, two layers
    shapes = {"simple" if s in (1, lv.v) else "two layers" for _, s, _ in keys}
    assert {1, lv.v} <= {s for _, s, _ in keys}
    assert shapes == ({"simple"} if lv.v == 2 else {"simple", "two layers"})
    for key in keys:
        fresh = lc._build_M(lv, *key)
        got = lc.build_M(lv, *key)  # miss or hit
        assert got == fresh and lv.images[key] is got
        assert lc.build_M(lv, *key) is got  # hit
    assert set(lv.images) == set(keys)


def test_a_warm_image_table_still_refuses_bad_arguments():
    lv = admissible_level(5, 3)
    assert run_pipeline(lv).verdict
    assert (1, 2, 1) in lv.images  # M[1,2]@1, a summand of F(A)
    cold = admissible_level(5, 3)
    # True and 1.0 equal 1 and hash as 1, so they would find M[1,2]@1
    bad = [(1, 2, True), (1, 2, 1.0), (1, 2, 0.5), (1, 2, F(1, 2)), (1, 2, "1")]
    bad += [(True, 2, 1), (1.0, 2, 1), (1, True, 1), (1, 2.0, 1)]
    bad += [(1, 0, 1), (1, 4, 1), (1, -1, 1), (0, 2, 1), (5, 2, 1)]  # s outside 1..v, r outside 1..u-1
    for args in bad:
        with pytest.raises(ValueError) as refused:
            lc.build_M(cold, *args)
        with pytest.raises(type(refused.value), match=re.escape(str(refused.value))):
            lc.build_M(lv, *args)
    assert not cold.images and not cold.a_labels


def _only_table_labels(level) -> None:
    """Every label in the level's cover and image tables is the label
    table's instance, and neither table holds more entries than it."""
    table = level.a_labels
    objects = [*level.covers.values(), *(m.layers for m in level.images.values())]
    assert all(table[_key(z)] is z for layers in objects for layer in layers for z in layer)
    assert len(level.covers) <= len(table) and len(level.images) <= len(table)


class _WatchedTable(_RecordingTable):
    """A label table that checks the tables cleared with it: just before
    each clear they hold only its instances, and whenever it takes a label
    while empty they are empty too.  It records the most entries each held
    at a clear."""

    def __init__(self, level):
        super().__init__()
        self.level = level
        self.covers = self.images = 0

    def __setitem__(self, key, value):
        if not self:
            assert not self.level.covers and not self.level.images
        super().__setitem__(key, value)

    def clear(self):
        _only_table_labels(self.level)
        self.covers = max(self.covers, len(self.level.covers))
        self.images = max(self.images, len(self.level.images))
        super().clear()


@pytest.mark.parametrize("uv", [(5, 3), (13, 8)], ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_cover_and_image_tables_clear_with_the_label_table(monkeypatch, uv):
    flows = range(-3, 3)
    expected = run_pipeline(admissible_level(*uv), flows).to_json()
    # 4 labels per Kac label and no floor: 32 labels at 5/3, 336 at 13/8
    monkeypatch.setattr(lc, "A_LABELS_FLOOR", 0)
    monkeypatch.setattr(lc, "A_LABELS_PER_KAC_LABEL", 4)
    lv = admissible_level(*uv)
    table = lv.__dict__["a_labels"] = _WatchedTable(lv)
    assert run_pipeline(lv, flows).to_json() == expected
    assert table.clears > 10 and table.covers > 0 and table.images > 0
    _only_table_labels(lv)


def test_with_room_for_one_label_no_cover_and_no_two_layer_image_is_kept(monkeypatch):
    # each new label clears the table: R's layers and a two-layer M evict
    # their own top while they are built, so neither is kept; a simple M is
    lv = admissible_level(5, 3)
    y = lc.simple_a(lv, 1, 1, 0, OMEGA)
    expected = lc._r_layers(lv, y), lc._build_M(lv, 1, 2, 0), lc._build_M(lv, 1, 1, 0)
    monkeypatch.setattr(lc, "label_table_bound", lambda level: 1)
    lv = admissible_level(5, 3)
    y = lc.simple_a(lv, 1, 1, 0, OMEGA)
    for _ in range(2):
        assert lc.r_layers(lv, y) == expected[0] and not lv.covers
        assert lc.build_M(lv, 1, 2, 0) == expected[1] and not lv.images
        assert lc.build_M(lv, 1, 1, 0) == expected[2] and list(lv.images) == [(1, 1, 0)]
        _only_table_labels(lv)


@pytest.mark.parametrize("bounded", [True, False], ids=["bounded", "unbounded"])
def test_a_13_8_run_derives_each_cover_and_image_once_between_clears(monkeypatch, bounded):
    # a run asks for R's layers 2,934 times on 1,224 tops and for M 1,202
    # times on 516 keys; each is derived once between two clears of the
    # label table, which a 13/8 run clears twice
    if not bounded:
        monkeypatch.setattr(lc, "A_LABELS_PER_KAC_LABEL", 10**9)
    lv = admissible_level(13, 8)
    table = lv.__dict__["a_labels"] = _RecordingTable()
    calls = {name: [] for name in ("r_layers", "_r_layers", "build_M", "_build_M")}
    for name, seen in calls.items():

        def counted(level, *args, real=getattr(lc, name), seen=seen):
            seen.append(args)
            return real(level, *args)

        monkeypatch.setattr(lc, name, counted)
    assert run_pipeline(lv).verdict
    assert len(calls["r_layers"]) == 2934 and len(set(calls["r_layers"])) == 1224
    assert len(calls["build_M"]) == 1202 and len(set(calls["build_M"])) == 516
    derived = len(calls["_r_layers"]), len(calls["_build_M"])
    assert (derived, table.clears) == (((1597, 621), 2) if bounded else ((1224, 516), 0))


_PROCESS_MEMOS = {"lru_cache", "cache"}


def _process_memos(source: str) -> list:
    """The functions of source decorated with functools.lru_cache or
    functools.cache, under any import name, as "name:line"."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in _PROCESS_MEMOS}
    out = []
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            dec = dec.func if isinstance(dec, ast.Call) else dec
            if (isinstance(dec, ast.Name) and dec.id in names) or (
                isinstance(dec, ast.Attribute)
                and dec.attr in _PROCESS_MEMOS
                and isinstance(dec.value, ast.Name)
                and dec.value.id in modules
            ):
                out.append(f"{node.name}:{node.lineno}")
    return out


def test_no_module_memoizes_per_process():
    # every memo lives on an AdmissibleLevel and dies with it
    modules = sorted(Path(sl2wt.__file__).parent.glob("*.py"))
    assert {m.name for m in modules} >= {"functors.py", "fusion.py", "local_cat.py"}
    found = {m.name: _process_memos(m.read_text()) for m in modules}
    assert {name: memos for name, memos in found.items() if memos} == {}


def test_the_memo_guard_finds_a_process_memo():
    sources = [
        "from functools import lru_cache\n@lru_cache(maxsize=256)\ndef f(x): pass",
        "from functools import lru_cache as memo\n@memo\ndef f(x): pass",
        "import functools\nclass C:\n    @functools.cache\n    def f(self): pass",
        "import functools as ft\n@ft.lru_cache\ndef f(x): pass",
    ]
    assert [_process_memos(source) for source in sources] == [["f:3"], ["f:3"], ["f:4"], ["f:3"]]
