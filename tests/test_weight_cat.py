import json
from fractions import Fraction as F

import pytest

from sl2wt import OMEGA, OutOfKacTable, admissible_level, wt
from sl2wt.arithmetic import DirectSum, lam_rs
from sl2wt import weight_cat as wc

from conftest import TEST_LEVELS, map_labels, random_weight, rng


def vacuum_extension(level):
    """The free-field algebra restricted to the weight category: sigma(E-_{u-1,v-1})."""
    return wc.eminus(level, level.u - 1, level.v - 1, 1)


def random_label(level, r, typicals=True):
    u, v = level.u, level.v
    flow = r.randint(-5, 5)
    rr, ss = r.randint(1, u - 1), r.randint(1, v - 1)
    if typicals and r.random() < 0.5:
        lam = random_weight(r)
        try:
            return wc.typical(level, rr, ss, lam, flow)
        except wc.NotSimple:
            return wc.typical(level, rr, ss, lam + OMEGA, flow)
    return wc.atypical(level, rr, ss, flow)


def test_canonicalize_aliases():
    lv = admissible_level(5, 3)
    # L_{1,0} = sigma^{-1}(D+_{u-1,v-1})
    assert wc.lr0(lv, 1, 0) == wc.SimpleCLabel(-1, 4, 2, None)
    # D-_{r,s} with s <= v-2
    assert wc.dminus(lv, 1, 1, 0) == wc.SimpleCLabel(-1, 4, 1, None)
    # D-_{r,v-1} = sigma^{-2}(D+_{r,v-1})
    assert wc.dminus(lv, 1, 2, 0) == wc.SimpleCLabel(-2, 1, 2, None)
    # D+_{r,0} alias
    assert wc.dplus(lv, 2, 0, 3) == wc.lr0(lv, 2, 3)
    assert wc.dminus(lv, 2, 0, 3) == wc.lr0(lv, 2, 3)


def test_canonicalize_typical_lex_min():
    lv = admissible_level(5, 3)
    lam = wt(F(1, 5), F(1))
    a = wc.typical(lv, 4, 2, lam, 0)
    b = wc.typical(lv, 1, 1, lam, 0)
    assert a == b and (a.r, a.s) == (1, 1)
    assert a.lam == lam.reduce(2)


def test_canonicalize_idempotent(level):
    r = rng(20)
    for _ in range(80):
        x = random_label(level, r)
        if x.is_typical:
            assert wc.typical(level, x.r, x.s, x.lam, x.flow) == x
        else:
            assert wc.atypical(level, x.r, x.s, x.flow) == x


def test_typical_rejects_atypical_cosets():
    lv = admissible_level(5, 3)
    for r in range(1, 5):
        for s in range(1, 3):
            lam = lam_rs(lv, r, s)
            for probe in (lam, -lam, lam + 2, -lam - 4):
                with pytest.raises(wc.NotSimple):
                    wc.typical(lv, r, s, probe, 0)
    # the omega part always rescues typicality
    wc.typical(lv, 1, 1, wt(lam_rs(lv, 1, 1), F(1)), 0)


def test_out_of_table():
    lv = admissible_level(5, 3)
    for r, s in ((0, 1), (5, 1), (1, 0), (1, 3)):
        with pytest.raises(OutOfKacTable):
            wc.atypical(lv, r, s, 0)


@pytest.mark.parametrize("uv", TEST_LEVELS + [(13, 8)], ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_eminus_layers_match_the_checked_constructors(uv):
    # eminus checks its Kac label once and builds both layers directly: they
    # are the labels atypical and dminus build, and a label outside the Kac
    # table is still refused
    lv = admissible_level(*uv)
    for r in range(1, lv.u):
        for s in range(1, lv.v):
            for flow in range(-3, 4):
                assert wc.eminus(lv, r, s, flow).layers == (
                    (wc.atypical(lv, lv.u - r, lv.v - s, flow),),
                    (wc.dminus(lv, r, s, flow),),
                )
    for r, s in ((0, 1), (lv.u, 1), (1, 0), (1, lv.v)):
        with pytest.raises(OutOfKacTable):
            wc.eminus(lv, r, s, 0)


def test_spectral_flow_group_action():
    lv = admissible_level(5, 3)
    r = rng(21)
    for _ in range(100):
        x = random_label(lv, r)
        a, b = r.randint(-4, 4), r.randint(-4, 4)
        assert wc.spectral_flow(wc.spectral_flow(x, a), b) == wc.spectral_flow(x, a + b)
        assert wc.spectral_flow(wc.spectral_flow(x, 2), -2) == x
    assert wc.spectral_flow(wc.atypical(lv, 2, 1, 3), 2) == wc.atypical(lv, 2, 1, 5)


def test_flow_of_vacuum_extension():
    for u, v in ((5, 3), (3, 2)):
        lv = admissible_level(u, v)
        assert wc.spectral_flow(wc.eminus(lv, u - 1, v - 1, 0), 1) == vacuum_extension(lv)


def test_contragredient_formulas():
    lv = admissible_level(5, 3)
    lam = wt(F(1, 5), F(1))
    assert wc.contragredient(lv, wc.typical(lv, 1, 1, lam, 0)) == wc.typical(lv, 1, 1, -lam, 0)
    # (sigma^l D+_{r,s})' with s <= v-2 -> sigma^{-l-1}(D+_{u-r,v-s-1})
    x = wc.atypical(lv, 2, 1, 3)
    assert wc.contragredient(lv, x) == wc.SimpleCLabel(-4, 3, 1, None)
    x = wc.atypical(lv, 2, 2, 3)  # s = v-1 case
    assert wc.contragredient(lv, x) == wc.SimpleCLabel(-5, 2, 2, None)


def test_contragredient_involution_and_flow(level):
    r = rng(22)
    for _ in range(200):
        x = random_label(level, r)
        assert wc.contragredient(level, wc.contragredient(level, x)) == x
        m = r.randint(-3, 3)
        assert wc.contragredient(level, wc.spectral_flow(x, m)) == wc.spectral_flow(
            wc.contragredient(level, x), -m
        )


def test_comp_factors_eplus_eminus():
    lv = admissible_level(5, 3)
    got = wc.comp_factors(lv, wc.eplus(lv, 1, 1, 0))
    assert got == wc.GrothC.of(wc.atypical(lv, 1, 1, 0), wc.dminus(lv, 4, 2, 0))
    # E+_{u-r,v-s} and E-_{r,s} share their two composition factors
    # (the lambda symmetry swaps only the extension direction)
    for r in range(1, 5):
        for s in range(1, 3):
            plus = wc.comp_factors(lv, wc.eplus(lv, lv.u - r, lv.v - s, 0))
            minus = wc.comp_factors(lv, wc.eminus(lv, r, s, 0))
            assert plus == minus
            assert wc.eplus(lv, lv.u - r, lv.v - s, 0) != wc.eminus(lv, r, s, 0)


def test_comp_factors_counts_the_parts_of_nested_sums(level):
    a, b = wc.eminus(level, 1, 1, 0), wc.projective(level, 1, 1, 2)
    c = wc.simple(wc.atypical(level, 1, 1, -1))
    flat = wc.comp_factors(level, DirectSum((a, b, c)))
    assert flat == wc.comp_factors(level, a) + wc.comp_factors(level, b) + wc.comp_factors(level, c)
    for nested in (DirectSum((DirectSum((a, b)), c)), DirectSum((a, DirectSum((b, c))))):
        assert wc.comp_factors(level, nested) == flat


def test_comp_factors_vacuum_extension():
    for u, v in ((5, 3), (3, 2), (2, 3)):
        lv = admissible_level(u, v)
        got = wc.comp_factors(lv, vacuum_extension(lv))
        assert got == wc.GrothC.of(
            wc.SimpleCLabel(-1, u - 1, v - 1, None), wc.atypical(lv, 1, 1, 1)
        )
        assert got.multiplicity(wc.lr0(lv, 1, 0)) == 1


def test_comp_factors_projective():
    lv = admissible_level(5, 3)
    got = wc.comp_factors(lv, wc.projective(lv, 1, 1, 0))
    expected = wc.comp_factors(lv, wc.eminus(lv, 4, 1, 1)) + wc.comp_factors(lv, wc.eminus(lv, 4, 2, 0))
    assert got == expected
    assert sum(n for _, n in got.items()) == 4
    # s = v-1 branch
    got = wc.comp_factors(lv, wc.projective(lv, 1, 2, 0))
    expected = wc.comp_factors(lv, wc.eminus(lv, 1, 2, 2)) + wc.comp_factors(lv, wc.eminus(lv, 4, 1, 0))
    assert got == expected


def test_groth_arithmetic():
    lv = admissible_level(5, 3)
    x = wc.atypical(lv, 1, 1, 0)
    y = wc.atypical(lv, 2, 1, 0)
    g = wc.GrothC.of(x, x, y)
    assert g.multiplicity(x) == 2 and g.multiplicity(y) == 1
    assert (g - wc.GrothC.of(x)).multiplicity(x) == 1
    assert not (g - g).coeffs
    assert (2 * wc.GrothC.of(y)).multiplicity(y) == 2
    assert (g - 2 * wc.GrothC.of(x)).is_effective
    assert not (g - 3 * wc.GrothC.of(x)).is_effective
    assert map_labels(g, lambda lbl: wc.spectral_flow(lbl, 3)).multiplicity(wc.spectral_flow(x, 3)) == 2


def test_label_json_round_trip(level):
    r = rng(23)
    for _ in range(60):
        x = random_label(level, r)
        blob = json.dumps(wc.label_to_json(x), sort_keys=True)
        back = wc.label_from_json(level, json.loads(blob))
        assert back == x
        assert json.dumps(wc.label_to_json(back), sort_keys=True) == blob
    # aliases canonicalize on parse
    raw = {"cat": "C", "flow": 0, "base": {"type": "L", "r": 1}}
    assert wc.label_from_json(level, raw) == wc.lr0(level, 1, 0)
