"""Loewy layers of the catalogued objects, checked against the dualities.

Every catalogued object carries its Loewy layers, top first.  A duality
reverses a Loewy filtration, so the layers of the dual of x are the reversed
layers of x with the dual applied to each label: the contragredient on the
weight category side (simples, E- and E+) and the rigid dual on the local side
(simples, R and M).  Layers are compared as multisets.
"""

import re
from collections import Counter
from fractions import Fraction as F

import pytest

from sl2wt import OMEGA, admissible_level, wt
from sl2wt.arithmetic import nu_rs
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt import functors as fn

from conftest import TEST_LEVELS

LAYER_LEVELS = TEST_LEVELS + [(13, 8)]
FLOWS = range(-2, 3)
LAMS = (wt(0), wt(F(1, 3)), OMEGA, wt(F(1, 5), 1))


def _layer_mismatches(objects, dual, dual_label):
    """The objects x whose dual's layers are not the reversed layers of x
    with dual_label applied to each label."""
    bad = []
    for x in objects:
        want = [Counter(dual_label(lbl) for lbl in layer) for layer in reversed(x.layers)]
        if [Counter(layer) for layer in dual(x).layers] != want:
            bad.append(str(x))
    return bad


def _c_objects(level):
    out = []
    for r in range(1, level.u):
        for s in range(1, level.v):
            for flow in FLOWS:
                out += [wc.eminus(level, r, s, flow), wc.eplus(level, r, s, flow)]
                out.append(wc.simple(wc.atypical(level, r, s, flow)))
                for lam in LAMS:
                    try:
                        out.append(wc.simple(wc.typical(level, r, s, lam, flow)))
                    except wc.NotSimple:
                        pass
    return out


def _a_objects(level):
    out = []
    for r in range(1, level.u):
        for flow in FLOWS:
            out += [lc.build_M(level, r, s, flow) for s in range(1, level.v + 1)]
            for s in range(1, level.v):
                out += [lc.build_R(level, r, s, lam, flow) for lam in LAMS]
                out += [lc.a_simple(lc.simple_a(level, r, s, flow, lam)) for lam in LAMS]
    return out


@pytest.fixture(params=LAYER_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def layer_level(request):
    return admissible_level(*request.param)


def test_contragredient_reverses_layers(layer_level):
    level = layer_level
    objects = _c_objects(level)
    assert {x.tag for x in objects} == {"simple", "E-", "E+"}
    dual = lambda x: wc.contragredient_obj(level, x)
    assert _layer_mismatches(objects, dual, lambda lbl: wc.contragredient(level, lbl)) == []


def test_contragredient_reverses_the_layers_of_projectives(layer_level):
    # P_x' is the projective cover of x': its top and socle are x', and its
    # middle layer is the contragredients of P_x's middle layer
    level = layer_level
    projectives = [
        wc.projective(level, r, s, flow) for r in range(1, level.u) for s in range(1, level.v) for flow in FLOWS
    ]
    dual = lambda x: wc.contragredient_obj(level, x)
    assert _layer_mismatches(projectives, dual, lambda lbl: wc.contragredient(level, lbl)) == []
    for x in projectives:
        y = dual(x)
        assert y.tag == "P" and y.layers[0] == (wc.contragredient(level, x.layers[0][0]),)
        assert dual(y) == x
    pair = wc.DirectSum(tuple(projectives[:2]))
    assert dual(pair) == wc.DirectSum(tuple(dual(x) for x in projectives[:2]))


def test_rigid_dual_reverses_layers(layer_level):
    level = layer_level
    objects = _a_objects(level)
    assert {x.tag for x in objects} == ({"simple", "R", "M"} if level.v >= 3 else {"simple", "R"})
    dual = lambda x: lc.rigid_dual(level, x)
    assert _layer_mismatches(objects, dual, lambda lbl: lc.rigid_dual_label(level, lbl)) == []


def test_layer_duality_catches_a_wrong_m_socle(monkeypatch):
    """Negative control: an M whose bottom label carries nu_{r,s} instead of
    nu_{r,s+1} fails the rigid-dual layer check."""

    def wrong_build_M(level, r, s, flow):
        if s in (1, level.v):
            return right_build_M(level, r, s, flow)
        top = (lc.simple_a(level, r, s, flow, nu_rs(level, r, s)),)
        bot = (lc.simple_a(level, r, s - 1, flow + 1, nu_rs(level, r, s)),)
        return lc.AObject("M", r, s, flow, (top, bot))

    right_build_M = lc.build_M
    monkeypatch.setattr(lc, "build_M", wrong_build_M)
    level = admissible_level(5, 3)
    objects = [fn.induce_simple(level, wc.atypical(level, r, 1, 0)) for r in range(1, level.u)]
    assert {x.tag for x in objects} == {"M"}
    dual = lambda x: lc.rigid_dual(level, x)
    assert _layer_mismatches(objects, dual, lambda lbl: lc.rigid_dual_label(level, lbl)) != []


def test_projective_is_a_diamond(layer_level):
    level = layer_level
    for r in range(1, level.u):
        for s in range(1, level.v):
            for flow in FLOWS:
                p = wc.projective(level, r, s, flow)
                top_socle = (wc.atypical(level, r, s, flow),)
                assert p.layers[0] == top_socle == p.layers[-1]
                assert len(p.layers) == 3 and len(p.layers[1]) == 2


def test_unknown_tags_are_refused():
    # every dispatch on a tag reads one of the catalogued kinds
    x = wc.simple(wc.atypical(admissible_level(5, 3), 1, 1))
    with pytest.raises(ValueError, match="unknown C-object tag"):
        wc.CObject("E", x.r, x.s, x.flow, x.layers)
    y = lc.a_simple(lc.simple_a(admissible_level(5, 3), 1, 1, 0, OMEGA))
    with pytest.raises(ValueError, match="unknown A-object tag"):
        lc.AObject("m", y.r, y.s, y.flow, y.layers)
    assert wc.C_TAGS == {"simple", "E-", "E+", "P"}
    assert lc.A_TAGS == {"simple", "R", "M"}


def test_r_and_simple_a_objects_take_their_fields_from_the_top_label(layer_level):
    # an A-object stores no lam: R(r,s;lam)@flow prints the lam of its top label
    level = layer_level
    for r in range(1, level.u):
        for s in range(1, level.v):
            r0, s0 = min((r, s), (level.u - r, level.v - s))
            for flow in FLOWS:
                for lam in LAMS:
                    x = lc.build_R(level, r, s, lam, flow)
                    top = x.layers[0][0]
                    assert (x.r, x.s, x.flow) == (top.r, top.s, top.flow) == (r0, s0, flow)
                    assert top.lam == lam.reduce(1)
                    assert str(x) == f"R({r0},{s0};{top.lam})@{flow}"
                    assert lc.aobject_to_json(x)["lam"] == top.lam.to_json()
                    y = lc.simple_a(level, r, s, flow, lam)
                    x = lc.a_simple(y)
                    assert (x.r, x.s, x.flow, x.layers) == (y.r, y.s, y.flow, ((y,),))
                    assert str(x) == str(y)


def test_direct_sums_of_both_categories_need_two_parts():
    level = admissible_level(5, 3)
    x = wc.simple(wc.atypical(level, 1, 1))
    y = lc.a_simple(lc.unit_a(level))
    assert wc.DirectSum is lc.DirectSum and wc.CObject is lc.AObject
    for part in (x, y):
        for parts in ((), (part,)):
            with pytest.raises(ValueError, match="at least two parts"):
                wc.DirectSum(parts)
    assert wc.direct_sum([x]) is x
    assert str(wc.direct_sum([x, x])) == f"{x} (+) {x}"


def test_tags_of_the_other_category_are_refused():
    # the tag is checked against the category of the top label, not against
    # the tags of both categories
    level = admissible_level(5, 3)
    x = wc.eminus(level, 1, 1)
    y = lc.build_R(level, 1, 1, OMEGA, 0)
    for tag in lc.A_TAGS - wc.C_TAGS:
        with pytest.raises(ValueError, match=re.escape(f"unknown C-object tag '{tag}'")):
            wc.CObject(tag, x.r, x.s, x.flow, x.layers)
    for tag in wc.C_TAGS - lc.A_TAGS:
        with pytest.raises(ValueError, match=re.escape(f"unknown A-object tag '{tag}'")):
            lc.AObject(tag, y.r, y.s, y.flow, y.layers)
